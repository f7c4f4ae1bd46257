"""The factored-out diurnal/episode machinery (repro.net.diurnal)."""

from __future__ import annotations

import pytest

from repro.net.congestion import BackgroundLoad
from repro.net.diurnal import (
    SECONDS_PER_DAY,
    DiurnalCurve,
    Episode,
    EpisodeProcess,
    peak_hour_for_longitude,
)
from repro.net.links import Link, LinkClass
from repro.net.path import RouterPath


class TestEpisode:
    def test_active_window_is_half_open(self):
        episode = Episode(start_s=100.0, duration_s=50.0, extra_util=0.2)
        assert episode.active_at(100.0)
        assert episode.active_at(149.9)
        assert not episode.active_at(150.0)
        assert not episode.active_at(99.9)


class TestDiurnalCurve:
    def test_peak_hour_maximizes_offset(self):
        curve = DiurnalCurve(amplitude=0.3, peak_hour=20.0)
        at_peak = curve.offset(20.0 * 3600.0)
        at_trough = curve.offset(8.0 * 3600.0)
        assert at_peak == pytest.approx(0.3)
        assert at_trough == pytest.approx(-0.3)

    def test_multiplier_never_negative(self):
        curve = DiurnalCurve(amplitude=1.5, peak_hour=0.0)
        assert curve.multiplier(12.0 * 3600.0) == 0.0
        assert curve.multiplier(0.0) == pytest.approx(2.5)


class TestEpisodeProcess:
    def test_same_seed_same_schedule(self):
        a = EpisodeProcess(rate_per_day=3.0, mean_severity=0.2, seed=11)
        b = EpisodeProcess(rate_per_day=3.0, mean_severity=0.2, seed=11)
        assert a.episodes_for_day(5) == b.episodes_for_day(5)

    def test_different_seeds_diverge(self):
        a = EpisodeProcess(rate_per_day=5.0, mean_severity=0.2, seed=11)
        b = EpisodeProcess(rate_per_day=5.0, mean_severity=0.2, seed=12)
        days = range(10)
        assert any(a.episodes_for_day(d) != b.episodes_for_day(d) for d in days)

    def test_extra_covers_day_boundary_spillover(self):
        process = EpisodeProcess(rate_per_day=0.0, mean_severity=0.2, seed=1)
        # Inject a synthetic episode that spills past midnight via the
        # cache the real sampler fills.
        spill = Episode(
            start_s=SECONDS_PER_DAY - 600.0, duration_s=1_800.0, extra_util=0.4
        )
        process._cache[0] = (spill,)
        process._cache[1] = ()
        assert process.extra_at(SECONDS_PER_DAY + 600.0) == pytest.approx(0.4)
        assert process.extra_at(SECONDS_PER_DAY + 1_300.0) == 0.0


class TestPeakHour:
    def test_greenwich_peaks_in_the_evening(self):
        assert peak_hour_for_longitude(0.0) == pytest.approx(20.0)

    def test_new_york_offset_west(self):
        # ~74 degrees west -> UTC evening shifted ~5 hours later.
        assert peak_hour_for_longitude(-74.0) == pytest.approx((20.0 + 74.0 / 15.0) % 24.0)


def _utilization(load: BackgroundLoad, t: float) -> float:
    """A load's utilization at ``t``, read through a one-link path."""
    link = Link(
        link_id=1, router_a=1, router_b=2, capacity_mbps=100.0, prop_delay_ms=1.0,
        base_loss=0.0, link_class=LinkClass.ACCESS, load=load,
    )
    return RouterPath("a", "b", (1, 2), (link,)).hop_metrics(t).utilization[0]


class TestBackgroundLoadComposition:
    def test_utilization_is_base_plus_diurnal_plus_episodes(self):
        load = BackgroundLoad(
            base_util=0.4, diurnal_amp=0.2, peak_hour=20.0,
            episode_rate_per_day=0.0, seed=3,
        )
        t = 20.0 * 3600.0
        curve = DiurnalCurve(amplitude=0.2, peak_hour=20.0)
        assert _utilization(load, t) == pytest.approx(0.4 + curve.offset(t))

    def test_utilization_clamped(self):
        load = BackgroundLoad(
            base_util=0.95, diurnal_amp=0.3, peak_hour=12.0,
            episode_rate_per_day=0.0, seed=3,
        )
        assert _utilization(load, 12.0 * 3600.0) == pytest.approx(0.995)
        hot = BackgroundLoad(
            base_util=0.1, diurnal_amp=0.5, peak_hour=0.0,
            episode_rate_per_day=0.0, seed=3,
        )
        assert _utilization(hot, 12.0 * 3600.0) == 0.0
