"""Link model: utilization, queuing, loss, availability, failure."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, LinkError
from repro.net.congestion import BackgroundLoad, Episode, peak_hour_for_longitude
from repro.net.links import (
    LOSS_KNEE,
    MAX_CONGESTION_LOSS,
    MIN_FAIR_SHARE,
    QUEUE_KNEE,
    Link,
    LinkClass,
)


def make_link(base_util=0.3, base_loss=1e-4, capacity=10_000.0, max_queue=40.0, diurnal=0.0):
    return Link(
        link_id=1,
        router_a=1,
        router_b=2,
        capacity_mbps=capacity,
        prop_delay_ms=10.0,
        base_loss=base_loss,
        link_class=LinkClass.T1_PEERING,
        load=BackgroundLoad(
            base_util=base_util, diurnal_amp=diurnal, episode_rate_per_day=0.0, seed=3
        ),
        max_queue_ms=max_queue,
    )


class TestLinkConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(LinkError):
            Link(
                link_id=1,
                router_a=5,
                router_b=5,
                capacity_mbps=100,
                prop_delay_ms=1,
                base_loss=0,
                link_class=LinkClass.ACCESS,
                load=BackgroundLoad(base_util=0.1),
            )

    def test_invalid_loss_rejected(self):
        with pytest.raises(ConfigError):
            make_link(base_loss=1.5)


class TestQueuing:
    def test_no_queue_below_knee(self):
        link = make_link(base_util=QUEUE_KNEE - 0.05)
        assert link.queuing_delay_ms(0.0) == 0.0

    def test_queue_grows_with_load(self):
        low = make_link(base_util=0.7).queuing_delay_ms(0.0)
        high = make_link(base_util=0.9).queuing_delay_ms(0.0)
        assert 0.0 < low < high

    def test_queue_capped_by_buffer(self):
        link = make_link(base_util=0.995, max_queue=40.0)
        assert link.queuing_delay_ms(0.0) <= 40.0

    def test_one_way_delay_includes_propagation(self):
        link = make_link(base_util=0.1)
        assert link.one_way_delay_ms(0.0) == pytest.approx(10.0)


class TestLoss:
    def test_base_loss_only_below_knee(self):
        link = make_link(base_util=LOSS_KNEE - 0.1, base_loss=1e-4)
        assert link.loss(0.0) == pytest.approx(1e-4)

    def test_congestion_loss_above_knee(self):
        link = make_link(base_util=0.95, base_loss=1e-4)
        assert link.loss(0.0) > 1e-3

    def test_congestion_loss_bounded(self):
        link = make_link(base_util=0.995, base_loss=0.0)
        assert link.loss(0.0) <= MAX_CONGESTION_LOSS

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_loss_in_unit_interval(self, util):
        link = make_link(base_util=util)
        assert 0.0 <= link.loss(0.0) <= 1.0


class TestAvailability:
    def test_headroom(self):
        link = make_link(base_util=0.4, capacity=1_000.0)
        assert link.available_bw_mbps(0.0) == pytest.approx(600.0)

    def test_fair_share_floor(self):
        link = make_link(base_util=0.995, capacity=1_000.0)
        assert link.available_bw_mbps(0.0) >= MIN_FAIR_SHARE * 1_000.0


class TestFailure:
    def test_failed_link_is_lossy_and_dead(self):
        link = make_link()
        link.fail()
        assert link.loss(0.0) == 1.0
        assert link.available_bw_mbps(0.0) == 0.0
        link.restore()
        assert link.loss(0.0) < 1.0


class TestBackgroundLoad:
    def test_deterministic(self):
        a = BackgroundLoad(base_util=0.5, episode_rate_per_day=2.0, seed=9)
        b = BackgroundLoad(base_util=0.5, episode_rate_per_day=2.0, seed=9)
        times = [100.0, 5_000.0, 90_000.0, 200_000.0]
        assert [a.utilization(t) for t in times] == [b.utilization(t) for t in times]

    def test_diurnal_peak_at_peak_hour(self):
        load = BackgroundLoad(
            base_util=0.5, diurnal_amp=0.1, peak_hour=20.0, episode_rate_per_day=0.0
        )
        peak = load.utilization(20 * 3600.0)
        trough = load.utilization(8 * 3600.0)
        assert peak == pytest.approx(0.6, abs=1e-6)
        assert trough == pytest.approx(0.4, abs=1e-6)

    def test_utilization_clamped(self):
        load = BackgroundLoad(
            base_util=0.95, diurnal_amp=0.2, episode_rate_per_day=5.0, episode_severity=0.5, seed=1
        )
        for t in range(0, 200_000, 7_000):
            assert 0.0 <= load.utilization(float(t)) <= 0.995

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            BackgroundLoad(base_util=0.5).utilization(-1.0)

    def test_episode_activity_window(self):
        ep = Episode(start_s=100.0, duration_s=50.0, extra_util=0.2)
        assert not ep.active_at(99.9)
        assert ep.active_at(100.0)
        assert ep.active_at(149.9)
        assert not ep.active_at(150.0)

    def test_episodes_eventually_occur(self):
        load = BackgroundLoad(
            base_util=0.3, diurnal_amp=0.0, episode_rate_per_day=6.0, episode_severity=0.3, seed=5
        )
        samples = [load.utilization(float(t)) for t in range(0, 7 * 86_400, 600)]
        assert max(samples) > 0.35  # some episode pushed load above base

    def test_peak_hour_for_longitude(self):
        # UTC longitudes peak at 20:00 UTC; +90E peaks 6 hours earlier.
        assert peak_hour_for_longitude(0.0) == pytest.approx(20.0)
        assert peak_hour_for_longitude(90.0) == pytest.approx(14.0)
        assert 0.0 <= peak_hour_for_longitude(-170.0) < 24.0
