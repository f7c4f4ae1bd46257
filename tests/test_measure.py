"""Measurement tools: tstat, traceroute, campaigns."""

from __future__ import annotations

import pytest

from repro.errors import MeasurementError
from repro.measure import MeasurementCampaign, traceroute, tstat
from repro.transport.throughput import FlowStats


class TestTstat:
    def test_summary(self):
        stats = FlowStats(
            duration_s=30.0,
            bytes_acked=2_000_000,
            bytes_retransmitted=400,
            avg_rtt_ms=120.0,
            throughput_mbps=0.53,
        )
        report = tstat(stats)
        assert report.retransmission_rate == pytest.approx(2e-4)
        assert report.avg_rtt_ms == 120.0
        assert report.bytes_total == 2_000_000


class TestTraceroute:
    def test_hops_cover_path(self, small_internet):
        path = small_internet.resolve_path("client", "server")
        hops = traceroute(small_internet, path, at_time=3_600.0)
        assert len(hops) == path.hop_count
        assert hops[0].label == "client"
        assert hops[-1].label == "server"

    def test_rtt_monotone_nondecreasing(self, small_internet):
        path = small_internet.resolve_path("client", "server")
        hops = traceroute(small_internet, path, at_time=3_600.0)
        rtts = [hop.rtt_ms for hop in hops]
        assert rtts == sorted(rtts)
        assert rtts[0] == 0.0


class TestCampaign:
    def test_runs_all_iterations(self, small_internet):
        campaign = MeasurementCampaign(small_internet, interval_s=600.0, iterations=4)
        seen_times = []

        def task(at_time: float) -> float:
            seen_times.append(at_time)
            return at_time

        results = campaign.run({"t": task})
        assert len(results["t"]) == 4
        assert seen_times == [0.0, 600.0, 1_200.0, 1_800.0]
        assert [s.iteration for s in results["t"]] == [0, 1, 2, 3]

    def test_advances_clock_between_iterations(self, small_internet):
        campaign = MeasurementCampaign(small_internet, interval_s=100.0, iterations=3)
        campaign.run({"noop": lambda t: None})
        assert small_internet.now == 200.0  # advanced between, not after

    def test_validation(self, small_internet):
        with pytest.raises(MeasurementError):
            MeasurementCampaign(small_internet, interval_s=0.0, iterations=1)
        with pytest.raises(MeasurementError):
            MeasurementCampaign(small_internet, interval_s=1.0, iterations=0)
        campaign = MeasurementCampaign(small_internet, interval_s=1.0, iterations=1)
        with pytest.raises(MeasurementError):
            campaign.run({})
