"""Fluid simulator and MPTCP connection behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TransportError
from repro.transport import MptcpConnection, MptcpScheme, TcpConnection
from repro.transport.cc import RenoCC
from repro.transport.fluid import FluidSimulator
from repro.transport.mptcp import MptcpStats
from repro.transport.throughput import FlowStats


@pytest.fixture()
def paths(small_internet):
    direct = small_internet.resolve_path("client", "server")
    leg1 = small_internet.resolve_path("client", "vm")
    leg2 = small_internet.resolve_path("vm", "server")
    return direct, leg1.concatenate(leg2)


T0 = 3_600.0


@pytest.fixture()
def victim(paths):
    """A link on the direct path that the overlay path does not cross."""
    direct, overlay = paths
    for link in direct.links:
        if all(link is not other for other in overlay.links):
            yield link
            link.restore()
            return
    pytest.fail("need a direct-only link to fail")


def fail_at(victim, at_s):
    """An ``on_tick`` hook that fails ``victim`` once ``at_s`` has passed."""

    def hook(sim, elapsed):
        if elapsed >= at_s and not victim.failed:
            victim.fail()

    return hook


def run_single(path, seed=1, duration=45.0, rwnd=4_194_304):
    sim = FluidSimulator(at_time=T0, rng=np.random.default_rng(seed))
    flow = sim.add_flow(path, RenoCC(), rwnd_bytes=rwnd)
    return sim.run(duration)[flow.flow_id]


class TestFluidSingleFlow:
    def test_positive_goodput(self, paths):
        direct, _ = paths
        stats = run_single(direct)
        assert stats.throughput_mbps > 0

    def test_agrees_with_model_within_factor(self, paths):
        """Fluid Reno and the Mathis-based model must roughly agree.

        Mathis is a steady-state average; a finite run with few loss
        events legitimately rides above it (the cleaner the path, the
        wider the gap), so we only pin the order of magnitude.
        """
        from repro.transport import TcpParams

        direct, overlay = paths
        for path in (direct, overlay):
            model = TcpConnection(path, TcpParams(rwnd_bytes=4_194_304)).throughput_at(T0)
            fluid = run_single(path, duration=60.0).throughput_mbps
            assert 0.15 * model <= fluid <= 8.0 * model, (
                f"fluid {fluid} vs model {model} on {path.src_name}->{path.dst_name}"
            )

    def test_rwnd_caps_throughput(self, paths):
        direct, _ = paths
        small = run_single(direct, rwnd=32 * 1_460)
        big = run_single(direct, rwnd=4_194_304)
        assert small.throughput_mbps <= big.throughput_mbps + 0.5
        # rwnd cap: 32 segments per RTT
        rtt_s = direct.metrics(T0).rtt_ms / 1_000.0
        cap = 32 * 1_460 * 8 / rtt_s / 1e6
        assert small.throughput_mbps <= cap * 1.05

    def test_deterministic_given_seed(self, paths):
        direct, _ = paths
        a = run_single(direct, seed=9)
        b = run_single(direct, seed=9)
        assert a.throughput_mbps == b.throughput_mbps

    def test_throughput_capped_by_nic(self, paths):
        """All flows traverse the 100 Mbps host access links."""
        _, overlay = paths
        stats = run_single(overlay, duration=30.0)
        assert stats.throughput_mbps <= 100.0

    def test_validation(self, paths):
        direct, _ = paths
        sim = FluidSimulator(at_time=T0, rng=np.random.default_rng(0))
        with pytest.raises(TransportError):
            sim.run(10.0)  # no flows
        sim.add_flow(direct, RenoCC())
        with pytest.raises(TransportError):
            sim.run(0.0)
        with pytest.raises(TransportError):
            FluidSimulator(at_time=T0, rng=np.random.default_rng(0), tick_s=0.0)

    def test_runs_exactly_duration_over_tick_ticks(self, paths):
        """Summing 0.02 s steps to 15 s overshoots; the tick count must not."""
        direct, _ = paths
        seen: list[float] = []
        sim = FluidSimulator(
            at_time=T0,
            rng=np.random.default_rng(0),
            tick_s=0.02,
            on_tick=lambda _sim, elapsed: seen.append(elapsed),
        )
        sim.add_flow(direct, RenoCC())
        sim.run(15.0)
        assert len(seen) == 750
        assert seen == [i * 0.02 for i in range(750)]

    def test_retransmissions_recorded_on_lossy_path(self, paths):
        """A path with nonzero loss must report retransmitted bytes."""
        direct, _ = paths
        assert direct.metrics(T0).loss > 0
        stats = run_single(direct)
        assert stats.bytes_retransmitted > 0
        assert 0.0 < stats.retransmission_rate < 1.0


class TestCapacitySharing:
    def test_two_flows_share_bottleneck(self, paths):
        """Conservation: flows sharing the NIC cannot sum past it."""
        direct, _ = paths
        sim = FluidSimulator(at_time=T0, rng=np.random.default_rng(4))
        f1 = sim.add_flow(direct, RenoCC(), rwnd_bytes=16 * 1_048_576)
        f2 = sim.add_flow(direct, RenoCC(), rwnd_bytes=16 * 1_048_576)
        stats = sim.run(30.0)
        total = stats[f1.flow_id].throughput_mbps + stats[f2.flow_id].throughput_mbps
        assert total <= 100.0 + 1.0  # NIC capacity plus rounding


def _stats(acked, retx, rtt_ms, mbps):
    return FlowStats(
        duration_s=40.0,
        bytes_acked=acked,
        bytes_retransmitted=retx,
        avg_rtt_ms=rtt_ms,
        throughput_mbps=mbps,
    )


#: TestMptcp.test_failover_survives_direct_path_failure's two runs.
FAILOVER_BASELINE = MptcpStats(
    total=_stats(58969108, 9168, 909.6789524505438, 11.7938216),
    subflows=(
        _stats(54530457, 8001, 943.6107417417245, 10.90609148770495),
        _stats(4438651, 1167, 492.8144643716693, 0.8877302464871317),
    ),
    subflow_labels=("client->server", "client->server"),
)
FAILOVER_FAILED = MptcpStats(
    total=_stats(20395999, 5995998, 805.2717543046114, 4.0791998),
    subflows=(
        _stats(14136937, 5994352, 943.6107417417245, 2.8273874021177563),
        _stats(6259062, 1646, 492.8144643716693, 1.251812426928977),
    ),
    subflow_labels=("client->server", "client->server"),
)


class TestMptcp:
    def test_olia_tracks_best_path(self, paths):
        """Fig. 12: coupled MPTCP at least matches the best single path.

        The design guarantee is a *lower* bound (Sec. VI-A); on paths
        with distinct bottlenecks coupled MPTCP may land somewhat above
        the best path — but always below the uncoupled aggregate, which
        the next test pins.
        """
        direct, overlay = paths
        singles = [run_single(p, seed=11).throughput_mbps for p in (direct, overlay)]
        best = max(singles)
        conn = MptcpConnection([direct, overlay], scheme=MptcpScheme.OLIA)
        got = conn.run(T0, 45.0, np.random.default_rng(12)).throughput_mbps
        assert got >= 0.6 * best
        assert got <= sum(singles) * 1.5  # far from unconstrained aggregation

    def test_cubic_aggregates(self, paths):
        """Fig. 13: uncoupled subflows sum their paths."""
        direct, overlay = paths
        coupled = MptcpConnection([direct, overlay], scheme=MptcpScheme.OLIA).run(
            T0, 45.0, np.random.default_rng(13)
        )
        uncoupled = MptcpConnection(
            [direct, overlay], scheme=MptcpScheme.UNCOUPLED_CUBIC
        ).run(T0, 45.0, np.random.default_rng(13))
        assert uncoupled.throughput_mbps > coupled.throughput_mbps

    def test_subflow_labels(self, paths):
        direct, overlay = paths
        res = MptcpConnection([direct, overlay]).run(T0, 5.0, np.random.default_rng(1))
        assert len(res.subflows) == 2
        assert res.subflow_labels[0] == "client->server"
        assert max(s.throughput_mbps for s in res.subflows) <= res.throughput_mbps + 1e-9

    def test_needs_paths(self):
        with pytest.raises(TransportError):
            MptcpConnection([])

    def test_failover_survives_direct_path_failure(self, paths, victim):
        """Sec. VI-A: if the default path fails, MPTCP keeps going."""
        direct, overlay = paths
        conn = MptcpConnection([direct, overlay], scheme=MptcpScheme.OLIA)
        baseline = conn.run(T0, 40.0, np.random.default_rng(7))
        failed = conn.run(T0, 40.0, np.random.default_rng(7), on_tick=fail_at(victim, 10.0))
        # Both runs exactly: any change to the fluid engine's arithmetic,
        # or to when it notices a link that on_tick failed, moves them.
        assert baseline == FAILOVER_BASELINE
        assert failed == FAILOVER_FAILED
        # The connection survived: the overlay subflow kept delivering.
        assert failed.subflows[1].throughput_mbps > 0.1
        # The direct subflow died mid-run: it moved fewer bytes than in
        # the identical run without the failure.
        assert failed.subflows[0].bytes_acked < baseline.subflows[0].bytes_acked
        # And the aggregate still delivered a useful fraction.
        assert failed.throughput_mbps > 0.25 * baseline.throughput_mbps


class TestHookPath:
    """``on_tick`` is the only way a link fails mid-run."""

    def test_acked_stops_on_the_tick_after_the_failure(self, paths, victim):
        direct, overlay = paths
        trace: list[tuple[bool, float, float]] = []
        fail = fail_at(victim, 2.0)

        def hook(sim, elapsed):
            fail(sim, elapsed)
            trace.append((victim.failed, sim.flows[0].bytes_acked, sim.flows[1].bytes_acked))

        sim = FluidSimulator(at_time=T0, rng=np.random.default_rng(3), on_tick=hook)
        sim.add_flow(direct, RenoCC())
        sim.add_flow(overlay, RenoCC())
        sim.run(4.0)
        first = next(i for i, (failed, _, _) in enumerate(trace) if failed)
        assert trace[first - 1][1] < trace[first][1]  # still delivering when failed
        # From the very next tick on, the direct flow delivers nothing ...
        assert all(acked == trace[first][1] for _, acked, _ in trace[first:])
        # ... while the overlay flow, which avoids the link, keeps going.
        assert trace[-1][2] > trace[first][2]
