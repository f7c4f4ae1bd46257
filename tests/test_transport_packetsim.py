"""Packet-level TCP simulator: validation of the faster engines.

The discrete-event engine is the ground truth of this repository: real
segments, real queues, real NewReno recovery.  These tests pin its
agreement with theory (and therefore with the model engine built on
that theory):

* a clean bottleneck is saturated,
* a window-limited flow does rwnd/RTT,
* a lossy path lands in the Mathis ballpark — sometimes below it,
  because NewReno *without SACK* genuinely degrades on multi-loss
  windows (Fall & Floyd 1996), which Mathis's idealized recovery
  ignores,
* split-TCP beats end-to-end TCP on long lossy paths — the paper's
  core mechanism, revalidated packet by packet.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from reference.packetsim_scalar import PacketLevelTcp as ScalarTcp
from repro.errors import TransportError
from repro.transport.mathis import mathis_throughput_mbps
from repro.transport.packetsim import PacketLevelTcp, SimLink


def run(links, seed=1, duration=20.0, rwnd=8_388_608):
    tcp = PacketLevelTcp(links, np.random.default_rng(seed), rwnd_bytes=rwnd)
    return tcp.run(duration)


class TestSimLink:
    def test_service_time(self):
        link = SimLink(capacity_mbps=100.0, prop_delay_ms=1.0)
        assert link.service_time_s(1_250) == pytest.approx(1e-4)

    def test_validation(self):
        with pytest.raises(TransportError):
            SimLink(capacity_mbps=0.0, prop_delay_ms=1.0)
        with pytest.raises(TransportError):
            SimLink(capacity_mbps=10.0, prop_delay_ms=-1.0)
        with pytest.raises(TransportError):
            SimLink(capacity_mbps=10.0, prop_delay_ms=1.0, loss_prob=1.0)
        with pytest.raises(TransportError):
            SimLink(capacity_mbps=10.0, prop_delay_ms=1.0, queue_packets=0)


class TestAgainstTheory:
    def test_saturates_clean_bottleneck(self):
        links = [SimLink(100.0, 5.0), SimLink(10.0, 10.0), SimLink(100.0, 5.0)]
        stats = run(links, rwnd=4_194_304)
        assert stats.throughput_mbps == pytest.approx(10.0, rel=0.1)

    def test_rwnd_limit(self):
        # 256 KB window over 200 ms RTT -> ~10.5 Mbps.
        stats = run([SimLink(1_000.0, 100.0)], duration=30.0, rwnd=262_144)
        assert stats.throughput_mbps == pytest.approx(262_144 * 8 / 0.2 / 1e6, rel=0.1)

    def test_mathis_ballpark_on_lossy_path(self):
        links = [SimLink(1_000.0, 20.0, loss_prob=1e-3), SimLink(1_000.0, 20.0)]
        mathis = mathis_throughput_mbps(1_460, 80.0, 1e-3)
        values = [run(links, seed=s, duration=30.0).throughput_mbps for s in (2, 5, 13)]
        mean = statistics.mean(values)
        # Within Mathis's ballpark; the downside slack is NewReno's
        # real multi-loss recovery penalty (no SACK).
        assert 0.3 * mathis <= mean <= 1.3 * mathis

    def test_throughput_decreases_with_loss(self):
        clean = run([SimLink(1_000.0, 40.0)], duration=20.0).throughput_mbps
        lossy = run(
            [SimLink(1_000.0, 40.0, loss_prob=2e-3)], duration=20.0
        ).throughput_mbps
        assert lossy < clean

    def test_throughput_decreases_with_rtt(self):
        short = run([SimLink(1_000.0, 10.0, loss_prob=1e-3)], duration=20.0, seed=5)
        long = run([SimLink(1_000.0, 80.0, loss_prob=1e-3)], duration=20.0, seed=5)
        assert long.throughput_mbps < short.throughput_mbps

    def test_retransmission_rate_tracks_loss(self):
        stats = run(
            [SimLink(1_000.0, 20.0, loss_prob=1e-3), SimLink(1_000.0, 20.0)],
            seed=13,
            duration=30.0,
        )
        # Within an order of magnitude of the injected rate.
        assert 1e-4 <= stats.retransmission_rate <= 1e-1

    def test_rtt_report_includes_queueing(self):
        # Deep queue at a slow bottleneck: measured RTT >> propagation.
        links = [SimLink(10.0, 10.0, queue_packets=256)]
        stats = run(links, rwnd=4_194_304)
        assert stats.avg_rtt_ms > 2 * 10.0


class TestSplitAdvantage:
    def test_split_beats_end_to_end_on_long_lossy_path(self):
        """The paper's Eq. 1 mechanism, revalidated packet by packet."""
        half = lambda: SimLink(1_000.0, 40.0, loss_prob=5e-4)  # noqa: E731
        seeds = (3, 7, 11)
        e2e = statistics.mean(
            run([half(), half()], seed=s, duration=30.0).throughput_mbps for s in seeds
        )
        split = statistics.mean(
            min(
                run([half()], seed=s, duration=30.0).throughput_mbps,
                run([half()], seed=s + 100, duration=30.0).throughput_mbps,
            )
            for s in seeds
        )
        assert split > e2e * 1.3


class TestMechanics:
    def test_deterministic_given_seed(self):
        links = [SimLink(100.0, 10.0, loss_prob=1e-3)]
        a = run(links, seed=4)
        b = run(links, seed=4)
        assert a.throughput_mbps == b.throughput_mbps
        assert a.bytes_retransmitted == b.bytes_retransmitted

    def test_no_loss_means_no_retransmissions(self):
        stats = run([SimLink(100.0, 10.0)], rwnd=262_144)
        assert stats.bytes_retransmitted == 0

    def test_delivery_is_contiguous(self):
        links = [SimLink(100.0, 10.0, loss_prob=5e-3)]
        tcp = PacketLevelTcp(links, np.random.default_rng(6), rwnd_bytes=1_048_576)
        tcp.run(10.0)
        # Everything delivered was delivered in order.
        assert tcp.delivered_segments == tcp.expected_seq

    def test_validation(self):
        with pytest.raises(TransportError):
            PacketLevelTcp([], np.random.default_rng(0))
        with pytest.raises(TransportError):
            PacketLevelTcp(
                [SimLink(10.0, 1.0)], np.random.default_rng(0), mss_bytes=0
            )
        tcp = PacketLevelTcp([SimLink(10.0, 1.0)], np.random.default_rng(0))
        with pytest.raises(TransportError):
            tcp.run(0.0)


class TestBlockRandom:
    """Bit-identity of the block-buffered RNG planes (DESIGN.md §17)."""

    def test_block_random_matches_scalar_across_boundaries(self):
        from reference.packetsim_scalar import _BlockRandom

        block = _BlockRandom(np.random.default_rng(9))
        reference = np.random.default_rng(9)
        # 1,000 draws cross the 256-value block boundary three times.
        assert [block.random() for _ in range(1_000)] == [
            reference.random() for _ in range(1_000)
        ]

    def test_draw_plane_matches_scalar_across_boundaries(self):
        from repro.transport.packetsim import _DrawPlane

        plane = _DrawPlane(np.random.default_rng(11))
        reference = np.random.default_rng(11)
        # 20,000 draws cross the 8,192-value block boundary twice.
        assert [plane.random() for _ in range(20_000)] == [
            reference.random() for _ in range(20_000)
        ]


FASTPATH_CONFIGS = {
    "clean": [SimLink(100.0, 10.0)],
    "lossy": [SimLink(100.0, 10.0, loss_prob=5e-3)],
    "multihop": [SimLink(1_000.0, 3.0)] * 4
    + [SimLink(200.0, 8.0, loss_prob=1e-3)]
    + [SimLink(1_000.0, 5.0)] * 5,
    "shaped": [
        SimLink(20.0, 5.0, shaper_burst_packets=64, line_rate_mbps=1_000.0),
        SimLink(100.0, 20.0, loss_prob=2e-3),
    ],
    "gray": [
        SimLink(100.0, 15.0, loss_prob=1e-3, bulk_loss_prob=8e-3),
        SimLink(500.0, 30.0),
    ],
    "tiny-queue": [
        SimLink(50.0, 2.0, queue_packets=16),
        SimLink(50.0, 40.0, loss_prob=3e-3),
    ],
}


class TestFastpathIdentity:
    """The batched engine is byte-identical to the frozen scalar reference.

    Property-style: every link shape the engine models (clean, lossy,
    multihop, shaped, gray, queue-limited) across several seeds, with
    the full packet trace compared — not just the summary stats.
    """

    @pytest.mark.parametrize("name", sorted(FASTPATH_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_and_stats_identical(self, name, seed):
        links = FASTPATH_CONFIGS[name]
        results = {}
        for engine in (PacketLevelTcp, ScalarTcp):
            tcp = engine(links, np.random.default_rng(seed), rwnd_bytes=1_048_576)
            tcp.trace = []
            stats = tcp.run(5.0)
            results[engine] = (
                stats,
                tcp.trace,
                tcp.delivered_segments,
                tcp.retransmissions,
                tuple(tcp.rtt_samples),
            )
        assert results[PacketLevelTcp] == results[ScalarTcp]

    def test_bounded_flow_identical(self):
        results = []
        for engine in (PacketLevelTcp, ScalarTcp):
            tcp = engine(
                FASTPATH_CONFIGS["lossy"],
                np.random.default_rng(5),
                rwnd_bytes=262_144,
                limit_segments=2_000,
            )
            results.append(tcp.run(60.0))
            assert tcp.delivered_segments == 2_000
        assert results[0] == results[1]


class TestLongTransferBugfixes:
    """The three long-transfer correctness fixes (ISSUE 10 satellites)."""

    def test_bookkeeping_memory_is_o_window(self):
        # A multi-minute flow: ~190k delivered segments through a lossy
        # bottleneck.  Pre-fix, _send_times/_received/_retransmitted
        # grew one entry per segment; post-fix they stay O(window).
        links = [SimLink(25.0, 10.0, loss_prob=1e-3)]
        tcp = ScalarTcp(links, np.random.default_rng(3), rwnd_bytes=1_048_576)
        tcp.run(150.0)
        assert tcp.delivered_segments > 50_000
        bound = 4 * tcp.rwnd_segments + 4_096  # two-window margin + prune lag
        assert len(tcp._send_times) < bound
        assert len(tcp._received) < bound
        assert len(tcp._retransmitted) < bound
        assert len(tcp._epoch_retx) < bound

    def test_fastpath_rings_wrap_on_long_flows(self):
        # The ring buffers are fixed-size; a flow delivering many times
        # the ring size must wrap them without corrupting delivery.
        links = [SimLink(25.0, 2.0, loss_prob=1e-3)]
        tcp = PacketLevelTcp(links, np.random.default_rng(3), rwnd_bytes=65_536)
        tcp.run(60.0)
        ring = len(tcp._rcv_seq)
        assert tcp.delivered_segments > 4 * ring
        assert tcp.delivered_segments == tcp.expected_seq

    def test_shaped_burst_larger_than_queue_overflows(self):
        # Token-rich shaped hop, burst allowance far above the queue:
        # the transmitter drains at the line rate, so an instantaneous
        # window burst deeper than the queue tail-drops the excess.
        # Pre-fix, occupancy was counted at the (50x slower) shaped
        # service rate and the overflow passed silently.
        link = SimLink(
            20.0,
            5.0,
            queue_packets=8,
            shaper_burst_packets=256,
            line_rate_mbps=1_000.0,
        )
        tcp = PacketLevelTcp([link], np.random.default_rng(0), rwnd_bytes=1_048_576)
        tcp.run(2.0)
        assert tcp.retransmissions > 0  # the overflow is visible

    def test_shaped_token_limited_queue_keeps_full_depth(self):
        # Once token-limited, departures space at the shaped service
        # rate, so a full queue really holds queue_packets packets —
        # the sustained flow still saturates the shaped rate.
        link = SimLink(20.0, 5.0, shaper_burst_packets=64, line_rate_mbps=1_000.0)
        stats = run([link], seed=1, duration=30.0, rwnd=1_048_576)
        assert stats.throughput_mbps == pytest.approx(20.0, rel=0.1)

    def test_idle_before_horizon_reports_actual_duration(self):
        # A bounded transfer that finishes long before the horizon:
        # duration_s reflects the time the flow actually used, and the
        # throughput denominator agrees with it.
        links = [SimLink(100.0, 10.0)]
        tcp = PacketLevelTcp(
            links, np.random.default_rng(2), rwnd_bytes=262_144, limit_segments=500
        )
        stats = tcp.run(300.0)
        assert tcp.delivered_segments == 500
        assert stats.duration_s < 2.0  # ~0.6 MB at 100 Mbps: well under 2 s
        assert stats.throughput_mbps == pytest.approx(
            stats.bytes_acked * 8 / stats.duration_s / 1e6
        )

    def test_finished_flow_ignores_timers_past_the_horizon(self):
        # A bounded flow that finishes just before the horizon leaves a
        # stale retransmission-timer event past it.  That event is not
        # activity: the flow still reports the time it went idle.
        def duration_s(horizon):
            tcp = PacketLevelTcp(
                [SimLink(4.0, 0.0, queue_packets=4)],
                np.random.default_rng(0),
                rwnd_bytes=16_384,
                limit_segments=298,
            )
            return tcp.run(horizon).duration_s

        idle = duration_s(60.0)
        assert duration_s(idle + 0.01) == idle

    def test_greedy_flow_still_reports_the_horizon(self):
        stats = run([SimLink(100.0, 10.0)], duration=5.0)
        assert stats.duration_s == 5.0


class TestGrayHopAgreement:
    """Packet engine vs model engine on bulk-only gray loss."""

    def test_mathis_scaling_under_bulk_loss(self):
        # Quadrupling the bulk-only drop probability should halve
        # throughput (Mathis: rate ~ 1/sqrt(p)); the packet engine and
        # the analytic law must agree on both level and scaling.
        rates = {}
        for bulk in (1e-3, 4e-3):
            links = [SimLink(400.0, 40.0, loss_prob=0.0, bulk_loss_prob=bulk)]
            samples = [
                run(links, seed=seed, duration=30.0).throughput_mbps
                for seed in range(3)
            ]
            rates[bulk] = statistics.fmean(samples)
            expected = mathis_throughput_mbps(1_460, 80.0, bulk)
            assert 0.3 * expected < rates[bulk] < 1.3 * expected
        ratio = rates[1e-3] / rates[4e-3]
        assert 1.4 < ratio < 2.8  # ideal sqrt(4) = 2
