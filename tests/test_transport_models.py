"""Mathis model, steady-state throughput, TcpConnection, SplitTcpChain."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import TransportError
from repro.net.path import PathMetrics
from repro.transport import (
    MATHIS_CONSTANT,
    SplitTcpChain,
    TcpConnection,
    TcpParams,
    mathis_throughput_mbps,
    steady_state_throughput_mbps,
)
from repro.transport.throughput import MIN_THROUGHPUT_MBPS, FlowStats


class TestMathis:
    def test_reference_value(self):
        # MSS 1460 B, RTT 100 ms, p = 1e-4: (1460*8/0.1s)*sqrt(1.5)/0.01
        expected = 1460 * 8 / 0.1 * MATHIS_CONSTANT / math.sqrt(1e-4) / 1e6
        assert mathis_throughput_mbps(1460, 100.0, 1e-4) == pytest.approx(expected)

    def test_zero_loss_diverges(self):
        assert mathis_throughput_mbps(1460, 100.0, 0.0) == math.inf

    def test_halving_rtt_doubles_throughput(self):
        """The split-TCP lever (Sec. II, Eq. 1)."""
        full = mathis_throughput_mbps(1460, 200.0, 1e-3)
        half = mathis_throughput_mbps(1460, 100.0, 1e-3)
        assert half == pytest.approx(2 * full)

    def test_invalid_inputs(self):
        with pytest.raises(TransportError):
            mathis_throughput_mbps(0, 100.0, 0.1)
        with pytest.raises(TransportError):
            mathis_throughput_mbps(1460, 0.0, 0.1)
        with pytest.raises(TransportError):
            mathis_throughput_mbps(1460, 100.0, 1.5)

    @given(
        st.floats(min_value=1.0, max_value=1_000.0),
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_monotone_decreasing_in_loss(self, rtt, p1, p2):
        lo, hi = sorted((p1, p2))
        assert mathis_throughput_mbps(1460, rtt, lo) >= mathis_throughput_mbps(1460, rtt, hi)

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_monotone_decreasing_in_rtt(self, r1, r2, p):
        lo, hi = sorted((r1, r2))
        assert mathis_throughput_mbps(1460, lo, p) >= mathis_throughput_mbps(1460, hi, p)


def metrics(rtt=100.0, loss=1e-4, avail=1_000.0, cap=1_000.0):
    return PathMetrics(rtt_ms=rtt, loss=loss, available_bw_mbps=avail, capacity_mbps=cap)


class TestSteadyState:
    def test_loss_limited(self):
        m = metrics(loss=1e-2)
        got = steady_state_throughput_mbps(m, TcpParams(rwnd_bytes=64 * 1_048_576))
        assert got == pytest.approx(mathis_throughput_mbps(1460, 100.0, 1e-2), rel=1e-6)

    def test_rwnd_limited_on_clean_path(self):
        """Zero-loss, long-RTT paths hit the receive-window wall."""
        m = metrics(rtt=200.0, loss=0.0)
        params = TcpParams(rwnd_bytes=262_144)  # 256 KB
        got = steady_state_throughput_mbps(m, params)
        assert got == pytest.approx(262_144 * 8 / 0.2 / 1e6)  # ~10.5 Mbps

    def test_bandwidth_limited(self):
        m = metrics(rtt=10.0, loss=0.0, avail=50.0)
        got = steady_state_throughput_mbps(m, TcpParams(rwnd_bytes=64 * 1_048_576))
        assert got == pytest.approx(50.0)

    def test_efficiency_shaves(self):
        m = metrics(rtt=10.0, loss=0.0, avail=100.0)
        full = steady_state_throughput_mbps(m, TcpParams())
        shaved = steady_state_throughput_mbps(m, TcpParams(efficiency=0.9))
        assert shaved == pytest.approx(0.9 * full)

    def test_total_loss_is_zero_throughput(self):
        assert steady_state_throughput_mbps(metrics(loss=1.0), TcpParams()) == 0.0

    def test_floor(self):
        m = metrics(loss=0.9)
        assert steady_state_throughput_mbps(m, TcpParams()) >= MIN_THROUGHPUT_MBPS

    @given(
        st.floats(min_value=5.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=1.0, max_value=10_000.0),
    )
    def test_never_exceeds_available_bandwidth(self, rtt, loss, avail):
        m = metrics(rtt=rtt, loss=loss, avail=avail, cap=10_000.0)
        got = steady_state_throughput_mbps(m, TcpParams())
        assert got <= max(avail, MIN_THROUGHPUT_MBPS) + 1e-9


class TestTcpParams:
    def test_rejects_tiny_rwnd(self):
        with pytest.raises(TransportError):
            TcpParams(mss_bytes=1460, rwnd_bytes=100)

    def test_with_mss(self):
        p = TcpParams().with_mss(1436)
        assert p.mss_bytes == 1436
        assert p.rwnd_bytes == TcpParams().rwnd_bytes

    def test_with_efficiency(self):
        assert TcpParams(efficiency=0.95).efficiency == 0.95
        with pytest.raises(TransportError):
            TcpParams(efficiency=0.0)


class TestFlowStats:
    def test_retransmission_rate(self):
        stats = FlowStats(
            duration_s=30.0,
            bytes_acked=1_000_000,
            bytes_retransmitted=500,
            avg_rtt_ms=80.0,
            throughput_mbps=1.0,
        )
        assert stats.retransmission_rate == pytest.approx(5e-4)

    def test_zero_bytes_rate(self):
        stats = FlowStats(
            duration_s=1.0, bytes_acked=0, bytes_retransmitted=0, avg_rtt_ms=1.0,
            throughput_mbps=0.0,
        )
        assert stats.retransmission_rate == 0.0

    def test_validation(self):
        with pytest.raises(TransportError):
            FlowStats(
                duration_s=0.0, bytes_acked=0, bytes_retransmitted=0, avg_rtt_ms=1.0,
                throughput_mbps=0.0,
            )


class TestSplitTcpChain:
    def test_needs_two_segments(self, small_internet):
        leg = small_internet.resolve_path("client", "vm")
        with pytest.raises(TransportError):
            SplitTcpChain(segments=(leg,))

    def test_split_bounded_by_discrete(self, small_internet):
        leg1 = small_internet.resolve_path("client", "vm")
        leg2 = small_internet.resolve_path("vm", "server")
        chain = SplitTcpChain(segments=(leg1, leg2))
        t = 3_600.0
        assert chain.throughput_at(t) <= chain.discrete_bound_at(t)
        assert chain.throughput_at(t) == pytest.approx(
            chain.discrete_bound_at(t) * chain.proxy_efficiency
        )

    def test_split_beats_plain_tunnel_on_long_paths(self, small_internet):
        """The Mathis RTT lever: per-segment CC outperforms end-to-end."""
        leg1 = small_internet.resolve_path("client", "vm")
        leg2 = small_internet.resolve_path("vm", "server")
        overlay = leg1.concatenate(leg2)
        t = 3_600.0
        plain = TcpConnection(overlay).throughput_at(t)
        split = SplitTcpChain(segments=(leg1, leg2)).throughput_at(t)
        assert split > plain

    def test_multi_hop_chain(self, small_internet):
        """Sec. VII-B: more relays, more split points, more shave."""
        leg1 = small_internet.resolve_path("client", "vm")
        leg2 = small_internet.resolve_path("vm", "server")
        chain2 = SplitTcpChain(segments=(leg1, leg2))
        chain3 = SplitTcpChain(segments=(leg1, leg2, leg1))
        assert chain3.relay_count == 2
        assert chain3.proxy_efficiency**2 < chain2.proxy_efficiency
