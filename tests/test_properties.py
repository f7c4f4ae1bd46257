"""Cross-cutting property-based tests on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.congestion import BackgroundLoad
from repro.net.links import Link, LinkClass
from repro.net.path import RouterPath
from repro.transport.cc import RenoCC
from repro.transport.fluid import FluidSimulator
from repro.transport.mathis import mathis_throughput_mbps
from repro.transport.throughput import TcpParams, steady_state_throughput_mbps


def make_link(link_id, a, b, capacity=100.0, delay=10.0, loss=0.0, util=0.0):
    return Link(
        link_id=link_id,
        router_a=a,
        router_b=b,
        capacity_mbps=capacity,
        prop_delay_ms=delay,
        base_loss=loss,
        link_class=LinkClass.ACCESS,
        load=BackgroundLoad(base_util=util, diurnal_amp=0.0, episode_rate_per_day=0.0),
    )


def make_path(links):
    ids = [links[0].router_a] + [l.router_b for l in links]
    return RouterPath(src_name="a", dst_name="b", router_ids=tuple(ids), links=tuple(links))


class TestPathMetricComposition:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),  # delay
                st.floats(min_value=0.0, max_value=0.01),  # loss
                # Below the queueing knee, so RTT is purely propagation.
                st.floats(min_value=0.0, max_value=0.55),  # util
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_composition_bounds(self, hop_specs):
        """RTT adds; loss composes sub-additively but super-max;
        available bandwidth is the min."""
        links = [
            make_link(i + 1, i + 1, i + 2, delay=d, loss=p, util=u)
            for i, (d, p, u) in enumerate(hop_specs)
        ]
        path = make_path(links)
        metrics = path.metrics(0.0)
        assert metrics.rtt_ms == pytest.approx(2 * sum(d for d, _p, _u in hop_specs))
        max_loss = max(p for _d, p, _u in hop_specs)
        sum_loss = sum(p for _d, p, _u in hop_specs)
        assert max_loss - 1e-12 <= metrics.loss <= sum_loss + 1e-12
        hops = path.hop_metrics(0.0)
        assert metrics.available_bw_mbps <= min(hops.available_bw_mbps) + 1e-9

    @given(st.floats(min_value=0.0, max_value=0.02))
    @settings(max_examples=30, deadline=None)
    def test_longer_path_never_faster(self, loss):
        """Adding a hop can only hurt steady-state throughput."""
        short = make_path([make_link(1, 1, 2, loss=loss)])
        long = make_path(
            [make_link(1, 1, 2, loss=loss), make_link(2, 2, 3, loss=loss)]
        )
        params = TcpParams()
        fast = steady_state_throughput_mbps(short.metrics(0.0), params)
        slow = steady_state_throughput_mbps(long.metrics(0.0), params)
        assert slow <= fast + 1e-9


class TestFluidConservation:
    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=10.0, max_value=200.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_flows_never_exceed_shared_capacity(self, n_flows, capacity, seed):
        """Conservation: goodput across flows <= bottleneck capacity."""
        link = make_link(1, 1, 2, capacity=capacity, delay=20.0)
        path = make_path([link])
        sim = FluidSimulator(at_time=0.0, rng=np.random.default_rng(seed), tick_s=0.01)
        flows = [
            sim.add_flow(path, RenoCC(), rwnd_bytes=8_388_608) for _ in range(n_flows)
        ]
        results = sim.run(10.0)
        total = sum(results[f.flow_id].throughput_mbps for f in flows)
        assert total <= capacity * 1.02  # small tick-quantization slack

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_goodput_positive_on_live_path(self, seed):
        path = make_path([make_link(1, 1, 2, loss=1e-4)])
        sim = FluidSimulator(at_time=0.0, rng=np.random.default_rng(seed), tick_s=0.01)
        flow = sim.add_flow(path, RenoCC())
        stats = sim.run(5.0)[flow.flow_id]
        assert stats.throughput_mbps > 0
        assert stats.bytes_acked > 0


class TestMathisScaling:
    @given(
        st.floats(min_value=1e-6, max_value=0.1),
        st.floats(min_value=2.0, max_value=16.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_quarter_loss_doubles_throughput(self, loss, factor):
        """BW ~ 1/sqrt(p): scaling p by k scales BW by 1/sqrt(k)."""
        base = mathis_throughput_mbps(1_460, 100.0, loss)
        scaled = mathis_throughput_mbps(1_460, 100.0, min(loss * factor, 0.99))
        if loss * factor <= 0.99:
            assert scaled == pytest.approx(base / factor**0.5, rel=1e-6)
