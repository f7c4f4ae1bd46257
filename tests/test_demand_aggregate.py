"""The aggregate epoch solver and the relay capacity model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.demand.aggregate import EpochAllocation, FlowClass, Resource, solve_epoch
from repro.demand.relay import RelayCapacity
from repro.errors import ConfigError


def cls(label: str, count: float, per_flow: float, *resources: int) -> FlowClass:
    return FlowClass(
        label=label, count=count, per_flow_mbps=per_flow, resources=tuple(resources)
    )


class TestValidation:
    def test_resource_needs_positive_capacity(self):
        with pytest.raises(ConfigError):
            Resource(label="r", capacity_mbps=0.0)

    def test_class_rejects_negative_count(self):
        with pytest.raises(ConfigError):
            cls("c", -1.0, 1.0)

    def test_solver_rejects_out_of_range_resource_index(self):
        with pytest.raises(ConfigError):
            solve_epoch([cls("c", 1.0, 1.0, 3)], [Resource("r", 10.0)])


class TestSolveEpoch:
    def test_under_capacity_everyone_gets_demand(self):
        allocation = solve_epoch(
            [cls("a", 100.0, 0.05, 0), cls("b", 50.0, 0.02, 0)],
            [Resource("r", 10.0)],
        )
        assert allocation.per_flow_mbps.tolist() == pytest.approx([0.05, 0.02])

    def test_single_bottleneck_scales_proportionally(self):
        allocation = solve_epoch(
            [cls("a", 300.0, 0.1, 0), cls("b", 100.0, 0.1, 0)],
            [Resource("r", 20.0)],
        )
        # 40 Mbps offered into 20: both classes halved.
        assert allocation.per_flow_mbps.tolist() == pytest.approx([0.05, 0.05], rel=1e-6)
        assert allocation.offered_mbps[0] / 20.0 == pytest.approx(2.0)

    def test_carried_never_exceeds_capacity(self):
        allocation = solve_epoch(
            [cls("a", 1_000.0, 0.5, 0, 1), cls("b", 2_000.0, 0.25, 1)],
            [Resource("r0", 100.0), Resource("r1", 200.0)],
        )
        a, b = allocation.per_flow_mbps
        assert 1_000 * a <= 100.0 + 1e-9
        assert 1_000 * a + 2_000 * b <= 200.0 + 1e-9

    def test_chained_bottleneck_binds_at_minimum(self):
        allocation = solve_epoch(
            [cls("a", 10.0, 10.0, 0, 1)],
            [Resource("wide", 1_000.0), Resource("narrow", 25.0)],
        )
        assert float(allocation.per_flow_mbps[0]) == pytest.approx(2.5, rel=1e-6)

    def test_unconstrained_class_passes_through(self):
        allocation = solve_epoch(
            [cls("free", 1_000_000.0, 0.01)], [Resource("r", 1.0)]
        )
        assert float(allocation.per_flow_mbps[0]) == pytest.approx(0.01)

    def test_deterministic(self):
        classes = [cls(f"c{i}", 10.0 * i + 1, 0.3, i % 2) for i in range(10)]
        resources = [Resource("r0", 7.0), Resource("r1", 5.0)]
        a = solve_epoch(classes, resources)
        b = solve_epoch(classes, resources)
        assert np.array_equal(a.per_flow_mbps, b.per_flow_mbps)
        assert np.array_equal(a.offered_mbps, b.offered_mbps)

    def test_millions_of_flows_without_per_flow_objects(self):
        allocation = solve_epoch(
            [cls("mega", 3_000_000.0, 0.02, 0)], [Resource("r", 1_000.0)]
        )
        assert allocation.offered_mbps[0] / 1_000.0 == pytest.approx(60.0)
        assert 3_000_000 * float(allocation.per_flow_mbps[0]) == pytest.approx(1_000.0, rel=1e-6)

    def test_empty_epoch(self):
        allocation = solve_epoch([], [])
        assert isinstance(allocation, EpochAllocation)
        assert allocation.per_flow_mbps.size == 0


class TestRelayCapacity:
    def test_nic_binds_when_cpu_is_plentiful(self):
        relay = RelayCapacity(label="r", nic_mbps=100.0, cpu_pps=1e9)
        assert relay.capacity_mbps(0.0) == pytest.approx(100.0)

    def test_cpu_binds_at_scale(self):
        relay = RelayCapacity(label="r", nic_mbps=10_000.0, cpu_pps=120_000.0)
        # 120k pps x 1460 B x 8 = ~1.4 Gbps, far below the 10G NIC.
        assert relay.capacity_mbps(0.0) == pytest.approx(1_401.6)

    def test_per_flow_upkeep_erodes_cpu(self):
        relay = RelayCapacity(
            label="r", nic_mbps=10_000.0, cpu_pps=120_000.0, per_flow_pps=0.05
        )
        idle = relay.capacity_mbps(0.0)
        loaded = relay.capacity_mbps(1_000_000.0)
        assert loaded < idle
        assert loaded == pytest.approx((120_000.0 - 50_000.0) * 1460 * 8 / 1e6)

    def test_capacity_floors_at_zero(self):
        relay = RelayCapacity(
            label="r", nic_mbps=10_000.0, cpu_pps=100.0, per_flow_pps=1.0
        )
        assert relay.capacity_mbps(1_000.0) == 0.0

    def test_negative_flows_rejected(self):
        with pytest.raises(ConfigError):
            RelayCapacity(label="r", nic_mbps=100.0).cpu_mbps(-1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            RelayCapacity(label="r", nic_mbps=0.0)
        with pytest.raises(ConfigError):
            RelayCapacity(label="r", nic_mbps=100.0, cpu_pps=0.0)
