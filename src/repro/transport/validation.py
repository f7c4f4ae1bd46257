"""Cross-engine validation: model vs fluid vs packet-level.

Three transport engines coexist in this library (closed-form model,
round-based fluid, discrete-event packet).  This module runs the same
canonical scenario through all three and reports their agreement — the
evidence that campaign results (model), MPTCP dynamics (fluid) and
micro-behaviour (packet) describe the same TCP.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.errors import TransportError, check
from repro.net.path import PathMetrics
from repro.transport.cc import RenoCC
from repro.transport.packetsim import PacketLevelTcp, SimLink
from repro.transport.throughput import TcpParams, steady_state_throughput_mbps


@dataclass(frozen=True, slots=True)
class Scenario:
    """A canonical single-path scenario all engines can represent."""

    name: str
    bottleneck_mbps: float
    one_way_delay_ms: float
    loss: float
    rwnd_bytes: int = 4_194_304

    def __post_init__(self) -> None:
        error = TransportError
        check(self.bottleneck_mbps, f"bottleneck_mbps of {self.name}", gt=0, error=error)
        check(self.one_way_delay_ms, f"one_way_delay_ms of {self.name}", ge=0, error=error)
        check(self.loss, f"loss of {self.name}", ge=0, lt=1, error=error)

    @property
    def rtt_ms(self) -> float:
        """Round-trip propagation time of the scenario's path."""
        return 2.0 * self.one_way_delay_ms


#: The validation matrix: clean, window-limited, lossy, long-lossy.
CANONICAL_SCENARIOS: tuple[Scenario, ...] = (
    Scenario("clean-bottleneck", 50.0, 20.0, 0.0),
    Scenario("window-limited", 1_000.0, 100.0, 0.0, rwnd_bytes=262_144),
    Scenario("lossy-short", 1_000.0, 20.0, 1e-3),
    Scenario("lossy-long", 1_000.0, 80.0, 5e-4),
)


@dataclass(frozen=True, slots=True)
class EngineComparison:
    """One scenario's throughput under each engine."""

    scenario: Scenario
    model_mbps: float
    fluid_mbps: float
    packet_mbps: float

    def max_disagreement(self) -> float:
        """Largest pairwise ratio between engines (1.0 = agreement)."""
        values = sorted([self.model_mbps, self.fluid_mbps, self.packet_mbps])
        if values[0] <= 0:
            raise TransportError(f"engine reported zero throughput on {self.scenario.name}")
        return values[-1] / values[0]


def model_throughput(scenario: Scenario) -> float:
    """The closed-form engine on this scenario."""
    metrics = PathMetrics(
        rtt_ms=scenario.rtt_ms,
        loss=scenario.loss,
        available_bw_mbps=scenario.bottleneck_mbps,
        capacity_mbps=scenario.bottleneck_mbps,
    )
    return steady_state_throughput_mbps(
        metrics, TcpParams(rwnd_bytes=scenario.rwnd_bytes)
    )


def fluid_throughput(scenario: Scenario, seed: int, duration_s: float = 60.0) -> float:
    """The fluid engine, via a minimal synthetic two-link path."""
    from repro.net.congestion import BackgroundLoad
    from repro.net.links import Link, LinkClass
    from repro.net.path import RouterPath
    from repro.transport.fluid import FluidSimulator

    link = Link(
        link_id=1,
        router_a=1,
        router_b=2,
        capacity_mbps=scenario.bottleneck_mbps,
        prop_delay_ms=scenario.one_way_delay_ms,
        base_loss=scenario.loss,
        link_class=LinkClass.ACCESS,
        load=BackgroundLoad(base_util=0.0, diurnal_amp=0.0, episode_rate_per_day=0.0),
    )
    path = RouterPath(src_name="a", dst_name="b", router_ids=(1, 2), links=(link,))
    sim = FluidSimulator(at_time=0.0, rng=np.random.default_rng(seed))
    flow = sim.add_flow(path, RenoCC(), rwnd_bytes=scenario.rwnd_bytes)
    return sim.run(duration_s)[flow.flow_id].throughput_mbps


def packet_throughput(scenario: Scenario, seed: int, duration_s: float = 30.0) -> float:
    """The packet-level engine on this scenario."""
    links = [
        SimLink(
            capacity_mbps=scenario.bottleneck_mbps,
            prop_delay_ms=scenario.one_way_delay_ms,
            loss_prob=scenario.loss,
        )
    ]
    tcp = PacketLevelTcp(
        links, np.random.default_rng(seed), rwnd_bytes=scenario.rwnd_bytes
    )
    return tcp.run(duration_s).throughput_mbps


def compare_engines(
    scenarios: tuple[Scenario, ...] = CANONICAL_SCENARIOS, seeds: tuple[int, ...] = (1, 2, 3)
) -> list[EngineComparison]:
    """Run every scenario through every engine (stochastic ones get
    the mean over ``seeds``)."""
    comparisons = []
    for scenario in scenarios:
        fluid = statistics.mean(fluid_throughput(scenario, s) for s in seeds)
        packet = statistics.mean(packet_throughput(scenario, s) for s in seeds)
        comparisons.append(
            EngineComparison(
                scenario=scenario,
                model_mbps=model_throughput(scenario),
                fluid_mbps=fluid,
                packet_mbps=packet,
            )
        )
    return comparisons


def render_comparison(comparisons: list[EngineComparison]) -> str:
    """Printable agreement table."""
    rows = [
        (
            c.scenario.name,
            c.model_mbps,
            c.fluid_mbps,
            c.packet_mbps,
            f"{c.max_disagreement():.2f}x",
        )
        for c in comparisons
    ]
    return format_table(
        ["scenario", "model", "fluid", "packet", "max disagreement"], rows
    )
