"""E10–E11 — MPTCP path-selection validation (Sec. VI-B, Figs. 12, 13).

Nine virtual servers across USA, Europe and Asia; for each of the 15
worst direct paths, compare (i) single-path TCP on the direct path,
(ii) the max single-path throughput across the 7 overlay reflections,
(iii) the max split-overlay throughput, and (iv) MPTCP over all 8
paths — with OLIA (Fig. 12: MPTCP ≈ max observed overlay throughput)
and with uncoupled CUBIC (Fig. 13: MPTCP ≈ the 100 Mbps NIC limit).

Substitution note (documented in DESIGN.md): the paper's inter-DC
direct paths plainly crossed congested transit (5–40 Mbps singles), so
the nine servers here belong to three *regional* cloud deployments —
US, EU, Asia — whose mutual traffic rides the public Internet, while
intra-region traffic keeps the private-backbone benefit.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.cloud.provider import CloudProvider
from repro.errors import ExperimentError, check
from repro.net.path import RouterPath
from repro.net.topology import TopologyConfig, generate_topology
from repro.net.world import Internet
from repro.rand import RandomStreams, stable_index
from repro.transport.cc import CubicCC
from repro.transport.fluid import FluidSimulator
from repro.transport.mptcp import MptcpConnection, MptcpScheme
from repro.transport.split import SplitTcpChain
from repro.transport.tcp import TcpConnection
from repro.transport.throughput import TcpParams

#: Regional deployments of the nine-server testbed.
REGIONAL_DCS: dict[str, tuple[str, ...]] = {
    "us": ("washington_dc", "san_jose", "dallas", "seattle"),
    "eu": ("amsterdam", "london", "frankfurt"),
    "as": ("tokyo", "singapore"),
}

MEASURE_RWND = 8_388_608  # large enough not to cap 100 Mbps paths


@dataclass(frozen=True, slots=True)
class MptcpExpConfig:
    """Knobs for the MPTCP validation campaign."""

    seed: int = 7
    n_paths: int = 15
    iterations: int = 5
    interval_hours: float = 6.0
    duration_s: float = 30.0
    tick_s: float = 0.01
    scheme: MptcpScheme = MptcpScheme.OLIA
    overlay_node_count: int = 7  # paper: the other 7 of the 9 servers

    def __post_init__(self) -> None:
        error = ExperimentError
        check(self.n_paths, "n_paths", ge=1, error=error)
        check(self.iterations, "iterations", ge=1, error=error)
        check(self.interval_hours, "interval_hours", ge=0, error=error)
        check(self.duration_s, "duration_s", gt=0, error=error)
        check(self.tick_s, "tick_s", gt=0, error=error)
        check(self.overlay_node_count, "overlay_node_count", ge=1, error=error)

    @classmethod
    def small(cls, seed: int, scheme: MptcpScheme = MptcpScheme.OLIA) -> "MptcpExpConfig":
        """The short campaign below paper scale (``run fig12``/``fig13``, ``report --mptcp``)."""
        return cls(
            seed=seed, scheme=scheme, n_paths=4, iterations=2, duration_s=15.0, tick_s=0.02
        )


@dataclass
class PathComparison:
    """One path index's four bars (averaged over iterations)."""

    path_index: int
    site_a: str
    site_b: str
    direct_mbps: list[float] = field(default_factory=list)
    max_overlay_mbps: list[float] = field(default_factory=list)
    max_split_mbps: list[float] = field(default_factory=list)
    mptcp_mbps: list[float] = field(default_factory=list)

    def averages(self) -> tuple[float, float, float, float]:
        return (
            statistics.mean(self.direct_mbps),
            statistics.mean(self.max_overlay_mbps),
            statistics.mean(self.max_split_mbps),
            statistics.mean(self.mptcp_mbps),
        )

    @property
    def mptcp_vs_best_overlay(self) -> float:
        """MPTCP throughput over the best observed overlay throughput."""
        best = max(
            statistics.mean(self.max_overlay_mbps),
            statistics.mean(self.max_split_mbps),
        )
        return statistics.mean(self.mptcp_mbps) / best if best > 0 else 0.0


@dataclass
class MptcpExpResult:
    """Fig. 12 (OLIA) or Fig. 13 (Cubic), depending on the scheme."""

    config: MptcpExpConfig
    comparisons: list[PathComparison]

    def __post_init__(self) -> None:
        if not self.comparisons:
            raise ExperimentError("MPTCP experiment compared no paths")

    def median_mptcp_vs_best_overlay(self) -> float:
        return statistics.median(c.mptcp_vs_best_overlay for c in self.comparisons)

    def median_mptcp_mbps(self) -> float:
        return statistics.median(statistics.mean(c.mptcp_mbps) for c in self.comparisons)

    def fraction_mptcp_at_least_direct(self) -> float:
        """MPTCP's design guarantee: never worse than the direct path."""
        hits = sum(
            1
            for c in self.comparisons
            if statistics.mean(c.mptcp_mbps) >= 0.9 * statistics.mean(c.direct_mbps)
        )
        return hits / len(self.comparisons)

    def render(self) -> str:
        figure = "Fig. 12" if self.config.scheme is MptcpScheme.OLIA else "Fig. 13"
        rows = []
        for c in self.comparisons:
            direct, overlay, split, mptcp = c.averages()
            rows.append((c.path_index, direct, overlay, split, mptcp))
        return "\n\n".join(
            [
                f"{figure} — {len(self.comparisons)} worst direct paths, "
                f"{self.config.iterations} iterations, scheme={self.config.scheme.value}; "
                f"median MPTCP/best-overlay = {self.median_mptcp_vs_best_overlay():.2f}",
                format_table(
                    ["path", "direct TCP", "max overlay", "max split-overlay", "MPTCP"],
                    rows,
                ),
            ]
        )


# ----------------------------------------------------------------------
# world construction
# ----------------------------------------------------------------------


def build_mptcp_world(seed: int) -> tuple[Internet, list]:
    """The nine-server testbed: three regional clouds, one VM per DC."""
    streams = RandomStreams(seed=seed)
    topology = generate_topology(TopologyConfig(), streams)
    providers = {
        region: CloudProvider.deploy(
            topology, dcs, streams, name=f"softcloud-{region}"
        )
        for region, dcs in REGIONAL_DCS.items()
    }
    internet = Internet(topology, streams)
    servers = []
    for region, provider in providers.items():
        for dc in REGIONAL_DCS[region]:
            servers.append(provider.rent_vm(internet, dc))
    return internet, servers


# ----------------------------------------------------------------------
# measurement primitives (all fluid-mode, for comparability)
# ----------------------------------------------------------------------


def _fluid_single(
    internet: Internet, path: RouterPath, at_time: float, config: MptcpExpConfig, seed_key: str
) -> float:
    rng = internet.streams.spawn_generator("mptcp-exp", stable_index(seed_key))
    sim = FluidSimulator(at_time=at_time, rng=rng, tick_s=config.tick_s)
    flow = sim.add_flow(path, CubicCC(), rwnd_bytes=MEASURE_RWND)
    return sim.run(config.duration_s)[flow.flow_id].throughput_mbps


def _model_split(internet: Internet, leg1: RouterPath, leg2: RouterPath, at_time: float) -> float:
    chain = SplitTcpChain(segments=(leg1, leg2), params=TcpParams(rwnd_bytes=MEASURE_RWND))
    return chain.throughput_at(at_time)


def _fluid_split(
    internet: Internet,
    leg1: RouterPath,
    leg2: RouterPath,
    at_time: float,
    config: MptcpExpConfig,
    seed_key: str,
) -> float:
    """Split-TCP in fluid mode: each segment runs its own connection;
    the relay's steady rate is the min of the two, shaved by the proxy
    efficiency.  Segments run in separate simulators — they traverse
    the relay NIC in opposite (full-duplex) directions."""
    from repro.tunnel.node import SPLIT_EFFICIENCY

    rates = []
    for i, leg in enumerate((leg1, leg2)):
        rates.append(
            _fluid_single(internet, leg, at_time, config, f"{seed_key}/seg{i}")
        )
    return min(rates) * SPLIT_EFFICIENCY


def run_mptcp_experiment(config: MptcpExpConfig = MptcpExpConfig()) -> MptcpExpResult:
    """Run the full validation campaign."""
    internet, servers = build_mptcp_world(config.seed)
    names = [s.name for s in servers]
    at0 = 6.0 * 3_600.0

    # Rank ordered pairs by direct-path model throughput; keep the worst.
    scored = []
    for a in names:
        for b in names:
            if a == b:
                continue
            path = internet.resolve_path(a, b)
            mbps = TcpConnection(path, TcpParams(rwnd_bytes=MEASURE_RWND)).throughput_at(at0)
            scored.append((mbps, a, b))
    scored.sort(key=lambda item: (item[0], item[1], item[2]))
    selected = scored[: config.n_paths]
    if not selected:
        raise ExperimentError("no server pairs to compare")

    comparisons = []
    for index, (_mbps, a, b) in enumerate(selected, start=1):
        comparisons.append(PathComparison(path_index=index, site_a=a, site_b=b))

    for iteration in range(config.iterations):
        at_time = at0 + iteration * config.interval_hours * 3_600.0
        for comparison in comparisons:
            a, b = comparison.site_a, comparison.site_b
            overlays = [n for n in names if n not in (a, b)][: config.overlay_node_count]
            direct = internet.resolve_path(a, b)
            reflected = []
            for node in overlays:
                leg1 = internet.resolve_path(a, node)
                leg2 = internet.resolve_path(node, b)
                reflected.append((leg1, leg2, leg1.concatenate(leg2)))

            comparison.direct_mbps.append(
                _fluid_single(internet, direct, at_time, config, f"d/{a}/{b}/{iteration}")
            )
            comparison.max_overlay_mbps.append(
                max(
                    _fluid_single(
                        internet, cat, at_time, config, f"o/{a}/{b}/{node}/{iteration}"
                    )
                    for (_leg1, _leg2, cat), node in zip(reflected, overlays)
                )
            )
            # Fluid split is expensive; evaluate it on the two nodes the
            # (cheap) model ranks best and take the max.
            ranked_for_split = sorted(
                reflected,
                key=lambda legs: -_model_split(internet, legs[0], legs[1], at_time),
            )[:2]
            comparison.max_split_mbps.append(
                max(
                    _fluid_split(
                        internet, leg1, leg2, at_time, config, f"s/{a}/{b}/{i}/{iteration}"
                    )
                    for i, (leg1, leg2, _cat) in enumerate(ranked_for_split)
                )
            )
            mptcp = MptcpConnection(
                [direct] + [cat for (_l1, _l2, cat) in reflected],
                scheme=config.scheme,
                rwnd_bytes=MEASURE_RWND,
            )
            rng = internet.streams.spawn_generator(
                "mptcp-conn", stable_index(f"{a}/{b}/{iteration}")
            )
            comparison.mptcp_mbps.append(
                mptcp.run(at_time, config.duration_s, rng, tick_s=config.tick_s).throughput_mbps
            )
    return MptcpExpResult(config=config, comparisons=comparisons)
