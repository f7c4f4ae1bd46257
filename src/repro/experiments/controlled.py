"""E2–E4 — the controlled-senders experiment (Sec. II-B / III-B).

The TCP senders are the cloud VMs themselves (PlanetLab nodes cap
daily outbound traffic — footnote 1), so the full toolchain applies:
iperf throughput, tstat retransmission rate and RTT, traceroute.

Reproduces:

* **Fig. 3** — improvement-ratio CDFs for plain overlay, split-overlay
  and the discrete-overlay bound, with cloud senders; plus the
  Internet-sender curves from E1 for the no-bias comparison.
* **Fig. 4** — retransmission-rate CDFs, direct vs best overlay
  (paper: medians 2.69e-4 vs 1.66e-5 — an order of magnitude).
* **Fig. 5** — CDF of min-overlay-RTT over direct-RTT (paper: overlay
  reduces RTT for 52 % of pairs; 68 % of >=100 ms pairs; 90 % of
  >=150 ms pairs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.improvement import ImprovementSummary, summarize_ratios
from repro.analysis.tables import format_series, format_table
from repro.core.measure_plan import FourWayMeasurement, measure_four_ways_batch
from repro.core.pathset import PathSet
from repro.errors import ExperimentError, check
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.shard import default_shard_count, partition_indices
from repro.exec.spec import TaskSpec
from repro.experiments.scenario import World, build_world
from repro.io import to_jsonable
from repro.planetlab.sites import CONTROLLED_DISTRIBUTION, scale_distribution
from repro.transport.throughput import FlowStats

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.exec.runner import ExecRunner

IPERF_DURATION_S = 30.0


@dataclass(frozen=True, slots=True)
class ControlledConfig:
    """Knobs for the controlled-senders campaign."""

    seed: int = 7
    scale: str = "paper"
    n_clients: int | None = None  # defaults: 50 at paper scale, 8 small
    at_hours: float = 6.0
    duration_s: float = IPERF_DURATION_S

    def __post_init__(self) -> None:
        if self.n_clients is not None:
            check(self.n_clients, "n_clients", ge=1, error=ExperimentError)
        check(self.at_hours, "at_hours", ge=0, error=ExperimentError)
        check(self.duration_s, "duration_s", gt=0, error=ExperimentError)

    def client_count(self) -> int:
        if self.n_clients is not None:
            return self.n_clients
        return 50 if self.scale == "paper" else 8


def observed_retransmission_rate(
    stats: FlowStats, rng: np.random.Generator, mss_bytes: int = 1_460
) -> float:
    """Finite-sample retransmission rate of one transfer.

    A 30-second transfer carries finitely many segments; on clean paths
    the *observed* count is often exactly zero even though the
    underlying rate is positive — which is how Fig. 4's CDF and
    Fig. 10's ``[0]`` loss bin get their mass at zero.
    """
    segments = max(int(stats.bytes_acked / mss_bytes), 1)
    expected_rate = stats.retransmission_rate
    observed = rng.binomial(segments, min(expected_rate, 1.0))
    return observed / segments


@dataclass
class ControlledPair:
    """One (sender VM, client) pair's four-way measurement + extras."""

    measurement: FourWayMeasurement
    direct_retx_observed: float
    best_overlay_retx_observed: float

    @property
    def overlay_ratio(self) -> float:
        return self.measurement.improvement_ratio(self.measurement.best_overlay_mbps())

    @property
    def split_ratio(self) -> float:
        return self.measurement.improvement_ratio(self.measurement.best_split_mbps())

    @property
    def discrete_ratio(self) -> float:
        return self.measurement.improvement_ratio(self.measurement.best_discrete_mbps())

    @property
    def rtt_ratio(self) -> float:
        """Min overlay-tunnel RTT over direct RTT (Fig. 5's x-axis)."""
        return self.measurement.min_overlay_rtt_ms() / self.measurement.direct.avg_rtt_ms


@dataclass
class ControlledResult:
    """Figs. 3, 4 and 5 in one result object."""

    config: ControlledConfig
    pairs: list[ControlledPair]
    overlay_summary: ImprovementSummary = field(init=False)
    split_summary: ImprovementSummary = field(init=False)
    discrete_summary: ImprovementSummary = field(init=False)

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ExperimentError("controlled experiment produced no pairs")
        self.overlay_summary = summarize_ratios([p.overlay_ratio for p in self.pairs])
        self.split_summary = summarize_ratios([p.split_ratio for p in self.pairs])
        self.discrete_summary = summarize_ratios([p.discrete_ratio for p in self.pairs])

    # ------------------------------------------------------- Fig. 3
    def ratio_cdfs(self) -> dict[str, EmpiricalCDF]:
        return {
            "overlay": EmpiricalCDF([p.overlay_ratio for p in self.pairs]),
            "split-overlay": EmpiricalCDF([p.split_ratio for p in self.pairs]),
            "discrete": EmpiricalCDF([p.discrete_ratio for p in self.pairs]),
        }

    # ------------------------------------------------------- Fig. 4
    def retransmission_cdfs(self) -> dict[str, EmpiricalCDF]:
        return {
            "direct": EmpiricalCDF([p.direct_retx_observed for p in self.pairs]),
            "overlay": EmpiricalCDF([p.best_overlay_retx_observed for p in self.pairs]),
        }

    def median_retransmission_rates(self) -> tuple[float, float]:
        """(direct, best-overlay) medians — the order-of-magnitude claim."""
        cdfs = self.retransmission_cdfs()
        return cdfs["direct"].median, cdfs["overlay"].median

    # ------------------------------------------------------- Fig. 5
    def rtt_ratio_cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF([p.rtt_ratio for p in self.pairs])

    def rtt_reduction_fractions(self) -> dict[str, float]:
        """Fraction of pairs whose RTT the overlay reduces, overall and
        for high-RTT direct paths (the paper's 52 % / 68 % / 90 %)."""
        all_pairs = self.pairs
        high100 = [p for p in all_pairs if p.measurement.direct.avg_rtt_ms >= 100.0]
        high150 = [p for p in all_pairs if p.measurement.direct.avg_rtt_ms >= 150.0]

        def frac_reduced(group: list[ControlledPair]) -> float:
            if not group:
                return float("nan")
            return sum(1 for p in group if p.rtt_ratio < 1.0) / len(group)

        return {
            "all": frac_reduced(all_pairs),
            "rtt>=100ms": frac_reduced(high100),
            "rtt>=150ms": frac_reduced(high150),
        }

    def render(self, series_points: int = 20) -> str:
        summaries = [
            ("overlay(Cloud Provider)", self.overlay_summary),
            ("split-overlay(Cloud Provider)", self.split_summary),
            ("discrete overlay(Cloud Provider)", self.discrete_summary),
        ]
        rows = [
            (
                name,
                s.fraction_improved,
                s.mean_factor_improved,
                s.median_factor_improved,
                s.fraction_at_least_25pct,
            )
            for name, s in summaries
        ]
        direct_med, overlay_med = self.median_retransmission_rates()
        rtt = self.rtt_reduction_fractions()
        parts = [
            f"Fig. 3 — {len(self.pairs)} pairs (cloud senders)",
            format_table(
                ["mode", "frac improved", "mean factor", "median factor", "frac >=1.25x"],
                rows,
            ),
        ]
        for name, cdf in self.ratio_cdfs().items():
            parts.append(format_series(f"fig3/{name}", cdf.series(series_points)))
        # A zero overlay median has no finite reduction factor.
        reduction = (
            f"reduction x{direct_med / overlay_med:.1f}"
            if overlay_med > 0
            else "overlay median 0"
        )
        parts.append(
            "Fig. 4 — median retransmission rate: "
            f"direct={direct_med:.3g} overlay={overlay_med:.3g} ({reduction})"
        )
        for name, cdf in self.retransmission_cdfs().items():
            parts.append(format_series(f"fig4/{name}", cdf.series(series_points)))
        parts.append(
            "Fig. 5 — fraction of pairs with RTT reduced: "
            f"all={rtt['all']:.0%} rtt>=100ms={rtt['rtt>=100ms']:.0%} "
            f"rtt>=150ms={rtt['rtt>=150ms']:.0%}"
        )
        parts.append(format_series("fig5/rtt-ratio", self.rtt_ratio_cdf().series(series_points)))
        return "\n\n".join(parts)


@dataclass
class ControlledCampaign:
    """The result plus the raw path sets (reused by E5–E9)."""

    result: ControlledResult
    pathsets: list[PathSet]
    world: World


def _build_pathsets(config: ControlledConfig, world: World) -> list[PathSet]:
    """Every (VM sender, client) pair's path set, in campaign order."""
    cronet = world.cronet()
    if len(cronet.nodes) < 2:
        raise ExperimentError("controlled experiment needs at least 2 overlay nodes")
    distribution = scale_distribution(CONTROLLED_DISTRIBUTION, config.client_count())
    from repro.planetlab.nodes import deploy_planetlab

    clients = deploy_planetlab(world.internet, distribution, world.streams, name_prefix="ctl")
    pathsets: list[PathSet] = []
    for client in clients.names():
        for sender_node in cronet.nodes:
            others = [node for node in cronet.nodes if node.name != sender_node.name]
            pathsets.append(
                PathSet.build(world.internet, sender_node.host.name, client, others)
            )
    return pathsets


def _flow_stats_from_payload(data: dict) -> FlowStats:
    """Rebuild a :class:`FlowStats` from its cached JSON form."""
    return FlowStats(
        duration_s=data["duration_s"],
        bytes_acked=data["bytes_acked"],
        bytes_retransmitted=data["bytes_retransmitted"],
        avg_rtt_ms=data["avg_rtt_ms"],
        throughput_mbps=data["throughput_mbps"],
    )


def _measurement_from_payload(data: dict) -> FourWayMeasurement:
    """Rebuild a :class:`FourWayMeasurement` from its cached JSON form."""
    return FourWayMeasurement(
        src_name=data["src_name"],
        dst_name=data["dst_name"],
        at_time=data["at_time"],
        direct=_flow_stats_from_payload(data["direct"]),
        overlay={
            name: _flow_stats_from_payload(stats)
            for name, stats in data["overlay"].items()
        },
        split_overlay={
            name: _flow_stats_from_payload(stats)
            for name, stats in data["split_overlay"].items()
        },
        discrete_mbps={name: float(v) for name, v in data["discrete_mbps"].items()},
    )


def run_controlled(
    config: ControlledConfig = ControlledConfig(),
    runner: "ExecRunner | None" = None,
    world: World | None = None,
) -> ControlledCampaign:
    """Measure every (VM sender, client) pair in all four modes.

    ``world`` lets the campaign share an already-built world with the
    other studies of the same ``(seed, scale)``; by default it builds
    its own.

    Pairs are partitioned into contiguous shards whose count depends
    only on the pair count — never on the worker count — so merged
    results are byte-identical in-process (``runner=None``) and at any
    parallelism, and cached shards survive ``--resume`` across
    worker-count changes.  A shard's pairs are measured together at
    each sample instant (:func:`measure_four_ways_batch`).

    RNG contract: each pair index spawns its own generator
    (``controlled-retx[i]``) and draws its overlay observations in
    sorted-tunnel order, then its direct observation — deterministic
    per pair, independent of shard layout.
    """
    if world is None:
        world = build_world(seed=config.seed, scale=config.scale)
    at_time = config.at_hours * 3_600.0
    pathsets = _build_pathsets(config, world)

    def shard_fn(span: range):
        def fn() -> list[dict]:
            rows: list[dict] = []
            measurements = measure_four_ways_batch(
                [pathsets[index] for index in span], at_time, config.duration_s
            )
            for index, measurement in zip(span, measurements):
                rng = world.streams.spawn_generator("controlled-retx", index)
                # Fig. 4 reports "the lowest TCP retransmission rates
                # across the four tunnels for each node pair".
                overlay_retx = min(
                    observed_retransmission_rate(stats, rng)
                    for _name, stats in sorted(measurement.overlay.items())
                )
                rows.append(
                    {
                        "measurement": to_jsonable(measurement),
                        "direct_retx": observed_retransmission_rate(
                            measurement.direct, rng
                        ),
                        "overlay_retx": overlay_retx,
                    }
                )
            return rows

        return fn

    shards = default_shard_count(len(pathsets))
    spans = partition_indices(len(pathsets), shards)
    spec_params = {
        "experiment": "controlled",
        "config": dataclasses.asdict(config),
        "world_seed": world.seed,
        "scale": world.scale,
        "pairs": len(pathsets),
    }
    tasks = [
        ExecTask(
            spec=TaskSpec(
                kind="controlled.pairs",
                seed=config.seed,
                shard_index=i,
                shard_count=shards,
                params=spec_params,
            ),
            fn=shard_fn(span),
        )
        for i, span in enumerate(spans)
    ]
    pairs = [
        ControlledPair(
            measurement=_measurement_from_payload(row["measurement"]),
            direct_retx_observed=row["direct_retx"],
            best_overlay_retx_observed=row["overlay_retx"],
        )
        for payload in run_tasks(tasks, runner, stage="controlled.pairs")
        for row in payload
    ]
    return ControlledCampaign(
        result=ControlledResult(config=config, pairs=pairs),
        pathsets=pathsets,
        world=world,
    )
