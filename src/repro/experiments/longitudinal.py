"""E5–E6 — persistency of gains (Sec. IV, Figs. 6, 7, Table I).

Takes the 30 direct Internet paths with the highest split-overlay
improvements from the controlled campaign and samples each (direct
throughput + per-node split-overlay throughput) 50 times at 3-hour
intervals over a week.

Paper results to match in shape: ~90 % of the selected paths stay
improved over the whole week (mean ratio 8.39, median 7.58); 70 % of
paths need only 1–2 overlay nodes; Table I's improvement-vs-node-count
flattens after two nodes.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.tables import format_table
from repro.core.measure_plan import PathSetBatch
from repro.core.pathset import PathSet
from repro.core.placement import improvement_vs_node_count, min_nodes_for_max_throughput
from repro.errors import ExperimentError
from repro.experiments.controlled import ControlledCampaign
from repro.measure.runner import CampaignSummary, MeasurementCampaign

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.exec.runner import ExecRunner

#: Sec. IV: 50 samples at 3-hour intervals over a 7-day period.
SAMPLE_COUNT = 50
SAMPLE_INTERVAL_S = 3.0 * 3_600.0
TOP_PATH_COUNT = 30


@dataclass
class LongitudinalPath:
    """One tracked path: its samples over the measurement period."""

    path_index: int  # 1 = largest improvement in the controlled study
    src_name: str
    dst_name: str
    direct_samples: list[float]
    node_samples: dict[str, list[float]]  # split-overlay Mbps per node

    @property
    def direct_avg(self) -> float:
        return statistics.mean(self.direct_samples)

    @property
    def direct_std(self) -> float:
        return statistics.pstdev(self.direct_samples)

    def max_overlay_series(self) -> list[float]:
        """Per-instant max split-overlay throughput across nodes."""
        names = sorted(self.node_samples)
        return [
            max(self.node_samples[name][i] for name in names)
            for i in range(len(self.direct_samples))
        ]

    @property
    def max_overlay_avg(self) -> float:
        return statistics.mean(self.max_overlay_series())

    @property
    def max_overlay_std(self) -> float:
        return statistics.pstdev(self.max_overlay_series())

    @property
    def improvement_ratio(self) -> float:
        """Average max-overlay throughput over average direct."""
        return self.max_overlay_avg / self.direct_avg

    @property
    def min_nodes_required(self) -> int:
        """Fig. 7's per-path bar."""
        return min_nodes_for_max_throughput(self.node_samples)


@dataclass
class LongitudinalResult:
    """Figs. 6, 7 and Table I."""

    paths: list[LongitudinalPath]
    #: Ok/error tallies of the sampling campaign (flaky vantage
    #: points); rendered by ``repro report``'s measurement-health table.
    campaign_summary: CampaignSummary | None = None

    def __post_init__(self) -> None:
        if not self.paths:
            raise ExperimentError("longitudinal study tracked no paths")

    # ------------------------------------------------------- Fig. 6
    def fig6_rows(self) -> list[tuple[int, float, float, float, float]]:
        """(index, direct avg, direct std, max-overlay avg, std)."""
        return [
            (p.path_index, p.direct_avg, p.direct_std, p.max_overlay_avg, p.max_overlay_std)
            for p in self.paths
        ]

    def fraction_consistently_improved(self) -> float:
        """Paths whose average overlay beat the average direct."""
        return sum(1 for p in self.paths if p.improvement_ratio > 1.0) / len(self.paths)

    def improvement_stats(self) -> tuple[float, float]:
        """(mean, median) of improvement ratios among improved paths."""
        improved = [p.improvement_ratio for p in self.paths if p.improvement_ratio > 1.0]
        if not improved:
            raise ExperimentError("no path stayed improved over the period")
        return statistics.mean(improved), statistics.median(improved)

    # ------------------------------------------------------- Fig. 7
    def min_nodes_distribution(self) -> list[int]:
        """Fig. 7: minimum node count per path index."""
        return [p.min_nodes_required for p in self.paths]

    def fraction_needing_at_most(self, count: int) -> float:
        """E.g. the paper's '70 % need only one or two overlay nodes'."""
        dist = self.min_nodes_distribution()
        return sum(1 for n in dist if n <= count) / len(dist)

    # ------------------------------------------------------- Table I
    def table1(self) -> list[tuple[int, float, float]]:
        """(node count, mean, median of avg improvement factors)."""
        return improvement_vs_node_count(
            [p.node_samples for p in self.paths],
            [p.direct_avg for p in self.paths],
        )

    def render(self) -> str:
        mean_ratio, median_ratio = self.improvement_stats()
        parts = [
            f"Fig. 6 — {len(self.paths)} paths x {len(self.paths[0].direct_samples)} samples; "
            f"{self.fraction_consistently_improved():.0%} consistently improved "
            f"(mean ratio {mean_ratio:.2f}, median {median_ratio:.2f})",
            format_table(
                ["path", "direct avg", "direct std", "max split avg", "std"],
                self.fig6_rows(),
            ),
            "Fig. 7 — min overlay nodes per path: "
            + " ".join(str(n) for n in self.min_nodes_distribution())
            + f"  (<=2 nodes for {self.fraction_needing_at_most(2):.0%})",
            "Table I — overlay node count vs improvement factors",
            format_table(
                ["# nodes", "mean of avg improvement", "median of avg improvement"],
                self.table1(),
            ),
        ]
        return "\n\n".join(parts)


def _path_values(pathsets: list[PathSet]):
    """Tracked paths' per-instant measurement, all paths in one batch.

    Each path's value holds its direct throughput and every node's
    split-overlay throughput in one JSON-able dict, so one campaign task
    covers one path (the shardable unit of the week-long sweep).
    """
    batch = PathSetBatch(pathsets)

    def measure(at_time: float) -> list[dict]:
        return [
            {
                "direct": sample.direct.rate_mbps,
                "nodes": {name: leg.rate_mbps for name, leg in sample.split.items()},
            }
            for sample in batch.sample(at_time)
        ]

    return measure


def _path_task(pathset: PathSet):
    """One tracked path's measurement task (a batch of one)."""
    return lambda at_time: _path_values([pathset])(at_time)[0]


def run_longitudinal(
    campaign: ControlledCampaign,
    top_n: int = TOP_PATH_COUNT,
    samples: int = SAMPLE_COUNT,
    interval_s: float = SAMPLE_INTERVAL_S,
    runner: "ExecRunner | None" = None,
) -> LongitudinalResult:
    """Track the top-``top_n`` most-improved pairs over a week.

    The sweep runs as a :class:`~repro.measure.runner.MeasurementCampaign`
    (one task per tracked path), so flaky vantage points surface in
    :attr:`LongitudinalResult.campaign_summary`.  The campaign executes
    as seed-stable shards, in-process without ``runner`` and on the
    :mod:`repro.exec` worker pool with one — byte-identical at any
    worker count, resumable from the result cache.  Each shard's paths
    are measured together at each instant.
    """
    if top_n <= 0 or samples <= 0:
        raise ExperimentError(f"invalid plan: top_n={top_n} samples={samples}")
    ranked = sorted(
        zip(campaign.result.pairs, campaign.pathsets),
        key=lambda item: -item[0].split_ratio,
    )[:top_n]
    if not ranked:
        raise ExperimentError("controlled campaign has no pairs to rank")

    world = campaign.world
    paths: list[LongitudinalPath] = []
    pathsets: dict[str, PathSet] = {}
    for index, (_pair, pathset) in enumerate(ranked, start=1):
        paths.append(
            LongitudinalPath(
                path_index=index,
                src_name=pathset.src_name,
                dst_name=pathset.dst_name,
                direct_samples=[],
                node_samples={option.name: [] for option in pathset.options},
            )
        )
        pathsets[f"path-{index:03d}"] = pathset

    start = world.internet.now
    sampler = MeasurementCampaign(world.internet, interval_s=interval_s, iterations=samples)
    results = sampler.run(
        {task_id: _path_task(pathset) for task_id, pathset in pathsets.items()},
        runner,
        seed=world.seed,
        params={
            "experiment": "longitudinal",
            "scale": world.scale,
            "config": dataclasses.asdict(campaign.result.config),
            "top_n": top_n,
        },
        kind="longitudinal.samples",
        batch=lambda ids: _path_values([pathsets[task_id] for task_id in ids]),
    )
    for record, (index, _item) in zip(paths, enumerate(ranked, start=1)):
        for sample in results[f"path-{index:03d}"]:
            if not sample.ok:
                raise ExperimentError(
                    f"longitudinal sampling failed for path {index}: {sample.error}"
                )
            record.direct_samples.append(sample.value["direct"])
            for name, value in sample.value["nodes"].items():
                record.node_samples[name].append(value)
    world.internet.set_time(start + samples * interval_s)
    return LongitudinalResult(paths=paths, campaign_summary=sampler.summary)
