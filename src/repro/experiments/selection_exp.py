"""Extension — path-selection regret: probing vs MPTCP (Sec. VI).

The paper argues probing-based selection "introduces overhead" and
proposes MPTCP instead.  This experiment quantifies the trade across a
simulated day for a set of endpoint pairs:

* an **oracle** always uses the instantaneously best path,
* **probing(T)** re-probes every ``T`` hours and rides its last choice
  in between (regret grows with staleness; probes cost bytes),
* **mptcp** is modelled as the best path per instant minus the small
  coupled-CC tracking gap (its regret is the tracking gap; zero probe
  overhead).

Reported: average fraction of oracle throughput achieved and probe
overhead, per strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.pathset import PathSet, PathType
from repro.core.selection import ProbingSelector
from repro.errors import ExperimentError, check
from repro.experiments.scenario import build_world

#: The coupled-CC tracking efficiency observed in the Fig. 12 bench
#: (median MPTCP / best-overlay throughput).
MPTCP_TRACKING_EFFICIENCY = 0.9


@dataclass(frozen=True, slots=True)
class StrategyOutcome:
    """One strategy's day-long outcome across the workload."""

    name: str
    achieved_fraction: float  # of the oracle's throughput
    probe_overhead_mb: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.achieved_fraction <= 1.0 + 1e-9:
            raise ExperimentError(f"fraction out of range: {self.achieved_fraction}")


@dataclass
class SelectionResultSet:
    """All strategies, comparable."""

    outcomes: list[StrategyOutcome]

    def render(self) -> str:
        rows = [
            (o.name, f"{o.achieved_fraction:.1%}", o.probe_overhead_mb)
            for o in self.outcomes
        ]
        return "\n\n".join(
            [
                "path selection over one day — fraction of oracle throughput",
                format_table(["strategy", "achieved", "probe MB"], rows),
            ]
        )


def run_selection(
    seed: int = 7,
    scale: str = "small",
    n_pairs: int = 6,
    probe_intervals_h: tuple[float, ...] = (2.0, 8.0, 24.0),
    check_interval_h: float = 1.0,
) -> SelectionResultSet:
    """Replay a day of selection decisions for every strategy."""
    check(n_pairs, "n_pairs", ge=1, error=ExperimentError)
    check(check_interval_h, "check_interval_h", gt=0, error=ExperimentError)
    for interval_h in probe_intervals_h:
        check(interval_h, "probe_intervals_h entry", gt=0, error=ExperimentError)
    world = build_world(seed=seed, scale=scale)
    cronet = world.cronet()
    clients = world.client_names()
    servers = world.server_names
    pathsets: list[PathSet] = []
    for i in range(n_pairs):
        pathsets.append(cronet.path_set(servers[i % len(servers)], clients[i % len(clients)]))

    check_times = [
        h * 3_600.0 for h in _drange(0.0, 24.0, check_interval_h)
    ]

    def best_at(pathset: PathSet, t: float) -> float:
        direct = pathset.rate(PathType.DIRECT, "direct", t)
        _, overlay = pathset.best_overlay(PathType.SPLIT_OVERLAY, t)
        return max(direct, overlay)

    oracle_total = sum(best_at(ps, t) for ps in pathsets for t in check_times)
    if oracle_total <= 0:
        raise ExperimentError("oracle achieved nothing; world is broken")

    outcomes = [StrategyOutcome("oracle", 1.0, 0.0)]

    for interval_h in probe_intervals_h:
        achieved = 0.0
        overhead_bytes = 0
        for pathset in pathsets:
            selector = ProbingSelector(pathset)
            for t in check_times:
                hours = t / 3_600.0
                if hours % interval_h < check_interval_h / 2 or t == check_times[0]:
                    result = selector.probe(t)
                else:
                    result = selector.select(t)
                achieved += result.throughput_mbps
                overhead_bytes += result.probe_overhead_bytes
        outcomes.append(
            StrategyOutcome(
                name=f"probing({interval_h:g}h)",
                achieved_fraction=min(achieved / oracle_total, 1.0),
                probe_overhead_mb=overhead_bytes / 1e6,
            )
        )

    mptcp_total = sum(
        MPTCP_TRACKING_EFFICIENCY * best_at(ps, t) for ps in pathsets for t in check_times
    )
    outcomes.append(
        StrategyOutcome(
            name="mptcp",
            achieved_fraction=mptcp_total / oracle_total,
            probe_overhead_mb=0.0,
        )
    )
    return SelectionResultSet(outcomes=outcomes)


def _drange(start: float, stop: float, step: float) -> list[float]:
    """Inclusive-start float range (stop exclusive)."""
    values = []
    current = start
    while current < stop - 1e-9:
        values.append(current)
        current += step
    return values
