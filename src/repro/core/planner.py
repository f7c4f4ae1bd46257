"""Overlay placement planning (Sec. VII-A, implemented future work).

"Questions remain on how to select the overlay nodes to deploy" — the
paper defers them; this module answers with a greedy marginal-gain
planner: rent a probe VM in every candidate data center, measure each
candidate's split-overlay throughput for the workload's endpoint
pairs over a few time samples, then pick data centers one at a time,
each step adding the candidate with the largest marginal improvement
in the workload's mean best-overlay throughput.

Greedy is the natural choice here: the objective (mean over pairs of
the max over chosen nodes) is monotone submodular, so the greedy plan
is within (1 - 1/e) of optimal — and Table I showed the curve
flattens after two nodes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.provider import CloudProvider
from repro.core.pathset import PathSet, PathType
from repro.errors import ConfigError
from repro.net.world import Internet
from repro.tunnel.node import OverlayNode


@dataclass(frozen=True, slots=True)
class PlacementStep:
    """One greedy step: the DC picked and the objective after it."""

    dc_name: str
    objective_mbps: float
    marginal_gain_mbps: float


@dataclass(frozen=True)
class PlacementPlan:
    """The planner's output."""

    chosen: tuple[str, ...]
    steps: tuple[PlacementStep, ...]
    baseline_direct_mbps: float

    def improvement_factor(self) -> float:
        """Workload mean best-overlay over mean direct throughput."""
        if not self.steps:
            raise ConfigError("empty placement plan")
        return self.steps[-1].objective_mbps / self.baseline_direct_mbps

    def render(self) -> str:
        lines = [
            f"placement plan — direct baseline {self.baseline_direct_mbps:.2f} Mbps"
        ]
        for i, step in enumerate(self.steps, start=1):
            lines.append(
                f"  {i}. +{step.dc_name:<18s} objective {step.objective_mbps:7.2f} Mbps "
                f"(+{step.marginal_gain_mbps:.2f})"
            )
        lines.append(f"  improvement factor: {self.improvement_factor():.2f}x")
        return "\n".join(lines)


class PlacementPlanner:
    """Greedy data-center selection for a given workload."""

    def __init__(
        self,
        internet: Internet,
        provider: CloudProvider,
        candidate_dcs: list[str],
        pairs: list[tuple[str, str]],
        sample_times: list[float],
    ) -> None:
        if not candidate_dcs:
            raise ConfigError("no candidate data centers")
        if len(set(candidate_dcs)) != len(candidate_dcs):
            raise ConfigError(f"duplicate candidates in {candidate_dcs}")
        if not pairs:
            raise ConfigError("no workload pairs")
        if not sample_times:
            raise ConfigError("no sample times")
        self.internet = internet
        self.provider = provider
        self.candidate_dcs = list(candidate_dcs)
        self.pairs = list(pairs)
        self.sample_times = list(sample_times)
        self._samples: dict[str, list[list[float]]] | None = None
        self._direct: list[list[float]] | None = None

    # ------------------------------------------------------------------
    def _measure_candidates(self) -> None:
        """Probe every candidate once: split throughput per (pair, t)."""
        nodes: dict[str, OverlayNode] = {}
        for dc in self.candidate_dcs:
            server = self.provider.rent_vm(self.internet, dc, vm_name=f"probe-{dc}")
            nodes[dc] = OverlayNode(host=server.host)

        samples: dict[str, list[list[float]]] = {dc: [] for dc in self.candidate_dcs}
        direct: list[list[float]] = []
        for src, dst in self.pairs:
            pathset = PathSet.build(self.internet, src, dst, list(nodes.values()))
            direct.append(
                [pathset.rate(PathType.DIRECT, "direct", t) for t in self.sample_times]
            )
            per_node = {
                t: pathset.throughput(PathType.SPLIT_OVERLAY, t) for t in self.sample_times
            }
            for dc, node in nodes.items():
                samples[dc].append([per_node[t][node.name] for t in self.sample_times])
        self._samples = samples
        self._direct = direct

    def _objective(self, chosen: list[str]) -> float:
        """Workload mean of the per-(pair, t) best chosen-node rate."""
        assert self._samples is not None
        total = 0.0
        count = 0
        for pair_index in range(len(self.pairs)):
            for t_index in range(len(self.sample_times)):
                best = max(
                    self._samples[dc][pair_index][t_index] for dc in chosen
                )
                total += best
                count += 1
        return total / count

    # ------------------------------------------------------------------
    def plan(self, budget: int) -> PlacementPlan:
        """Pick up to ``budget`` data centers greedily."""
        if not 1 <= budget <= len(self.candidate_dcs):
            raise ConfigError(
                f"budget must be in 1..{len(self.candidate_dcs)}, got {budget}"
            )
        if self._samples is None:
            self._measure_candidates()
        assert self._direct is not None

        baseline = sum(sum(row) for row in self._direct) / (
            len(self.pairs) * len(self.sample_times)
        )
        chosen: list[str] = []
        steps: list[PlacementStep] = []
        previous = 0.0
        remaining = list(self.candidate_dcs)
        for _ in range(budget):
            scored = sorted(
                ((self._objective(chosen + [dc]), dc) for dc in remaining),
                key=lambda item: (-item[0], item[1]),
            )
            objective, best_dc = scored[0]
            chosen.append(best_dc)
            remaining.remove(best_dc)
            steps.append(
                PlacementStep(
                    dc_name=best_dc,
                    objective_mbps=objective,
                    marginal_gain_mbps=objective - previous,
                )
            )
            previous = objective
        return PlacementPlan(
            chosen=tuple(chosen), steps=tuple(steps), baseline_direct_mbps=baseline
        )
