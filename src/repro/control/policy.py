"""Re-selection policies: which path(s) should carry traffic *now*.

A :class:`Policy` maps (health states, freshest probe results, current
active set) to a new active set.  Four concrete policies cover the
paper's spectrum:

* :class:`StaticPolicy` — the no-control baseline: one pinned path,
  never re-selected (what a plain BGP user gets).
* :class:`BestPathPolicy` — classic probe-based overlay routing: run on
  the highest-throughput usable path, with a switch margin so small
  probe wiggles do not cause flapping.
* :class:`C45RulePolicy` — the paper's Sec. V-B decision rule: leave
  the direct path only when an overlay cuts RTT by >= 10.5 % *and*
  loss by >= 12.1 % (thresholds configurable; C4.5 re-extraction can
  feed them), or when the direct path has outright failed.
* :class:`MptcpSubflowPolicy` — Sec. VI: keep an MPTCP subflow on every
  usable candidate; health transitions add/prune subflows instead of
  switching a single path.

The failover and chaos studies replay them as four named
:data:`STRATEGIES`; :func:`policy_for` builds one.

Aggregate engines decide for many flows at once through a
:class:`BatchPolicy`'s ``batch``: one call maps a stack of relay-load
vectors to a stack of (flows x relays) split matrices.  The base
:meth:`Policy.batch` builds the matrix from ``decide`` once, which is
right for these load-blind policies.

Two *load-aware* policies serve population-scale demand
(:mod:`repro.demand`), where relays are shared and saturate.  They
have only ``batch``, since their split depends on each load row:

* :class:`QpsWeightedPolicy` — QPS-weighted balancing: weight every
  usable relay by probe quality x remaining capacity, so demand
  spreads instead of herding onto the single best relay.
* :class:`AnycastIngressPolicy` — anycast-style ingress assignment:
  nearest ingress by RTT, spilling off relays at or above
  :data:`SPILL_THRESHOLD` utilization.

Their per-pair scalar form is frozen in
``tests/reference/policy_decide.py``, which the batched splits must
match bit for bit.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.control.health import PathHealth, STATE_RANK
from repro.control.probes import ProbeResult
from repro.errors import ControlError, check

#: The paper's C4.5 thresholds (Sec. V-B): RTT cut 10.5 %, loss cut 12.1 %.
C45_RTT_CUT = 0.105
C45_LOSS_CUT = 0.121

#: Headroom every usable relay keeps in :class:`QpsWeightedPolicy`'s
#: weight, so a saturated relay still carries a little traffic.
SMOOTHING = 0.05

#: Utilization at or above which :class:`AnycastIngressPolicy` spills
#: traffic to the next-nearest ingress.
SPILL_THRESHOLD = 0.95

#: A bound batch decision: (loads x relays) utilization matrix ->
#: (loads x flows x relays) split matrices.  Load row ``e`` holds one
#: utilization per relay column (sorted labels): 0 is idle, 1 is
#: saturated, above 1 is over-subscribed.  In split slice ``e``, row
#: ``r`` is flow ``r``'s traffic split under those loads.  It sums to
#: 1, or is all zero when the flow has no usable relay.
SplitFn = Callable[[np.ndarray], np.ndarray]


def _left_sum_columns(matrix: np.ndarray) -> np.ndarray:
    """Left-to-right float sum over the last axis, one column at a time.

    That is the rounding ``sum()`` had before Python 3.12 made it
    compensated, and the committed study numbers were produced with it.
    """
    total = np.zeros(matrix.shape[:-1])
    for column in range(matrix.shape[-1]):
        total += matrix[..., column]
    return total


def _clamp_loads(loads: np.ndarray) -> np.ndarray:
    """Negative loads read as idle; ``np.where`` reads -0.0 and NaN as 0.0."""
    return np.where(loads > 0.0, loads, 0.0)


class FaultHistory(Protocol):
    """Anything that can count a path's recent failures.

    Satisfied by :class:`~repro.faults.injector.PathFaultHistory`
    (scheduled down-windows).
    """

    def recent_failures(self, label: str, now: float) -> int:
        """Failures of ``label`` within the history window before ``now``."""
        ...


class BatchPolicy(Protocol):
    """Anything that decides many flows' relay splits at once.

    Satisfied by every :class:`Policy` (through the base
    :meth:`Policy.batch`) and by the two load-aware policies.
    """

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Bind the policy to many flows' static probes at once."""
        ...


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    """The active path set a policy wants, and why.

    A single-flow controller puts all traffic on ``active[0]``.
    """

    active: tuple[str, ...]
    reason: str

    def __post_init__(self) -> None:
        if len(set(self.active)) != len(self.active):
            raise ControlError(f"duplicate labels in active set {self.active}")


class Policy(abc.ABC):
    """Base class for re-selection policies."""

    #: Short identifier used in decision logs and metrics labels.
    name: str = "policy"

    @abc.abstractmethod
    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
    ) -> PolicyDecision:
        """Choose the next active set given the freshest state."""

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Bind the policy to many flows' static probes at once.

        Returns a :data:`SplitFn` over the ``sorted(health)`` relay
        columns; row ``r`` of a slice puts all traffic on ``active[0]``
        of ``decide(0.0, health, probe_rows[r], current=())``, or none
        when that is empty.

        ``decide`` runs once per row, here, and that matrix serves every
        load row: these policies are load-blind, so their answer cannot
        change while health and probes stand still.
        """
        labels = sorted(health)
        column = {label: j for j, label in enumerate(labels)}
        matrix = np.zeros((len(probe_rows), len(labels)))
        for row, probes in enumerate(probe_rows):
            decision = self.decide(0.0, health, probes, current=())
            if not decision.active:
                continue
            label = decision.active[0]
            if label not in column:
                raise ControlError(f"{self.name} chose {label!r}, which is not a batch relay")
            matrix[row, column[label]] = 1.0
        return lambda loads: np.broadcast_to(matrix, (len(loads), *matrix.shape))

    @staticmethod
    def _score(label: str, probes: Mapping[str, ProbeResult]) -> float:
        """Throughput-first score of one path from its last probe."""
        probe = probes.get(label)
        if probe is None or not probe.ok:
            return -math.inf
        if probe.throughput_mbps is not None:
            return probe.throughput_mbps
        # No throughput reading: prefer lower RTT.
        return -probe.rtt_ms

    @staticmethod
    def _usable(label: str, health: Mapping[str, PathHealth]) -> bool:
        machine = health.get(label)
        return machine is None or machine.usable


class StaticPolicy(Policy):
    """Pin one path forever — the uncontrolled baseline."""

    name = "static"

    def __init__(self, label: str = "direct") -> None:
        self.label = label

    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
    ) -> PolicyDecision:
        """Always the pinned label, regardless of health or probes."""
        return PolicyDecision(active=(self.label,), reason=f"pinned to {self.label}")


class BestPathPolicy(Policy):
    """Probe-based best path with a hysteresis switch margin.

    Switch away from the current path only when it is no longer usable
    or a challenger beats it by more than ``switch_margin`` (relative).
    Healthier states win before throughput is compared, so a DEGRADED
    fast path does not outrank a HEALTHY slightly-slower one.

    ``flap_margin_per_failure`` (default 0: off) makes the margin
    fault-aware: a challenger that recently failed ``n`` times must
    clear ``switch_margin + n * flap_margin_per_failure`` instead —
    recently-flapping paths have to earn the switch with a bigger win.
    The failure count comes from ``history``; without one the margin
    stays ``switch_margin``.
    """

    name = "best-path"

    def __init__(
        self,
        switch_margin: float = 0.10,
        flap_margin_per_failure: float = 0.0,
        history: FaultHistory | None = None,
    ) -> None:
        self.switch_margin = check(switch_margin, "switch_margin", ge=0, error=ControlError)
        self.flap_margin_per_failure = check(
            flap_margin_per_failure, "flap_margin_per_failure", ge=0, error=ControlError
        )
        self.history = history

    def _margin_for(self, label: str, now: float) -> float:
        """Relative improvement a challenger must clear to win the switch."""
        margin = self.switch_margin
        if self.history is not None and self.flap_margin_per_failure > 0.0:
            margin += self.flap_margin_per_failure * self.history.recent_failures(label, now)
        return margin

    def _rank(
        self,
        label: str,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
    ) -> tuple[int, float]:
        machine = health.get(label)
        state_rank = STATE_RANK[machine.state] if machine is not None else 0
        return (state_rank, -self._score(label, probes))

    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
    ) -> PolicyDecision:
        """Pick the best-ranked usable path, holding below the margin.

        The switch margin grows with the candidate's recent failure
        count when the policy has a ``history`` and flap penalties are on.
        """
        candidates = sorted(
            (label for label in health if self._usable(label, health)),
            key=lambda label: (*self._rank(label, health, probes), label),
        )
        if not candidates:
            return PolicyDecision(active=(), reason="no usable path")
        best = candidates[0]
        incumbent = current[0] if current else None
        if (
            incumbent is not None
            and incumbent in health
            and self._usable(incumbent, health)
            and incumbent != best
        ):
            best_rank = self._rank(best, health, probes)
            cur_rank = self._rank(incumbent, health, probes)
            same_state = best_rank[0] == cur_rank[0]
            best_score = -best_rank[1]
            cur_score = -cur_rank[1]
            margin = self._margin_for(best, now)
            improvement_too_small = (
                cur_score > 0
                and best_score < cur_score * (1.0 + margin)
            )
            if same_state and improvement_too_small:
                return PolicyDecision(
                    active=(incumbent,),
                    reason=(
                        f"holding {incumbent}: {best} gain below "
                        f"{margin:.0%} margin"
                    ),
                )
        reason = (
            f"{best} is best usable path"
            if incumbent == best
            else f"switch to {best}: best usable path"
        )
        return PolicyDecision(active=(best,), reason=reason)


class C45RulePolicy(Policy):
    """The paper's threshold rule, applied continuously.

    Stay on the direct path by default.  Move to an overlay only when
    its probes show RTT cut >= ``rtt_cut`` *and* loss cut >=
    ``loss_cut`` relative to direct (or direct is FAILED, in which case
    the best usable overlay carries the traffic).  Return to direct as
    soon as the rule stops holding and direct is usable.
    """

    name = "c45-rule"

    def __init__(self, rtt_cut: float = C45_RTT_CUT, loss_cut: float = C45_LOSS_CUT) -> None:
        self.rtt_cut = check(rtt_cut, "rtt_cut", ge=0, lt=1, error=ControlError)
        self.loss_cut = check(loss_cut, "loss_cut", ge=0, lt=1, error=ControlError)

    def _rule_holds(self, direct: ProbeResult, overlay: ProbeResult) -> bool:
        if not (direct.ok and overlay.ok):
            return False
        if direct.rtt_ms <= 0 or direct.loss <= 0:
            # Nothing to cut: the paper's rule requires *both* reductions.
            return False
        rtt_reduction = 1.0 - overlay.rtt_ms / direct.rtt_ms
        loss_reduction = 1.0 - overlay.loss / direct.loss
        return rtt_reduction >= self.rtt_cut and loss_reduction >= self.loss_cut

    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
    ) -> PolicyDecision:
        """Apply the paper's Sec. III rule: overlay only on a double cut."""
        direct_probe = probes.get("direct")
        direct_usable = self._usable("direct", health) and "direct" in health
        overlays = [label for label in health if label != "direct"]

        if not direct_usable or (direct_probe is not None and not direct_probe.ok):
            fallback = sorted(
                (label for label in overlays if self._usable(label, health)),
                key=lambda label: (-self._score(label, probes), label),
            )
            if not fallback:
                return PolicyDecision(active=(), reason="direct failed, no usable overlay")
            return PolicyDecision(
                active=(fallback[0],),
                reason=f"direct failed: fallback to {fallback[0]}",
            )

        if direct_probe is None:
            return PolicyDecision(active=("direct",), reason="no probe data yet")

        qualifying = sorted(
            (
                label
                for label in overlays
                if self._usable(label, health)
                and label in probes
                and self._rule_holds(direct_probe, probes[label])
            ),
            key=lambda label: (-self._score(label, probes), label),
        )
        incumbent = current[0] if current else None
        if incumbent in qualifying:
            # Hysteresis: keep the overlay we are on while it qualifies.
            return PolicyDecision(
                active=(incumbent,), reason=f"{incumbent} still satisfies C4.5 rule"
            )
        if qualifying:
            chosen = qualifying[0]
            return PolicyDecision(
                active=(chosen,),
                reason=(
                    f"{chosen} cuts RTT >= {self.rtt_cut:.1%} and "
                    f"loss >= {self.loss_cut:.1%} vs direct"
                ),
            )
        return PolicyDecision(active=("direct",), reason="no overlay satisfies C4.5 rule")


class MptcpSubflowPolicy(Policy):
    """Maintain an MPTCP subflow on every usable candidate path.

    FAILED paths are pruned from the subflow set; recovered paths are
    re-added.  ``max_subflows`` caps the set (healthiest, then fastest,
    win), modelling hosts that bound per-connection subflow state.
    """

    name = "mptcp-subflows"

    def __init__(self, max_subflows: int | None = None) -> None:
        if max_subflows is not None:
            check(max_subflows, "max_subflows", ge=1, error=ControlError)
        self.max_subflows = max_subflows

    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
    ) -> PolicyDecision:
        """Spread over every usable path, best-ranked first."""
        usable = sorted(
            (label for label in health if self._usable(label, health)),
            key=lambda label: (
                STATE_RANK[health[label].state],
                -self._score(label, probes),
                label,
            ),
        )
        if self.max_subflows is not None:
            usable = usable[: self.max_subflows]
        active = tuple(sorted(usable))
        added = sorted(set(active) - set(current))
        pruned = sorted(set(current) - set(active))
        if not added and not pruned:
            reason = f"subflow set unchanged ({len(active)} subflows)"
        else:
            parts = []
            if added:
                parts.append(f"add {'+'.join(added)}")
            if pruned:
                parts.append(f"prune {'+'.join(pruned)}")
            reason = ", ".join(parts)
        return PolicyDecision(active=active, reason=reason)


#: The strategies the failover and chaos studies replay, in output
#: order.  Only ``static-direct`` runs without a probe scheduler.
STRATEGIES: tuple[str, ...] = (
    "static-direct",
    "controller-best",
    "controller-c45",
    "mptcp-subflows",
)


def policy_for(
    strategy: str, history: FaultHistory | None = None, flap_margin_per_failure: float = 0.0
) -> tuple[Policy, bool]:
    """The strategy's policy, and whether it needs a probe scheduler.

    Only ``controller-best`` reads ``history``: each recent failure it
    counts on a challenger widens the switch margin by
    ``flap_margin_per_failure``.
    """
    if strategy == "static-direct":
        return StaticPolicy("direct"), False
    if strategy == "controller-best":
        policy = BestPathPolicy(flap_margin_per_failure=flap_margin_per_failure, history=history)
        return policy, True
    if strategy == "controller-c45":
        return C45RulePolicy(), True
    if strategy == "mptcp-subflows":
        return MptcpSubflowPolicy(), True
    raise ControlError(f"unknown strategy {strategy!r}")


def _positive_score(label: str, probes: Mapping[str, ProbeResult]) -> float:
    """A strictly positive quality score for weighting.

    Throughput when the probe measured it; otherwise inverse RTT, so
    a probe without a throughput reading still yields a usable weight.
    Unusable or missing probes score zero.
    """
    probe = probes.get(label)
    if probe is None or not probe.ok:
        return 0.0
    if probe.throughput_mbps is not None and probe.throughput_mbps > 0:
        return probe.throughput_mbps
    if probe.rtt_ms > 0:
        return 1_000.0 / probe.rtt_ms
    return 0.0


def _probe_matrix(
    health: Mapping[str, PathHealth],
    probe_rows: Sequence[Mapping[str, ProbeResult]],
    value: Callable[[str, Mapping[str, ProbeResult]], float],
    unusable: float,
) -> np.ndarray:
    """(rows x ``sorted(health)``) array of ``value(label, probes)``.

    Relays that health rules out read ``unusable``, as if unprobed.
    """
    labels = sorted(health)
    return np.array(
        [
            [
                value(label, probes) if Policy._usable(label, health) else unusable
                for label in labels
            ]
            for probes in probe_rows
        ],
        dtype=float,
    ).reshape(len(probe_rows), len(labels))


class QpsWeightedPolicy:
    """QPS-weighted balancing: spread traffic by quality x headroom.

    Every usable relay gets a weight proportional to its probe score
    discounted by its current load (``headroom = max(0, 1 - load) +``
    :data:`SMOOTHING`): a fast relay near saturation loses to a slightly
    slower idle one, so a population following this policy spreads
    instead of herding onto the single best relay.  At zero load the
    split is proportional to the scores.
    """

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Bind to the flows' probes: one weight matrix per load row.

        Scores are static, so they are packed once.  Each call weighs
        the relays in (-weight, label) order, normalises the weights,
        then normalises the shares again.  Both folds run left to
        right, as the scalar reference does.
        """
        score = _probe_matrix(health, probe_rows, _positive_score, unusable=0.0)
        if not np.isfinite(score).all():
            raise ControlError("qps-weighted probe scores must be finite")
        candidate = score > 0.0

        def splits(loads: np.ndarray) -> np.ndarray:
            free = 1.0 - _clamp_loads(loads)
            headroom = np.where(free > 0.0, free, 0.0) + SMOOTHING
            weight = score * headroom[:, None, :]
            # A stable sort of -weight over label-sorted columns is the
            # scalar (-weight, label) order; non-candidates go last.
            order = np.argsort(np.where(candidate, -weight, np.inf), axis=2, kind="stable")
            kept = np.take_along_axis(np.broadcast_to(candidate, order.shape), order, axis=2)
            routed = kept.any(axis=2)[..., None]
            ranked = np.where(kept, np.take_along_axis(weight, order, axis=2), 0.0)
            share = np.divide(
                ranked, _left_sum_columns(ranked)[..., None],
                out=np.zeros_like(ranked), where=routed,
            )
            share = np.divide(
                share, _left_sum_columns(share)[..., None],
                out=np.zeros_like(share), where=routed,
            )
            out = np.zeros_like(share)
            np.put_along_axis(out, order, share, axis=2)
            return out

        return splits


class AnycastIngressPolicy:
    """Anycast-style ingress assignment: nearest relay, spill when hot.

    Clients attach to the relay with the lowest *ingress* RTT (the
    client <-> relay leg, :attr:`ProbeResult.ingress_rtt_ms`; full-path
    RTT when the prober did not measure the leg), the way anycast
    routing would assign them.  An ingress at or above
    :data:`SPILL_THRESHOLD` utilization is skipped and traffic spills
    to the next-nearest cool relay; if every relay is hot the nearest
    one keeps the traffic (anycast cannot shed load it cannot see
    elsewhere).
    """

    @staticmethod
    def _ingress_rtt(label: str, probes: Mapping[str, ProbeResult]) -> float:
        probe = probes.get(label)
        if probe is None or not probe.ok:
            return math.inf
        if probe.ingress_rtt_ms is not None:
            return probe.ingress_rtt_ms
        return probe.rtt_ms

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Bind to the flows' probes: every row's nearest cool ingress.

        The ingress order is static, so it is packed once (a stable
        sort over label-sorted columns is the (RTT, label) order); each
        call only asks which relays sit at or above
        :data:`SPILL_THRESHOLD` in each load row.
        """
        rtt = _probe_matrix(health, probe_rows, self._ingress_rtt, unusable=math.inf)
        rtt[~np.isfinite(rtt)] = math.inf
        order = np.argsort(rtt, axis=1, kind="stable")
        ranked = np.isfinite(np.take_along_axis(rtt, order, axis=1))
        routed = np.flatnonzero(ranked.any(axis=1))

        def splits(loads: np.ndarray) -> np.ndarray:
            cool = _clamp_loads(loads) < SPILL_THRESHOLD
            pick = ranked & cool[:, order]
            # First cool ranked ingress, else the nearest (position 0).
            position = np.where(pick.any(axis=2), pick.argmax(axis=2), 0)[:, routed]
            out = np.zeros((len(loads), *rtt.shape))
            slices = np.arange(len(loads))[:, None]
            out[slices, routed, order[routed, position]] = 1.0
            return out

        return splits
