"""Re-selection policies: which path(s) should carry traffic *now*.

A :class:`Policy` maps (health states, freshest probe results, current
active set) to a new active set.  Three concrete policies cover the
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

Two *load-aware* policies extend the set for population-scale demand
(:mod:`repro.demand`), where relays are shared and saturate:

* :class:`QpsWeightedPolicy` — QPS-weighted balancing: weight every
  usable relay by probe quality x remaining capacity (a
  :class:`LoadSignal` feeds utilization), so demand spreads instead of
  herding onto the single best relay.
* :class:`AnycastIngressPolicy` — anycast-style ingress assignment:
  nearest ingress by RTT, optionally spilling off relays above a
  utilization threshold.

Both expose the relay utilization they acted on through
:attr:`PolicyDecision.relay_load`, which the decision log renders.

Aggregate engines decide for many flows at once through
:meth:`Policy.batch`: one call maps a stack of relay-load vectors to a
stack of (flows x relays) split matrices instead of one
:meth:`Policy.decide` per flow and load reading.  The base class
builds the matrix from ``decide`` once, which is right for load-blind
policies; a policy that reads a :class:`LoadSignal` must override
``batch`` so every slice sees its own loads.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.control.health import PathHealth, STATE_RANK
from repro.control.probes import ProbeResult
from repro.errors import ControlError, check

#: The paper's C4.5 thresholds (Sec. V-B): RTT cut 10.5 %, loss cut 12.1 %.
C45_RTT_CUT = 0.105
C45_LOSS_CUT = 0.121

#: A bound batch decision: (loads x relays) utilization matrix ->
#: (loads x flows x relays) split matrices.  Load row ``e`` stands for
#: what the policy's :class:`LoadSignal` would report, per relay
#: column (sorted labels); in split slice ``e``, row ``r`` is flow
#: ``r``'s traffic split under those loads.  It sums to 1, or is all
#: zero when the flow has no usable relay.
SplitFn = Callable[[np.ndarray], np.ndarray]


def _left_sum(values) -> float:
    """Left-to-right float sum, the rounding of ``sum()`` before 3.12.

    Python 3.12 made ``sum()`` compensated; the batched splits add the
    same floats column by column, so scalar and batched decisions use
    this fold to stay bit-identical on every Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _left_sum_columns(matrix: np.ndarray) -> np.ndarray:
    """:func:`_left_sum` over the last axis, one column at a time."""
    total = np.zeros(matrix.shape[:-1])
    for column in range(matrix.shape[-1]):
        total += matrix[..., column]
    return total


def _clamp_loads(loads: np.ndarray, signal: "LoadSignal | None") -> np.ndarray:
    """The batched ``max(0.0, signal.relay_load(...))`` of ``_load_of``.

    ``np.where`` keeps Python ``max``'s answer for -0.0 and NaN (both
    read 0.0); a policy without a signal reads every relay as idle.
    """
    if signal is None:
        return np.zeros(loads.shape)
    return np.where(loads > 0.0, loads, 0.0)


@runtime_checkable
class FaultHistory(Protocol):
    """Anything that can count a path's recent failures.

    Satisfied by :class:`~repro.control.degradation.DegradationGuard`
    (observed failures) and :class:`~repro.faults.injector.
    PathFaultHistory` (scheduled down-windows).
    """

    def recent_failures(self, label: str, now: float) -> int:
        """Failures of ``label`` within the history window before ``now``."""
        ...


@runtime_checkable
class LoadSignal(Protocol):
    """Anything that can report a relay's current load.

    Load is offered-over-capacity utilization: 0 is idle, 1 is
    saturated, above 1 is over-subscribed.  Satisfied by
    :class:`~repro.demand.engine.RelayLoadTracker`; controllers without
    a load feed simply pass ``None`` to the load-aware policies, which
    then treat every relay as idle.
    """

    def relay_load(self, label: str, now: float) -> float:
        """Current utilization of relay ``label`` at time ``now``."""
        ...


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    """The active path set a policy wants, and why.

    ``relay_load`` exposes the per-relay utilization the policy saw
    when it decided (empty when the policy is not load-aware) — it
    flows into the decision log so "why did traffic move" is
    answerable under contention.  ``weights`` is the traffic split a
    balancing policy wants across ``active`` (empty = single-path
    semantics: all traffic on ``active[0]``); aggregate engines honour
    it, single-flow controllers just take the head of ``active``.
    """

    active: tuple[str, ...]
    reason: str
    relay_load: tuple[tuple[str, float], ...] = ()
    weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.active)) != len(self.active):
            raise ControlError(f"duplicate labels in active set {self.active}")
        weight_labels = [label for label, _ in self.weights]
        if len(set(weight_labels)) != len(weight_labels):
            raise ControlError(f"duplicate labels in weights {self.weights}")
        unknown = set(weight_labels) - set(self.active)
        if unknown:
            raise ControlError(f"weights for labels outside active set: {sorted(unknown)}")
        if self.weights:
            total = sum(w for _, w in self.weights)
            if total <= 0 or any(w < 0 for _, w in self.weights):
                raise ControlError(f"weights must be non-negative and sum > 0: {self.weights}")


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
        history: "FaultHistory | None" = None,
    ) -> PolicyDecision:
        """Choose the next active set given the freshest state.

        ``history`` (optional) answers ``recent_failures(label, now)``
        — how many times a candidate has recently failed.  Policies
        that ignore fault history simply leave it unused.
        """

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Bind the policy to many flows' static probes at once.

        Returns a :data:`SplitFn` over the ``sorted(health)`` relay
        columns; row ``r`` of a slice is the split of ``decide(now,
        health, probe_rows[r], current=())`` with the signal reading
        that slice's loads: its weights normalised to sum 1, or all
        traffic on ``active[0]`` when it has none.

        This base form calls ``decide`` once per row, here, and serves
        that matrix for every load row — exact for load-blind
        policies, whose answer cannot change while health and probes
        stand still.  Policies that read a :class:`LoadSignal`
        override it.
        """
        labels = sorted(health)
        column = {label: j for j, label in enumerate(labels)}
        matrix = np.zeros((len(probe_rows), len(labels)))
        for row, probes in enumerate(probe_rows):
            decision = self.decide(0.0, health, probes, current=())
            if decision.weights:
                split = decision.weights
                total = _left_sum(w for _, w in split)
            elif decision.active:
                split, total = ((decision.active[0], 1.0),), 1.0
            else:
                continue
            for label, weight in split:
                if label not in column:
                    raise ControlError(
                        f"{self.name} chose {label!r}, which is not a batch relay"
                    )
                matrix[row, column[label]] = weight / total
        return lambda loads: np.broadcast_to(matrix, (len(loads), *matrix.shape))

    @staticmethod
    def _score(label: str, probes: Mapping[str, ProbeResult]) -> float:
        """Throughput-first score of one path from its last probe."""
        probe = probes.get(label)
        if probe is None or not probe.ok:
            return -math.inf
        if probe.throughput_mbps is not None:
            return probe.throughput_mbps
        # RTT-only probing: prefer lower RTT.
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
        history: FaultHistory | None = None,
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
    Requires a ``history`` argument to :meth:`decide`; without one the
    policy behaves exactly as before.
    """

    name = "best-path"

    def __init__(
        self, switch_margin: float = 0.10, flap_margin_per_failure: float = 0.0
    ) -> None:
        self.switch_margin = check(switch_margin, "switch_margin", ge=0, error=ControlError)
        self.flap_margin_per_failure = check(
            flap_margin_per_failure, "flap_margin_per_failure", ge=0, error=ControlError
        )

    def _margin_for(
        self, label: str, now: float, history: FaultHistory | None
    ) -> float:
        """Relative improvement a challenger must clear to win the switch."""
        margin = self.switch_margin
        if history is not None and self.flap_margin_per_failure > 0.0:
            margin += self.flap_margin_per_failure * history.recent_failures(label, now)
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
        history: FaultHistory | None = None,
    ) -> PolicyDecision:
        """Pick the best-ranked usable path, holding below the margin.

        The switch margin grows with the candidate's recent failure
        count when ``history`` is supplied and flap penalties are on.
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
            margin = self._margin_for(best, now, history)
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
        history: FaultHistory | None = None,
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
        history: FaultHistory | None = None,
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


def _positive_score(label: str, probes: Mapping[str, ProbeResult]) -> float:
    """A strictly positive quality score for weighting.

    Throughput when the probe measured it; otherwise inverse RTT, so
    RTT-only probing still yields usable weights.  Unusable or missing
    probes score zero.
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


class QpsWeightedPolicy(Policy):
    """QPS-weighted balancing: spread traffic by quality x headroom.

    Every usable relay gets a weight proportional to its probe score
    discounted by its current load (``headroom = max(0, 1 - load) +
    smoothing``): a fast relay near saturation loses to a slightly
    slower idle one, so a population following this policy spreads
    instead of herding onto the single best relay.  ``active`` is
    ordered by weight, so single-path controllers that take
    ``active[0]`` get the load-discounted best relay; aggregate
    engines split traffic by :attr:`PolicyDecision.weights`.

    Without a ``load`` signal every relay reads as idle and the policy
    degrades to score-proportional balancing.
    """

    name = "qps-weighted"

    def __init__(
        self,
        load: LoadSignal | None = None,
        smoothing: float = 0.05,
        max_relays: int | None = None,
    ) -> None:
        if max_relays is not None:
            check(max_relays, "max_relays", ge=1, error=ControlError)
        self.load = load
        self.smoothing = check(smoothing, "smoothing", gt=0, error=ControlError)
        self.max_relays = max_relays

    def _load_of(self, label: str, now: float) -> float:
        if self.load is None:
            return 0.0
        return max(0.0, self.load.relay_load(label, now))

    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
        history: FaultHistory | None = None,
    ) -> PolicyDecision:
        """Weight every usable relay by probe score x load headroom."""
        loads = {
            label: self._load_of(label, now)
            for label in sorted(health)
            if self._usable(label, health)
        }
        weighted = []
        for label, load in loads.items():
            score = _positive_score(label, probes)
            if score <= 0.0:
                continue
            headroom = max(0.0, 1.0 - load) + self.smoothing
            weighted.append((label, score * headroom))
        if not weighted:
            return PolicyDecision(
                active=(),
                reason="no usable relay with probe data",
                relay_load=tuple(sorted(loads.items())),
            )
        weighted.sort(key=lambda item: (-item[1], item[0]))
        if self.max_relays is not None:
            weighted = weighted[: self.max_relays]
        total = _left_sum(w for _, w in weighted)
        active = tuple(label for label, _ in weighted)
        peak = max(loads[label] for label in active)
        return PolicyDecision(
            active=active,
            reason=(
                f"qps-weighted over {len(active)} relay(s), "
                f"peak load {peak:.2f}"
            ),
            relay_load=tuple(sorted((label, loads[label]) for label in active)),
            weights=tuple((label, w / total) for label, w in weighted),
        )

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Batched :meth:`decide`: one weight matrix per load row.

        Scores are static, so they are packed once.  Each call redoes
        ``decide``'s arithmetic over the relay axis in the same order —
        the (-weight, label) sort, this policy's normalisation, then
        the split's re-normalisation — so every row is bit-identical to
        the scalar path.
        """
        score = _probe_matrix(health, probe_rows, _positive_score, unusable=0.0)
        if not np.isfinite(score).all():
            raise ControlError("qps-weighted probe scores must be finite")
        candidate = score > 0.0

        def splits(loads: np.ndarray) -> np.ndarray:
            free = 1.0 - _clamp_loads(loads, self.load)
            headroom = np.where(free > 0.0, free, 0.0) + self.smoothing
            weight = score * headroom[:, None, :]
            # A stable sort of -weight over label-sorted columns is the
            # scalar (-weight, label) order; non-candidates go last.
            order = np.argsort(np.where(candidate, -weight, np.inf), axis=2, kind="stable")
            kept = np.take_along_axis(np.broadcast_to(candidate, order.shape), order, axis=2)
            if self.max_relays is not None:
                kept[..., self.max_relays :] = False
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


class AnycastIngressPolicy(Policy):
    """Anycast-style ingress assignment: nearest relay, spill when hot.

    Clients attach to the relay with the lowest *ingress* RTT (the
    client <-> relay leg, :attr:`ProbeResult.ingress_rtt_ms`; full-path
    RTT when the prober did not measure the leg), the way anycast
    routing would assign them — load-blind by default, which is
    exactly the failure mode the demand study measures.  With a
    ``load`` signal, an ingress at or above ``spill_threshold``
    utilization is skipped and traffic spills to the next-nearest cool
    relay; if every relay is hot the nearest one keeps the traffic
    (anycast cannot shed load it cannot see elsewhere).
    """

    name = "anycast"

    def __init__(
        self, load: LoadSignal | None = None, spill_threshold: float = 0.95
    ) -> None:
        self.load = load
        self.spill_threshold = check(
            spill_threshold, "spill_threshold", gt=0, error=ControlError
        )

    def _load_of(self, label: str, now: float) -> float:
        if self.load is None:
            return 0.0
        return max(0.0, self.load.relay_load(label, now))

    @staticmethod
    def _ingress_rtt(label: str, probes: Mapping[str, ProbeResult]) -> float:
        probe = probes.get(label)
        if probe is None or not probe.ok:
            return math.inf
        if probe.ingress_rtt_ms is not None:
            return probe.ingress_rtt_ms
        return probe.rtt_ms

    def decide(
        self,
        now: float,
        health: Mapping[str, PathHealth],
        probes: Mapping[str, ProbeResult],
        current: tuple[str, ...],
        history: FaultHistory | None = None,
    ) -> PolicyDecision:
        """Assign to the nearest usable ingress, spilling off hot ones."""
        ranked = sorted(
            (
                (self._ingress_rtt(label, probes), label)
                for label in health
                if self._usable(label, health)
            ),
            key=lambda item: (item[0], item[1]),
        )
        ranked = [(rtt, label) for rtt, label in ranked if math.isfinite(rtt)]
        if not ranked:
            return PolicyDecision(active=(), reason="no usable ingress")
        loads = {label: self._load_of(label, now) for _, label in ranked}
        nearest = ranked[0][1]
        chosen = next(
            (label for _, label in ranked if loads[label] < self.spill_threshold),
            nearest,
        )
        if chosen == nearest:
            reason = f"nearest ingress {nearest} ({ranked[0][0]:.1f} ms)"
        else:
            reason = (
                f"spill from {nearest} (load {loads[nearest]:.2f}) "
                f"to {chosen} (load {loads[chosen]:.2f})"
            )
        return PolicyDecision(
            active=(chosen,),
            reason=reason,
            relay_load=tuple(sorted(loads.items())),
        )

    def batch(
        self,
        health: Mapping[str, PathHealth],
        probe_rows: Sequence[Mapping[str, ProbeResult]],
    ) -> SplitFn:
        """Batched :meth:`decide`: every row's nearest cool ingress.

        The ingress order is static, so it is packed once (a stable
        sort over label-sorted columns is the scalar (RTT, label)
        order); each call only asks which relays sit at or above
        ``spill_threshold`` in each load row.
        """
        rtt = _probe_matrix(health, probe_rows, self._ingress_rtt, unusable=math.inf)
        rtt[~np.isfinite(rtt)] = math.inf
        order = np.argsort(rtt, axis=1, kind="stable")
        ranked = np.isfinite(np.take_along_axis(rtt, order, axis=1))
        routed = np.flatnonzero(ranked.any(axis=1))

        def splits(loads: np.ndarray) -> np.ndarray:
            cool = _clamp_loads(loads, self.load) < self.spill_threshold
            pick = ranked & cool[:, order]
            # First cool ranked ingress, else the nearest (position 0).
            position = np.where(pick.any(axis=2), pick.argmax(axis=2), 0)[:, routed]
            out = np.zeros((len(loads), *rtt.shape))
            slices = np.arange(len(loads))[:, None]
            out[slices, routed, order[routed, position]] = 1.0
            return out

        return splits
