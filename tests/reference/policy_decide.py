"""The scalar load-aware decisions: a frozen, test-only reference.

:meth:`repro.control.policy.QpsWeightedPolicy.batch` and
:meth:`repro.control.policy.AnycastIngressPolicy.batch` decide for
every (epoch, pair) at once and must still compute exactly what these
per-pair decisions compute.  The two functions below are the policies'
former ``decide`` bodies, verbatim but for four things: the load of a
relay comes from a ``{label: utilization}`` dict (one epoch's row of the
engine's load matrix) instead of a load-signal object, the knobs are the
module constants they were fixed at, the reason strings are gone, and
each returns the split the demand engine's per-pair loop made of the
decision: weights normalised by their left-to-right sum, else all
traffic on the head of the active set, else nothing.

The twin property (``tests/test_twin_properties.py``) and the seeded
tables (``tests/test_policy_batch.py``) compare against it.

Do not optimise or refactor this module: it is the definition of the
batched policies' behaviour.  Only the probe readers and the health
test are shared with ``src/``.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.control.health import PathHealth
from repro.control.policy import (
    SMOOTHING,
    SPILL_THRESHOLD,
    AnycastIngressPolicy,
    Policy,
    PolicyDecision,
    _positive_score,
)
from repro.control.probes import ProbeResult


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


def _load_of(loads: Mapping[str, float], label: str) -> float:
    return max(0.0, loads.get(label, 0.0))


def split(decision: PolicyDecision) -> dict[str, float]:
    """A single-path decision's split: all traffic on ``active[0]``."""
    if decision.active:
        return {decision.active[0]: 1.0}
    return {}


def _weighted_split(weights) -> dict[str, float]:
    """The engine's re-normalisation of a balancing policy's weights."""
    total = _left_sum(w for _, w in weights)
    return {label: w / total for label, w in weights}


def qps_weighted(
    health: Mapping[str, PathHealth],
    probes: Mapping[str, ProbeResult],
    relay_loads: Mapping[str, float],
) -> dict[str, float]:
    """Weight every usable relay by probe score x load headroom."""
    loads = {
        label: _load_of(relay_loads, label)
        for label in sorted(health)
        if Policy._usable(label, health)
    }
    weighted = []
    for label, load in loads.items():
        score = _positive_score(label, probes)
        if score <= 0.0:
            continue
        headroom = max(0.0, 1.0 - load) + SMOOTHING
        weighted.append((label, score * headroom))
    if not weighted:
        return {}
    weighted.sort(key=lambda item: (-item[1], item[0]))
    total = _left_sum(w for _, w in weighted)
    return _weighted_split(tuple((label, w / total) for label, w in weighted))


def anycast_ingress(
    health: Mapping[str, PathHealth],
    probes: Mapping[str, ProbeResult],
    relay_loads: Mapping[str, float],
) -> dict[str, float]:
    """Assign to the nearest usable ingress, spilling off hot ones."""
    ranked = sorted(
        (
            (AnycastIngressPolicy._ingress_rtt(label, probes), label)
            for label in health
            if Policy._usable(label, health)
        ),
        key=lambda item: (item[0], item[1]),
    )
    ranked = [(rtt, label) for rtt, label in ranked if math.isfinite(rtt)]
    if not ranked:
        return {}
    loads = {label: _load_of(relay_loads, label) for _, label in ranked}
    nearest = ranked[0][1]
    chosen = next(
        (label for _, label in ranked if loads[label] < SPILL_THRESHOLD),
        nearest,
    )
    return {chosen: 1.0}
