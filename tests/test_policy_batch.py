"""Batched policy decisions equal the scalar ones, float for float.

:meth:`Policy.batch` replaced the demand engine's per-pair loop of
``policy.decide`` plus a weight normalisation.  It maps a stack of
relay-load rows (one per epoch) to a stack of split matrices.  Every
row of every slice must equal that loop's result for the same flow
with the signal reading that slice's loads, compared with exact
``==``: the demand study's byte-identity rests on it.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.control.health import HealthConfig, PathHealth, PathState
from repro.control.policy import (
    AnycastIngressPolicy,
    BestPathPolicy,
    C45RulePolicy,
    MptcpSubflowPolicy,
    PolicyDecision,
    QpsWeightedPolicy,
    StaticPolicy,
)
from repro.control.probes import ProbeResult
from repro.errors import ControlError

SPILL = 0.95
#: Utilizations the load signal serves: idle, negative zero, exactly
#: the spill threshold, saturated, over-subscribed, an unreachable
#: relay, and NaN — the engine's fictitious-play signal after two
#: infinite snapshots (``inf + (inf - inf) / k``).
LOADS = (0.0, -0.0, 0.3, SPILL, 1.0, 1.7, math.inf, math.nan)

#: Load rows per batched call: one per epoch of a multi-epoch batch.
EPOCHS = 6


class FixedLoad:
    """A LoadSignal stub whose loads the test rewrites between rounds."""

    def __init__(self) -> None:
        self.loads: dict[str, float] = {}

    def relay_load(self, label: str, now: float) -> float:
        return self.loads.get(label, 0.0)


def reference_split(decision: PolicyDecision) -> dict[str, float]:
    """The demand engine's per-pair split before batching.

    Weights normalised by their left-to-right sum (what ``sum()``
    computes on Python <= 3.11, where the committed study numbers were
    produced), else all traffic on the head of the active set.
    """
    if decision.weights:
        total = 0
        for _, w in decision.weights:
            total += w
        return {label: w / total for label, w in decision.weights}
    if decision.active:
        return {decision.active[0]: 1.0}
    return {}


def random_probe(rng: random.Random, label: str) -> ProbeResult | None:
    """One probe drawn to collide: few distinct values, so ties abound."""
    kind = rng.choice(("missing", "failed", "ok", "ok", "ok", "ok"))
    if kind == "missing":
        return None
    if kind == "failed":
        return ProbeResult(
            label=label, at_time=0.0, ok=False, rtt_ms=math.inf, loss=1.0,
            throughput_mbps=None, bytes_cost=0,
        )
    return ProbeResult(
        label=label,
        at_time=0.0,
        ok=True,
        rtt_ms=rng.choice((0.0, 40.0, 40.0, 95.5, 120.0)),
        loss=0.0,
        throughput_mbps=rng.choice((None, 0.0, 3.3, 10.0, 10.0, 17.25)),
        bytes_cost=0,
        ingress_rtt_ms=rng.choice((None, 5.0, 5.0, 21.7)),
    )


def random_table(seed: int):
    """(health, probe rows): ragged relay sets, failed relays, dead rows."""
    rng = random.Random(seed)
    labels = [f"r{i}" for i in range(rng.randint(1, 5))]
    health = {label: PathHealth(label=label, config=HealthConfig()) for label in labels}
    for label in labels:
        if rng.random() < 0.15:
            health[label].state = PathState.FAILED
    rows = []
    for _ in range(40):
        if rng.random() < 0.1:
            rows.append({})  # no usable relay at all
            continue
        probes = {}
        for label in labels:
            result = random_probe(rng, label)
            if result is not None:
                probes[label] = result
        rows.append(probes)
    return rng, health, rows


def assert_rows_match(policy, health, rows, matrix, now: float) -> None:
    labels = sorted(health)
    assert matrix.shape == (len(rows), len(labels))
    for row, probes in enumerate(rows):
        expected = reference_split(policy.decide(now, health, probes, current=()))
        got = {label: matrix[row, j] for j, label in enumerate(labels) if matrix[row, j] != 0.0}
        assert got == expected, f"row {row}: {probes}"


def assert_slices_match(policy, signal, health, rows, rng) -> None:
    """Every epoch slice of one batched call equals scalar ``decide``.

    The load matrix is drawn per (epoch, relay); the scalar reference
    reads that epoch's row through ``signal``.
    """
    labels = sorted(health)
    loads = np.array([[rng.choice(LOADS) for _ in labels] for _ in range(EPOCHS)])
    stack = policy.batch(health, rows)(loads)
    assert stack.shape == (EPOCHS, len(rows), len(labels))
    for epoch, now in enumerate(np.arange(EPOCHS) * 3_600.0 + 1_800.0):
        if signal is not None:
            signal.loads = dict(zip(labels, loads[epoch].tolist()))
        assert_rows_match(policy, health, rows, stack[epoch], now)


SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("max_relays", [None, 1, 2])
def test_qps_weighted_rows_equal_scalar(seed, max_relays):
    rng, health, rows = random_table(seed)
    signal = FixedLoad()
    policy = QpsWeightedPolicy(load=signal, max_relays=max_relays)
    assert_slices_match(policy, signal, health, rows, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_anycast_rows_equal_scalar(seed):
    rng, health, rows = random_table(seed)
    signal = FixedLoad()
    policy = AnycastIngressPolicy(load=signal, spill_threshold=SPILL)
    assert_slices_match(policy, signal, health, rows, rng)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make_policy",
    [
        lambda: QpsWeightedPolicy(load=None),
        lambda: AnycastIngressPolicy(load=None),
        BestPathPolicy,
        C45RulePolicy,
        MptcpSubflowPolicy,
    ],
    ids=["qps-no-load", "anycast-no-load", "best-path", "c45-rule", "mptcp"],
)
def test_load_blind_rows_equal_scalar(seed, make_policy):
    # Loads vary per slice, but a policy without a signal ignores them.
    rng, health, rows = random_table(seed)
    assert_slices_match(make_policy(), None, health, rows, rng)


def test_rows_without_usable_relay_are_zero_not_nan():
    health = {"a": PathHealth(label="a"), "b": PathHealth(label="b")}
    health["b"].state = PathState.FAILED
    rows = [{}, {"b": ProbeResult("b", 0.0, True, 10.0, 0.0, 5.0, 0)}]
    for policy in (QpsWeightedPolicy(load=FixedLoad()), AnycastIngressPolicy()):
        stack = policy.batch(health, rows)(np.zeros((1, 2)))
        assert stack.tolist() == [[[0.0, 0.0], [0.0, 0.0]]]


def test_base_batch_rejects_labels_outside_the_columns():
    health = {"a": PathHealth(label="a")}
    with pytest.raises(ControlError):
        StaticPolicy("direct").batch(health, [{}])


def test_qps_batch_rejects_non_finite_scores():
    health = {"a": PathHealth(label="a")}
    row = {"a": ProbeResult("a", 0.0, True, 10.0, 0.0, math.inf, 0)}
    with pytest.raises(ControlError):
        QpsWeightedPolicy().batch(health, [row])
