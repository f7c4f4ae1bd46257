"""Batched policy decisions equal the scalar ones, float for float.

:meth:`Policy.batch` and the load-aware policies' ``batch`` replaced
the demand engine's per-pair loop of ``policy.decide`` plus a weight
normalisation.  A bound batch maps a stack of relay-load rows (one per
epoch) to a stack of split matrices.  Every row of every slice must
equal that loop's result for the same flow under that slice's loads,
compared with exact ``==``: the demand study's byte-identity rests on
it.  The load-aware policies' loop is frozen in
``tests/reference/policy_decide.py``; the load-blind ones still have
their ``decide``.

These are seeded tables; ``tests/test_twin_properties.py`` draws them.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from reference import policy_decide
from repro.control.health import HealthConfig, PathHealth, PathState
from repro.control.policy import (
    SPILL_THRESHOLD,
    AnycastIngressPolicy,
    BestPathPolicy,
    C45RulePolicy,
    MptcpSubflowPolicy,
    QpsWeightedPolicy,
    StaticPolicy,
)
from repro.control.probes import ProbeResult
from repro.errors import ControlError

#: Utilizations a relay reads: idle, negative zero, exactly the spill
#: threshold, saturated, over-subscribed, an unreachable relay, and
#: NaN — the engine's fictitious-play signal after two infinite
#: snapshots (``inf + (inf - inf) / k``).
LOADS = (0.0, -0.0, 0.3, SPILL_THRESHOLD, 1.0, 1.7, math.inf, math.nan)

#: Load rows per batched call: one per epoch of a multi-epoch batch.
EPOCHS = 6


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


def assert_slices_match(policy, scalar, health, rows, loads) -> None:
    """Every epoch slice of one batched call equals the scalar split.

    ``scalar(health, probes, relay_loads)`` is the reference split of
    one flow under one epoch's ``{label: load}``.
    """
    labels = sorted(health)
    stack = policy.batch(health, rows)(loads)
    assert stack.shape == (len(loads), len(rows), len(labels))
    for epoch, matrix in zip(loads.tolist(), stack):
        relay_loads = dict(zip(labels, epoch))
        for row, probes in enumerate(rows):
            expected = scalar(health, probes, relay_loads)
            got = {label: matrix[row, j] for j, label in enumerate(labels) if matrix[row, j] != 0.0}
            assert got == expected, f"row {row}: {probes}"


def random_loads(rng: random.Random, health, epochs: int = EPOCHS) -> np.ndarray:
    """An (epochs x relays) load matrix drawn from :data:`LOADS`."""
    return np.array([[rng.choice(LOADS) for _ in health] for _ in range(epochs)])


def decide_split(policy):
    """A load-blind policy's scalar split: its ``decide``, loads unread."""
    return lambda health, probes, relay_loads: policy_decide.split(
        policy.decide(0.0, health, probes, current=())
    )


SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
# Load rows per call: the default stack, and the one- and two-epoch
# batches whose slices must not see their neighbours.
@pytest.mark.parametrize("epochs", [None, 1, 2])
def test_qps_weighted_rows_equal_scalar(seed, epochs):
    rng, health, rows = random_table(seed)
    loads = random_loads(rng, health, epochs or EPOCHS)
    assert_slices_match(QpsWeightedPolicy(), policy_decide.qps_weighted, health, rows, loads)


@pytest.mark.parametrize("seed", SEEDS)
def test_anycast_rows_equal_scalar(seed):
    rng, health, rows = random_table(seed)
    loads = random_loads(rng, health)
    assert_slices_match(AnycastIngressPolicy(), policy_decide.anycast_ingress, health, rows, loads)


def idle(scalar):
    """A load-aware reference that reads every relay as idle."""
    return lambda health, probes, relay_loads: scalar(health, probes, {})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make_policy",
    [
        lambda: (QpsWeightedPolicy(), idle(policy_decide.qps_weighted)),
        lambda: (AnycastIngressPolicy(), idle(policy_decide.anycast_ingress)),
        lambda: (BestPathPolicy(), None),
        lambda: (C45RulePolicy(), None),
        lambda: (MptcpSubflowPolicy(), None),
    ],
    ids=["qps-no-load", "anycast-no-load", "best-path", "c45-rule", "mptcp"],
)
def test_load_blind_rows_equal_scalar(seed, make_policy):
    # A load-blind policy serves one split whatever each slice's loads
    # are.  The load-aware ones, fed idle relays (the engine's first
    # round), must split as their reference does with no load at all.
    rng, health, rows = random_table(seed)
    loads = random_loads(rng, health)
    policy, scalar = make_policy()
    if scalar is None:
        scalar = decide_split(policy)
    else:
        loads = np.zeros(loads.shape)
    assert_slices_match(policy, scalar, health, rows, loads)


def test_rows_without_usable_relay_are_zero_not_nan():
    health = {"a": PathHealth(label="a"), "b": PathHealth(label="b")}
    health["b"].state = PathState.FAILED
    rows = [{}, {"b": ProbeResult("b", 0.0, True, 10.0, 0.0, 5.0, 0)}]
    for policy in (QpsWeightedPolicy(), AnycastIngressPolicy()):
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
