"""Load-aware selection: qps-weighted and anycast ingress policies.

Both policies only decide in batches, so each case binds one flow's
probes and reads the split of one load row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.control.decisions import DecisionRecord
from repro.control.health import HealthConfig, PathHealth, PathState
from repro.control.policy import AnycastIngressPolicy, QpsWeightedPolicy
from repro.control.probes import ProbeResult


def probe(
    label: str, mbps: float, rtt: float = 100.0, ingress: float | None = None
) -> ProbeResult:
    return ProbeResult(
        label=label,
        at_time=0.0,
        ok=True,
        rtt_ms=rtt,
        loss=0.0,
        throughput_mbps=mbps,
        bytes_cost=0,
        ingress_rtt_ms=ingress,
    )


def health_for(*labels: str) -> dict[str, PathHealth]:
    return {label: PathHealth(label=label, config=HealthConfig()) for label in labels}


def split(policy, health, probes, loads: dict[str, float] | None = None) -> dict[str, float]:
    """One flow's split under one load row: ``{label: share}``, zeros left out."""
    labels = sorted(health)
    row = np.array([[(loads or {}).get(label, 0.0) for label in labels]])
    (matrix,) = policy.batch(health, [probes])(row)
    return {label: share for label, share in zip(labels, matrix[0].tolist()) if share != 0.0}


class TestDecisionRecordRendering:
    def test_no_load_no_bracket(self):
        record = DecisionRecord(
            at_time=10.0, policy="best-path", old_active=(), new_active=("a",),
            reason="test",
        )
        assert record.render() == "t=10.0 [best-path] (none) -> a (test)"


class TestQpsWeightedPolicy:
    def test_no_load_signal_ranks_by_score(self):
        # Idle relays split in proportion to their scores.
        shares = split(
            QpsWeightedPolicy(),
            health_for("a", "b"),
            {"a": probe("a", 10.0), "b": probe("b", 30.0)},
        )
        assert shares == pytest.approx({"a": 0.25, "b": 0.75})

    def test_hot_relay_loses_weight(self):
        shares = split(
            QpsWeightedPolicy(),
            health_for("fast", "slow"),
            {"fast": probe("fast", 30.0), "slow": probe("slow", 10.0)},
            loads={"fast": 1.0, "slow": 0.0},
        )
        # fast: 30 x 0.05 = 1.5; slow: 10 x 1.05 = 10.5.
        assert shares["slow"] > 0.8
        assert shares == pytest.approx({"fast": 1.5 / 12.0, "slow": 10.5 / 12.0})

    def test_failed_paths_excluded(self):
        health = health_for("a", "b")
        health["b"].state = PathState.FAILED
        shares = split(
            QpsWeightedPolicy(), health, {"a": probe("a", 10.0), "b": probe("b", 30.0)}
        )
        assert shares == {"a": 1.0}

    def test_no_usable_relay_returns_empty(self):
        assert split(QpsWeightedPolicy(), health_for("a"), {}) == {}


class TestAnycastIngressPolicy:
    PROBES = {
        "near": probe("near", 10.0, ingress=5.0),
        "far": probe("far", 30.0, ingress=50.0),
    }

    def test_nearest_ingress_wins_when_cool(self):
        shares = split(AnycastIngressPolicy(), health_for("near", "far"), self.PROBES)
        assert shares == {"near": 1.0}

    def test_hot_ingress_spills_to_next_nearest(self):
        shares = split(
            AnycastIngressPolicy(),
            health_for("near", "far"),
            self.PROBES,
            loads={"near": 0.99, "far": 0.1},
        )
        assert shares == {"far": 1.0}

    def test_every_ingress_hot_keeps_nearest(self):
        shares = split(
            AnycastIngressPolicy(),
            health_for("near", "far"),
            self.PROBES,
            loads={"near": 2.0, "far": 3.0},
        )
        assert shares == {"near": 1.0}

    def test_falls_back_to_path_rtt_without_ingress_probe(self):
        shares = split(
            AnycastIngressPolicy(),
            health_for("a", "b"),
            {"a": probe("a", 10.0, rtt=200.0), "b": probe("b", 10.0, rtt=50.0)},
        )
        assert shares == {"b": 1.0}

    def test_unprobed_paths_unusable(self):
        assert split(AnycastIngressPolicy(), health_for("a"), {}) == {}
        # "a" sorts first and has no probe, so it carries nothing.
        probes = {"b": probe("b", 10.0, ingress=50.0)}
        for policy in (AnycastIngressPolicy(), QpsWeightedPolicy()):
            assert split(policy, health_for("a", "b"), probes) == {"b": 1.0}

    def test_ingress_rtt_must_be_finite(self):
        bad = ProbeResult(
            label="a", at_time=0.0, ok=False, rtt_ms=math.inf, loss=1.0,
            throughput_mbps=None, bytes_cost=0,
        )
        assert split(AnycastIngressPolicy(), health_for("a"), {"a": bad}) == {}
