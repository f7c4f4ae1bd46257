"""Re-selection policies: static, best-path, C4.5 rule, MPTCP subflows."""

from __future__ import annotations

import math

import pytest

from repro.control.health import HealthConfig, PathHealth, PathState
from repro.control.policy import (
    BestPathPolicy,
    C45RulePolicy,
    MptcpSubflowPolicy,
    PolicyDecision,
    StaticPolicy,
)
from repro.control.probes import ProbeResult
from repro.errors import ControlError


def probe(label: str, rtt: float, loss: float, mbps: float | None, ok: bool = True):
    return ProbeResult(
        label=label,
        at_time=0.0,
        ok=ok,
        rtt_ms=rtt if ok else math.inf,
        loss=loss if ok else 1.0,
        throughput_mbps=mbps,
        bytes_cost=0,
    )


def health_for(labels: dict[str, PathState]) -> dict[str, PathHealth]:
    machines = {}
    for label, state in labels.items():
        machine = PathHealth(label=label, config=HealthConfig())
        machine.state = state
        machines[label] = machine
    return machines


class TestStaticPolicy:
    def test_never_moves(self):
        policy = StaticPolicy("direct")
        health = health_for({"direct": PathState.FAILED, "o1": PathState.HEALTHY})
        decision = policy.decide(0.0, health, {}, ("direct",))
        assert decision.active == ("direct",)


class TestBestPathPolicy:
    def test_picks_fastest_usable(self):
        policy = BestPathPolicy()
        health = health_for({"direct": PathState.HEALTHY, "o1": PathState.HEALTHY})
        probes = {
            "direct": probe("direct", 100.0, 0.001, 2.0),
            "o1": probe("o1", 80.0, 0.001, 5.0),
        }
        decision = policy.decide(0.0, health, probes, ())
        assert decision.active == ("o1",)

    def test_margin_holds_incumbent(self):
        policy = BestPathPolicy(switch_margin=0.10)
        health = health_for({"direct": PathState.HEALTHY, "o1": PathState.HEALTHY})
        probes = {
            "direct": probe("direct", 100.0, 0.001, 5.0),
            "o1": probe("o1", 80.0, 0.001, 5.2),  # +4%: below the margin
        }
        decision = policy.decide(0.0, health, probes, ("direct",))
        assert decision.active == ("direct",)
        assert "margin" in decision.reason

    def test_switches_past_margin(self):
        policy = BestPathPolicy(switch_margin=0.10)
        health = health_for({"direct": PathState.HEALTHY, "o1": PathState.HEALTHY})
        probes = {
            "direct": probe("direct", 100.0, 0.001, 5.0),
            "o1": probe("o1", 80.0, 0.001, 6.0),  # +20%
        }
        decision = policy.decide(0.0, health, probes, ("direct",))
        assert decision.active == ("o1",)

    def test_abandons_failed_incumbent(self):
        policy = BestPathPolicy()
        health = health_for({"direct": PathState.FAILED, "o1": PathState.HEALTHY})
        probes = {
            "direct": probe("direct", 0.0, 0.0, 0.0, ok=False),
            "o1": probe("o1", 80.0, 0.001, 1.0),
        }
        decision = policy.decide(0.0, health, probes, ("direct",))
        assert decision.active == ("o1",)

    def test_healthier_state_beats_throughput(self):
        policy = BestPathPolicy()
        health = health_for({"fast": PathState.DEGRADED, "slow": PathState.HEALTHY})
        probes = {
            "fast": probe("fast", 50.0, 0.05, 10.0),
            "slow": probe("slow", 100.0, 0.001, 3.0),
        }
        decision = policy.decide(0.0, health, probes, ())
        assert decision.active == ("slow",)

    def test_no_usable_path(self):
        policy = BestPathPolicy()
        health = health_for({"direct": PathState.FAILED})
        decision = policy.decide(0.0, health, {}, ("direct",))
        assert decision.active == ()

    def test_negative_margin_rejected(self):
        with pytest.raises(ControlError):
            BestPathPolicy(switch_margin=-0.1)


class TestC45RulePolicy:
    def _probes(self, overlay_rtt: float, overlay_loss: float):
        return {
            "direct": probe("direct", 200.0, 0.10, 2.0),
            "o1": probe("o1", overlay_rtt, overlay_loss, 4.0),
        }

    def _health(self):
        return health_for({"direct": PathState.HEALTHY, "o1": PathState.HEALTHY})

    def test_switches_when_both_cuts_met(self):
        policy = C45RulePolicy()  # 10.5% RTT cut, 12.1% loss cut
        probes = self._probes(overlay_rtt=160.0, overlay_loss=0.05)  # -20%, -50%
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("o1",)

    def test_stays_direct_when_rtt_cut_insufficient(self):
        policy = C45RulePolicy()
        probes = self._probes(overlay_rtt=190.0, overlay_loss=0.05)  # -5% RTT
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("direct",)

    def test_stays_direct_when_loss_cut_insufficient(self):
        policy = C45RulePolicy()
        probes = self._probes(overlay_rtt=100.0, overlay_loss=0.095)  # -5% loss
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("direct",)

    def test_keeps_qualifying_incumbent_overlay(self):
        policy = C45RulePolicy()
        probes = self._probes(overlay_rtt=160.0, overlay_loss=0.05)
        probes["o2"] = probe("o2", 100.0, 0.01, 9.0)  # better, also qualifies
        health = self._health()
        health["o2"] = PathHealth(label="o2", config=HealthConfig())
        decision = policy.decide(0.0, health, probes, ("o1",))
        assert decision.active == ("o1",)  # hysteresis: o1 still qualifies

    def test_falls_back_when_direct_fails(self):
        policy = C45RulePolicy()
        probes = {
            "direct": probe("direct", 0.0, 0.0, 0.0, ok=False),
            "o1": probe("o1", 100.0, 0.001, 4.0),
        }
        health = health_for({"direct": PathState.FAILED, "o1": PathState.HEALTHY})
        decision = policy.decide(0.0, health, probes, ("direct",))
        assert decision.active == ("o1",)

    def test_returns_to_direct_when_rule_stops_holding(self):
        policy = C45RulePolicy()
        probes = self._probes(overlay_rtt=195.0, overlay_loss=0.099)
        decision = policy.decide(0.0, self._health(), probes, ("o1",))
        assert decision.active == ("direct",)

    def test_zero_direct_loss_means_no_switch(self):
        policy = C45RulePolicy()
        probes = {
            "direct": probe("direct", 200.0, 0.0, 2.0),
            "o1": probe("o1", 100.0, 0.0, 4.0),
        }
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("direct",)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ControlError):
            C45RulePolicy(rtt_cut=1.5)


class TestMptcpSubflowPolicy:
    def test_all_usable_paths_active(self):
        policy = MptcpSubflowPolicy()
        health = health_for(
            {"direct": PathState.HEALTHY, "o1": PathState.HEALTHY, "o2": PathState.DEGRADED}
        )
        decision = policy.decide(0.0, health, {}, ())
        assert decision.active == ("direct", "o1", "o2")

    def test_failed_subflow_pruned_and_readded(self):
        policy = MptcpSubflowPolicy()
        health = health_for({"direct": PathState.FAILED, "o1": PathState.HEALTHY})
        decision = policy.decide(0.0, health, {}, ("direct", "o1"))
        assert decision.active == ("o1",)
        assert "prune direct" in decision.reason
        health["direct"].state = PathState.HEALTHY
        decision = policy.decide(1.0, health, {}, decision.active)
        assert decision.active == ("direct", "o1")
        assert "add direct" in decision.reason

    def test_max_subflows_keeps_best(self):
        policy = MptcpSubflowPolicy(max_subflows=2)
        health = health_for(
            {"a": PathState.HEALTHY, "b": PathState.HEALTHY, "c": PathState.HEALTHY}
        )
        probes = {
            "a": probe("a", 100.0, 0.001, 1.0),
            "b": probe("b", 100.0, 0.001, 5.0),
            "c": probe("c", 100.0, 0.001, 3.0),
        }
        decision = policy.decide(0.0, health, probes, ())
        assert decision.active == ("b", "c")

    def test_bad_cap_rejected(self):
        with pytest.raises(ControlError):
            MptcpSubflowPolicy(max_subflows=0)


class TestPolicyDecision:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ControlError):
            PolicyDecision(active=("a", "a"), reason="dup")


class FixedHistory:
    """FaultHistory stub: a fixed recent-failure count per label."""

    def __init__(self, counts: dict[str, int]) -> None:
        self.counts = counts

    def recent_failures(self, label: str, now: float) -> int:
        return self.counts.get(label, 0)


class TestFlapAwareMargin:
    def _probes(self, challenger_mbps: float):
        return {
            "direct": probe("direct", 100.0, 0.001, 5.0),
            "o1": probe("o1", 80.0, 0.001, challenger_mbps),
        }

    def _health(self):
        return health_for({"direct": PathState.HEALTHY, "o1": PathState.HEALTHY})

    def test_flapping_challenger_needs_bigger_win(self):
        history = FixedHistory({"o1": 2})  # margin: 10% + 2 * 10% = 30%
        policy = BestPathPolicy(
            switch_margin=0.10, flap_margin_per_failure=0.10, history=history
        )
        probes = self._probes(6.0)  # +20%: clears 10%, not 30%
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("direct",)
        assert "30%" in decision.reason

    def test_big_enough_win_still_switches(self):
        history = FixedHistory({"o1": 2})
        policy = BestPathPolicy(
            switch_margin=0.10, flap_margin_per_failure=0.10, history=history
        )
        probes = self._probes(7.0)  # +40%: clears even the 30% margin
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("o1",)

    def test_clean_history_means_base_margin(self):
        history = FixedHistory({})
        policy = BestPathPolicy(
            switch_margin=0.10, flap_margin_per_failure=0.10, history=history
        )
        probes = self._probes(6.0)  # +20% clears the base 10%
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("o1",)

    def test_no_history_behaves_as_before(self):
        policy = BestPathPolicy(switch_margin=0.10, flap_margin_per_failure=0.10)
        probes = self._probes(6.0)
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("o1",)

    def test_margin_off_by_default(self):
        history = FixedHistory({"o1": 50})
        policy = BestPathPolicy(switch_margin=0.10, history=history)
        probes = self._probes(6.0)
        decision = policy.decide(0.0, self._health(), probes, ("direct",))
        assert decision.active == ("o1",)  # history ignored unless enabled

    def test_negative_flap_margin_rejected(self):
        with pytest.raises(ControlError):
            BestPathPolicy(flap_margin_per_failure=-0.1)
