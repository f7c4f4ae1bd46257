"""Hardened probing and degradation: timeouts, retries, staleness, quarantine."""

from __future__ import annotations

import math

import pytest

from repro.control.controller import OverlayController
from repro.control.degradation import DegradationConfig, DegradationGuard
from repro.control.health import HealthTransition, PathState
from repro.control.policy import BestPathPolicy
from repro.control.probes import ProbeConfig, ProbeScheduler
from repro.core.pathset import PathSet
from repro.errors import ControlError
from repro.faults.events import ProbeFaultEvent, ProbeFaultKind, Window
from repro.faults.injector import ProbeFaultModel
from repro.rand import RandomStreams
from repro.tunnel.node import OverlayNode


@pytest.fixture()
def pathset(small_internet) -> PathSet:
    node = OverlayNode(host=small_internet.host("vm"))
    return PathSet.build(small_internet, "server", "client", [node])


def scheduler(pathset, fault_model=None, **overrides) -> ProbeScheduler:
    config = ProbeConfig(**overrides)
    rng = RandomStreams(seed=5).stream("probe")
    return ProbeScheduler(pathset, config, rng, fault_model)


def fault_model(*events) -> ProbeFaultModel:
    return ProbeFaultModel(list(events), RandomStreams(seed=6).stream("pf"))


class TestTimeout:
    def test_rtt_over_deadline_reports_timeout(self, pathset):
        rtt = pathset.direct.rtt_ms(0.0)
        sched = scheduler(pathset, timeout_ms=rtt / 2.0)
        result = sched.probe("direct", 0.0)
        assert not result.ok
        assert result.rtt_ms == math.inf
        assert result.loss == 1.0
        assert sched.probes_timed_out == 1

    def test_generous_deadline_unchanged(self, pathset):
        baseline = scheduler(pathset).probe("direct", 0.0)
        guarded = scheduler(pathset, timeout_ms=60_000.0).probe("direct", 0.0)
        assert guarded == baseline

    def test_timeout_fault_strikes_live_path(self, pathset):
        model = fault_model(
            ProbeFaultEvent(window=Window(0.0, 10.0), fault=ProbeFaultKind.TIMEOUT)
        )
        sched = scheduler(pathset, fault_model=model)
        result = sched.probe("direct", 0.0)
        assert not result.ok
        assert sched.probes_timed_out == 1


class TestRetries:
    def test_failed_probe_retries_on_backoff(self, pathset):
        pathset.direct.links[2].fail()
        sched = scheduler(
            pathset, interval_s=60.0, jitter_frac=0.0, max_retries=2,
            retry_backoff_s=5.0,
        )
        sched.probe("direct", 0.0)
        assert sched._next_due["direct"] == pytest.approx(5.0)  # first retry
        sched.probe("direct", 5.0)
        assert sched._next_due["direct"] == pytest.approx(15.0)  # doubled
        sched.probe("direct", 15.0)
        assert sched._next_due["direct"] == pytest.approx(75.0)  # exhausted
        assert sched.probes_retried == 2
        pathset.direct.links[2].restore()

    def test_backoff_capped_at_interval(self, pathset):
        pathset.direct.links[2].fail()
        sched = scheduler(
            pathset, interval_s=20.0, jitter_frac=0.0, max_retries=5,
            retry_backoff_s=15.0,
        )
        sched.probe("direct", 0.0)
        assert sched._next_due["direct"] == pytest.approx(15.0)
        sched.probe("direct", 15.0)
        assert sched._next_due["direct"] == pytest.approx(35.0)  # 30 capped to 20
        pathset.direct.links[2].restore()

    def test_success_resets_attempts(self, pathset):
        sched = scheduler(
            pathset, interval_s=60.0, jitter_frac=0.0, max_retries=3,
            retry_backoff_s=5.0,
        )
        pathset.direct.links[2].fail()
        sched.probe("direct", 0.0)
        assert sched._attempts["direct"] == 1
        pathset.direct.links[2].restore()
        sched.probe("direct", 5.0)
        assert sched._attempts["direct"] == 0
        assert sched._next_due["direct"] == pytest.approx(65.0)

    def test_no_retries_is_the_pr1_baseline(self, pathset):
        pathset.direct.links[2].fail()
        baseline = scheduler(pathset, interval_s=60.0)
        hardened_off = scheduler(pathset, interval_s=60.0, max_retries=0)
        baseline.probe("direct", 0.0)
        hardened_off.probe("direct", 0.0)
        assert baseline._next_due == hardened_off._next_due
        pathset.direct.links[2].restore()


class TestProbePlaneFaults:
    def test_lost_probe_spends_bytes_returns_nothing(self, pathset):
        model = fault_model(
            ProbeFaultEvent(window=Window(0.0, 10.0), fault=ProbeFaultKind.LOST)
        )
        sched = scheduler(pathset, fault_model=model)
        assert sched.probe("direct", 0.0) is None
        assert sched.probes_lost == 1
        assert sched.total_bytes == 10 * 64  # one-way pings only
        assert "direct" not in sched.last_result

    def test_stale_fault_serves_cached_result_unchanged(self, pathset):
        model = fault_model(
            ProbeFaultEvent(window=Window(50.0, 100.0), fault=ProbeFaultKind.STALE)
        )
        sched = scheduler(pathset, fault_model=model)
        fresh = sched.probe("direct", 0.0)
        served = sched.probe("direct", 60.0)
        assert served is fresh  # original timestamp and all
        assert sched.probes_stale_served == 1
        assert sched.result_age("direct", 60.0) == pytest.approx(60.0)

    def test_stale_fault_without_cache_measures_normally(self, pathset):
        model = fault_model(
            ProbeFaultEvent(window=Window(0.0, 100.0), fault=ProbeFaultKind.STALE)
        )
        sched = scheduler(pathset, fault_model=model)
        result = sched.probe("direct", 0.0)
        assert result is not None
        assert result.at_time == 0.0


class TestLastKnownGood:
    def test_freshest_age(self, pathset):
        sched = scheduler(pathset)
        assert sched.freshest_age(0.0) == math.inf
        sched.probe("direct", 0.0)
        sched.probe("vm", 30.0)
        assert sched.freshest_age(100.0) == pytest.approx(70.0)


class TestDegradationConfig:
    def test_bounds_validated(self):
        with pytest.raises(ControlError):
            DegradationConfig(stale_after_s=300.0, blackout_after_s=100.0)
        with pytest.raises(ControlError):
            DegradationConfig(flap_threshold=1)


def failed_transition(label: str, at_time: float) -> HealthTransition:
    return HealthTransition(
        label=label, at_time=at_time, old=PathState.DEGRADED, new=PathState.FAILED
    )


class TestDegradationGuard:
    def guard(self, **overrides) -> DegradationGuard:
        defaults = dict(flap_threshold=3, flap_window_s=600.0, quarantine_s=300.0)
        defaults.update(overrides)
        return DegradationGuard(DegradationConfig(**defaults))

    def test_quarantine_after_threshold_failures(self):
        guard = self.guard()
        assert guard.note_transition(failed_transition("vm", 100.0)) is None
        assert guard.note_transition(failed_transition("vm", 200.0)) is None
        quarantine = guard.note_transition(failed_transition("vm", 300.0))
        assert quarantine is not None
        assert quarantine.until == pytest.approx(600.0)
        assert guard.is_quarantined("vm", 599.0)
        assert not guard.is_quarantined("vm", 600.0)

    def test_failures_outside_window_forgotten(self):
        guard = self.guard(flap_window_s=150.0)
        guard.note_transition(failed_transition("vm", 0.0))
        guard.note_transition(failed_transition("vm", 100.0))
        # The first failure has aged out of the sliding window by now.
        assert guard.note_transition(failed_transition("vm", 200.0)) is None

    def test_fallback_label_never_quarantined(self):
        guard = self.guard()
        for at_time in (100.0, 200.0, 300.0, 400.0):
            assert guard.note_transition(failed_transition("direct", at_time)) is None
        assert not guard.is_quarantined("direct", 500.0)

    def test_non_failed_transitions_ignored(self):
        guard = self.guard()
        healthy = HealthTransition(
            label="vm", at_time=100.0, old=PathState.FAILED, new=PathState.HEALTHY
        )
        assert guard.note_transition(healthy) is None


class TestControllerLadder:
    def controller(self, small_internet, pathset, model) -> OverlayController:
        sched = ProbeScheduler(
            pathset,
            ProbeConfig(interval_s=30.0, jitter_frac=0.0),
            RandomStreams(seed=5).stream("probe"),
            model,
        )
        return OverlayController(
            internet=small_internet,
            pathset=pathset,
            policy=BestPathPolicy(),
            scheduler=sched,
            tick_s=10.0,
            degradation=DegradationConfig(stale_after_s=60.0, blackout_after_s=120.0),
        )

    def test_blackout_falls_back_to_direct(self, small_internet, pathset):
        # Probes vanish from t=40 on; once nothing is fresher than the
        # blackout bound the controller must park on the fallback path.
        model = fault_model(
            ProbeFaultEvent(window=Window(40.0, 10_000.0), fault=ProbeFaultKind.LOST)
        )
        controller = self.controller(small_internet, pathset, model)
        report = controller.run(600.0)
        assert controller.active == ("direct",)
        fallback = next(
            r for r in report.decisions.records if "safe fallback" in r.reason
        )
        assert fallback.new_active == ("direct",)
        assert report.metrics["degraded_ticks_total{mode=fallback}"] > 0

    def test_stale_window_holds_last_decision(self, small_internet, pathset):
        model = fault_model(
            ProbeFaultEvent(window=Window(40.0, 10_000.0), fault=ProbeFaultKind.LOST)
        )
        controller = self.controller(small_internet, pathset, model)
        report = controller.run(140.0)  # past stale (60) but not blackout (120)+40
        assert report.metrics["degraded_ticks_total{mode=hold}"] > 0
        # Holding means no decision was taken during the stale window.
        assert all(r.at_time < 100.0 for r in report.decisions.records)

    def test_no_degradation_config_is_pr1_behaviour(self, small_internet, pathset):
        sched = ProbeScheduler(
            pathset,
            ProbeConfig(interval_s=30.0, jitter_frac=0.0),
            RandomStreams(seed=5).stream("probe"),
        )
        controller = OverlayController(
            internet=small_internet,
            pathset=pathset,
            policy=BestPathPolicy(),
            scheduler=sched,
            tick_s=10.0,
        )
        report = controller.run(300.0)
        assert controller.guard is None
        assert "degraded_ticks_total{mode=hold}" not in report.metrics

    def test_quarantined_path_hidden_from_policy(self, small_internet, pathset):
        controller = self.controller(small_internet, pathset, None)
        controller.guard._quarantined_until["vm"] = 1_000.0
        controller.scheduler.probe_due(0.0)
        health, probes = controller._policy_views(0.0)
        assert "vm" not in health
        assert "vm" not in probes
        assert "direct" in health


class TestOracleTracking:
    def test_wrong_path_time_accumulates(self, small_internet, pathset):
        # Static on direct while an overlay is strictly better: every
        # tick that direct lags the oracle by >5% counts.
        from repro.control.policy import StaticPolicy

        controller = OverlayController(
            internet=small_internet,
            pathset=pathset,
            policy=StaticPolicy("direct"),
            tick_s=10.0,
            track_oracle=True,
        )
        report = controller.run(100.0)
        # The oracle is a pure function of the instant and link state.
        lagging = [
            s for s in report.samples
            if s.goodput_mbps < controller._best_possible(s.at_time) * 0.95
        ]
        assert report.wrong_path_s == pytest.approx(10.0 * len(lagging))

    def test_oracle_off_by_default(self, small_internet, pathset):
        controller = OverlayController(
            internet=small_internet,
            pathset=pathset,
            policy=BestPathPolicy(),
            tick_s=10.0,
        )
        report = controller.run(50.0)
        assert report.wrong_path_s == 0.0
