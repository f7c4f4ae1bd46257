"""ProbeScheduler: jittered cadence, byte budgets, timeout semantics."""

from __future__ import annotations

import math

import pytest

from repro.control.probes import ProbeConfig, ProbeScheduler
from repro.core.pathset import PathSet
from repro.errors import ControlError
from repro.rand import RandomStreams
from repro.tunnel.node import OverlayNode


@pytest.fixture()
def pathset(small_internet) -> PathSet:
    node = OverlayNode(host=small_internet.host("vm"))
    return PathSet.build(small_internet, "server", "client", [node])


def scheduler(pathset, **overrides) -> ProbeScheduler:
    config = ProbeConfig(**overrides)
    return ProbeScheduler(pathset, config, RandomStreams(seed=5).stream("probe"))


class TestScheduling:
    def test_all_paths_due_at_start(self, pathset):
        sched = scheduler(pathset)
        assert sched.due(0.0) == ["direct", "vm"]

    def test_jittered_reschedule_within_bounds(self, pathset):
        sched = scheduler(pathset, interval_s=30.0, jitter_frac=0.1)
        sched.probe("direct", 0.0)
        next_due = sched._next_due["direct"]
        assert 27.0 <= next_due <= 33.0
        assert sched.due(next_due - 0.5) == ["vm"]

    def test_deterministic_for_fixed_seed(self, pathset):
        first = scheduler(pathset)
        second = scheduler(pathset)
        a = first.probe("direct", 0.0)
        b = second.probe("direct", 0.0)
        assert a == b
        assert first._next_due == second._next_due

    def test_unknown_label_rejected(self, pathset):
        with pytest.raises(ControlError):
            scheduler(pathset).probe("nope", 0.0)


class TestProbeResults:
    def test_live_path_probe(self, pathset):
        result = scheduler(pathset).probe("direct", 0.0)
        assert result.ok
        assert result.rtt_ms > 0
        assert 0.0 <= result.loss < 1.0
        assert result.throughput_mbps > 0
        assert result.bytes_cost > 0

    def test_overlay_probe_uses_concatenated_path(self, pathset):
        result = scheduler(pathset).probe("vm", 0.0)
        assert result.ok
        expected = pathset.options[0].concatenated.rtt_ms(0.0)
        assert result.rtt_ms == pytest.approx(expected)

    def test_dead_path_times_out(self, pathset):
        pathset.direct.links[2].fail()
        result = scheduler(pathset).probe("direct", 0.0)
        assert not result.ok
        assert result.rtt_ms == math.inf
        assert result.loss == 1.0
        assert result.throughput_mbps == 0.0
        pathset.direct.links[2].restore()

    def test_timeout_costs_fewer_bytes(self, pathset):
        live = scheduler(pathset).probe("direct", 0.0)
        pathset.direct.links[2].fail()
        dead = scheduler(pathset).probe("direct", 0.0)
        assert dead.bytes_cost < live.bytes_cost  # no echoes, no transfer
        pathset.direct.links[2].restore()


class TestBudget:
    def test_budget_skips_and_counts(self, pathset):
        # Budget fits one ping-only probe per interval, not two.
        sched = scheduler(
            pathset,
            throughput_probe_bytes=0,
            budget_bytes_per_interval=1500,
        )
        first = sched.probe("direct", 0.0)
        second = sched.probe("vm", 0.0)
        assert first is not None
        assert second is None
        assert sched.probes_sent == 1
        assert sched.probes_skipped == 1

    def test_budget_window_resets(self, pathset):
        sched = scheduler(
            pathset,
            interval_s=30.0,
            jitter_frac=0.0,
            throughput_probe_bytes=0,
            budget_bytes_per_interval=1500,
        )
        assert sched.probe("direct", 0.0) is not None
        assert sched.probe("vm", 0.0) is None
        # A full interval later the window resets and vm is probed.
        assert sched.probe("vm", 30.0) is not None

    def test_probe_due_returns_obtained_results(self, pathset):
        sched = scheduler(pathset)
        results = sched.probe_due(0.0)
        assert [r.label for r in results] == ["direct", "vm"]
        assert sched.last_result["direct"].ok


class TestConfigValidation:
    def test_bad_interval_rejected(self):
        with pytest.raises(ControlError):
            ProbeConfig(interval_s=0.0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ControlError):
            ProbeConfig(budget_bytes_per_interval=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "interval_s",
            "min_interval_s",
            "max_interval_s",
            "retry_backoff_s",
            "relax_factor",
        ],
    )
    def test_non_finite_cadence_rejected(self, field, value):
        with pytest.raises(ControlError):
            ProbeConfig(adaptive=True, **{field: value})


class TestAdaptiveCadence:
    def adaptive(self, pathset, **overrides) -> ProbeScheduler:
        defaults = dict(
            interval_s=60.0, jitter_frac=0.0, adaptive=True,
            min_interval_s=15.0, max_interval_s=60.0, tighten_factor=0.5,
            relax_factor=2.0,
        )
        defaults.update(overrides)
        return scheduler(pathset, **defaults)

    def test_tightens_toward_floor_while_unhealthy(self, pathset):
        sched = self.adaptive(pathset)
        sched.adapt(0.0, all_healthy=False)
        assert sched.current_interval_s == pytest.approx(30.0)
        sched.adapt(10.0, all_healthy=False)
        assert sched.current_interval_s == pytest.approx(15.0)
        sched.adapt(20.0, all_healthy=False)  # already at the floor
        assert sched.current_interval_s == pytest.approx(15.0)
        assert sched.cadence_tightenings == 2

    def test_tighten_pulls_in_pending_timers(self, pathset):
        sched = self.adaptive(pathset)
        sched.probe("direct", 0.0)
        assert sched._next_due["direct"] == pytest.approx(60.0)
        sched.adapt(0.0, all_healthy=False)
        # No probe waits longer than one new interval.
        assert sched._next_due["direct"] <= 0.0 + sched.current_interval_s

    def test_relax_is_rate_limited(self, pathset):
        sched = self.adaptive(pathset)
        for t in (0.0, 10.0):
            sched.adapt(t, all_healthy=False)  # down to the 15 s floor
        sched.adapt(11.0, all_healthy=True)  # too soon after trouble
        assert sched.current_interval_s == pytest.approx(15.0)
        sched.adapt(30.0, all_healthy=True)  # one interval later: relax
        assert sched.current_interval_s == pytest.approx(30.0)
        sched.adapt(31.0, all_healthy=True)  # rate limit again
        assert sched.current_interval_s == pytest.approx(30.0)
        sched.adapt(65.0, all_healthy=True)
        assert sched.current_interval_s == pytest.approx(60.0)
        assert sched.cadence_relaxations == 2

    def test_ceiling_caps_relaxation(self, pathset):
        sched = self.adaptive(pathset)
        sched.adapt(0.0, all_healthy=False)
        sched.adapt(100.0, all_healthy=True)
        sched.adapt(200.0, all_healthy=True)
        sched.adapt(300.0, all_healthy=True)
        assert sched.current_interval_s == pytest.approx(60.0)

    def test_noop_when_adaptive_off(self, pathset):
        sched = scheduler(pathset, interval_s=60.0, jitter_frac=0.0)
        sched.probe("direct", 0.0)
        before = dict(sched._next_due)
        sched.adapt(0.0, all_healthy=False)
        assert sched.current_interval_s == pytest.approx(60.0)
        assert sched._next_due == before

    def test_reschedule_uses_current_interval(self, pathset):
        sched = self.adaptive(pathset)
        sched.adapt(0.0, all_healthy=False)
        sched.adapt(10.0, all_healthy=False)  # floor: 15 s
        sched.probe("direct", 20.0)
        assert sched._next_due["direct"] == pytest.approx(35.0)

    def test_adaptive_config_validated(self):
        with pytest.raises(ControlError):
            ProbeConfig(adaptive=True, min_interval_s=0.0)
        with pytest.raises(ControlError):
            ProbeConfig(adaptive=True, min_interval_s=30.0, max_interval_s=10.0)
        with pytest.raises(ControlError):
            ProbeConfig(adaptive=True, tighten_factor=1.0)
        with pytest.raises(ControlError):
            ProbeConfig(adaptive=True, relax_factor=1.0)

    def test_floor_above_the_implicit_ceiling_rejected(self):
        # Without max_interval_s the ceiling is interval_s.
        with pytest.raises(ControlError, match=r"min_interval_s \(100.0\).*interval_s \(15.0\)"):
            ProbeConfig(interval_s=15.0, adaptive=True, min_interval_s=100.0)
        ProbeConfig(interval_s=15.0, adaptive=True, min_interval_s=15.0)

    def test_ceiling_below_the_implicit_floor_rejected(self):
        # Without min_interval_s the floor is a quarter of interval_s.
        with pytest.raises(ControlError, match="max_interval_s must be >= 15.0"):
            ProbeConfig(interval_s=60.0, adaptive=True, max_interval_s=7.0)
        ProbeConfig(interval_s=60.0, adaptive=True, max_interval_s=15.0)

    def test_defaults_derive_from_interval(self):
        config = ProbeConfig(interval_s=60.0, adaptive=True)
        assert config.floor_interval_s == pytest.approx(15.0)
        assert config.ceiling_interval_s == pytest.approx(60.0)
