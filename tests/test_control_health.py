"""PathHealth state machine: hysteresis, recovery, time-in-state."""

from __future__ import annotations

import math

import pytest

from repro.control.health import HealthConfig, PathHealth, PathState
from repro.control.probes import ProbeResult
from repro.errors import ControlError


def probe(
    label: str = "p",
    at: float = 0.0,
    ok: bool = True,
    rtt: float = 100.0,
    loss: float = 0.001,
) -> ProbeResult:
    return ProbeResult(
        label=label,
        at_time=at,
        ok=ok,
        rtt_ms=rtt if ok else math.inf,
        loss=loss if ok else 1.0,
        throughput_mbps=None,
        bytes_cost=0,
    )


def machine(**overrides) -> PathHealth:
    defaults = dict(
        degrade_after=2, fail_after=2, recover_after=2, recovery_hold_s=30.0
    )
    defaults.update(overrides)
    return PathHealth(label="p", config=HealthConfig(**defaults))


class TestFailureDetection:
    def test_single_bad_probe_is_noise(self):
        m = machine()
        assert m.observe(probe(at=0.0, ok=False)) is None
        assert m.state is PathState.HEALTHY

    def test_consecutive_bad_probes_fail_the_path(self):
        m = machine()
        m.observe(probe(at=0.0, ok=False))
        transition = m.observe(probe(at=10.0, ok=False))
        assert transition is not None
        assert transition.new is PathState.FAILED
        assert not m.usable

    def test_good_probe_resets_bad_streak(self):
        m = machine()
        m.observe(probe(at=0.0, ok=False))
        m.observe(probe(at=10.0))
        m.observe(probe(at=20.0, ok=False))
        assert m.state is PathState.HEALTHY

    def test_high_loss_counts_as_failure(self):
        m = machine()
        m.observe(probe(at=0.0, loss=0.6))
        m.observe(probe(at=10.0, loss=0.7))
        assert m.state is PathState.FAILED


class TestDegradation:
    def test_loss_degrades(self):
        m = machine()
        m.observe(probe(at=0.0, loss=0.05))
        m.observe(probe(at=10.0, loss=0.05))
        assert m.state is PathState.DEGRADED

    def test_rtt_above_baseline_degrades(self):
        m = machine()
        # Learn a ~100 ms baseline...
        for t in range(3):
            m.observe(probe(at=float(t)))
        # ...then observe sustained 3x RTT.
        m.observe(probe(at=10.0, rtt=300.0))
        m.observe(probe(at=20.0, rtt=300.0))
        assert m.state is PathState.DEGRADED

    def test_rtt_before_baseline_does_not_degrade(self):
        m = machine()
        m.observe(probe(at=0.0, rtt=500.0))
        m.observe(probe(at=1.0, rtt=500.0))
        # First samples *set* the baseline; they cannot violate it.
        assert m.state is PathState.HEALTHY


class TestRecovery:
    def _failed_machine(self) -> PathHealth:
        m = machine()
        m.observe(probe(at=0.0, ok=False))
        m.observe(probe(at=10.0, ok=False))
        assert m.state is PathState.FAILED
        return m

    def test_failed_promotes_to_degraded_then_healthy(self):
        m = self._failed_machine()
        m.observe(probe(at=20.0))
        transition = m.observe(probe(at=30.0))
        assert transition is not None and transition.new is PathState.DEGRADED
        # The promotion consumed the good streak: two *more* good
        # probes, past the hold timer, reach HEALTHY.
        m.observe(probe(at=40.0))
        transition = m.observe(probe(at=50.0))
        assert transition is not None and transition.new is PathState.HEALTHY

    def test_recovery_hold_blocks_early_promotion(self):
        m = self._failed_machine()
        m.observe(probe(at=11.0))
        m.observe(probe(at=12.0))  # -> DEGRADED
        m.observe(probe(at=13.0))
        m.observe(probe(at=14.0))  # hold (30 s since t=10) not elapsed
        assert m.state is PathState.DEGRADED
        m.observe(probe(at=45.0))  # now 35 s past the last bad probe
        assert m.state is PathState.HEALTHY

    def test_no_flapping_on_alternating_probes(self):
        m = machine()
        for t in range(20):
            m.observe(probe(at=float(t), ok=(t % 2 == 0)))
        # Alternation never builds the streaks either demotion or
        # promotion needs past DEGRADED.
        assert m.state is not PathState.FAILED
        assert len(m.transitions) <= 2


class TestAccounting:
    def test_time_in_state_totals_elapsed(self):
        m = self._run_to_failed()
        totals = m.time_in_state(100.0)
        assert totals["healthy"] == pytest.approx(10.0)
        assert totals["failed"] == pytest.approx(90.0)
        assert sum(totals.values()) == pytest.approx(100.0)

    def _run_to_failed(self) -> PathHealth:
        m = machine()
        m.observe(probe(at=0.0, ok=False))
        m.observe(probe(at=10.0, ok=False))
        return m

    def test_transitions_recorded(self):
        m = self._run_to_failed()
        assert [t.new for t in m.transitions] == [PathState.FAILED]

    def test_wrong_label_rejected(self):
        m = machine()
        with pytest.raises(ControlError):
            m.observe(probe(label="other"))


class TestConfigValidation:
    def test_bad_factor(self):
        with pytest.raises(ControlError):
            HealthConfig(degrade_rtt_factor=0.9)

    def test_bad_loss_ordering(self):
        with pytest.raises(ControlError):
            HealthConfig(degrade_loss=0.6, fail_loss=0.5)

    def test_bad_counts(self):
        with pytest.raises(ControlError):
            HealthConfig(fail_after=0)


class TestGrayDetection:
    """The throughput/ping cross-check behind the GRAY state."""

    def gray_machine(self, **overrides) -> PathHealth:
        defaults = dict(
            degrade_after=2, fail_after=2, recover_after=2, recovery_hold_s=30.0,
            gray_detect=True, gray_throughput_factor=0.5, gray_after=2,
        )
        defaults.update(overrides)
        return PathHealth(label="p", config=HealthConfig(**defaults))

    def tput_probe(self, at: float, mbps: float, **kw) -> ProbeResult:
        base = dict(label="p", at=at)
        base.update(kw)
        result = probe(**base)
        return ProbeResult(
            label=result.label,
            at_time=result.at_time,
            ok=result.ok,
            rtt_ms=result.rtt_ms,
            loss=result.loss,
            throughput_mbps=mbps,
            bytes_cost=result.bytes_cost,
        )

    def _learned(self, m: PathHealth) -> PathHealth:
        # Learn ~10 Mbps / ~100 ms baselines on good probes.
        for t in range(3):
            m.observe(self.tput_probe(float(t), 10.0))
        assert m.baseline_throughput_mbps == pytest.approx(10.0)
        return m

    def test_clean_pings_collapsed_throughput_goes_gray(self):
        m = self._learned(self.gray_machine())
        m.observe(self.tput_probe(10.0, 2.0))  # pings clean, tput -80%
        transition = m.observe(self.tput_probe(20.0, 2.0))
        assert transition is not None and transition.new is PathState.GRAY
        assert m.usable  # GRAY may still carry traffic as a last resort

    def test_single_gray_observation_is_noise(self):
        m = self._learned(self.gray_machine())
        m.observe(self.tput_probe(10.0, 2.0))
        assert m.state is PathState.HEALTHY

    def test_visible_loss_wins_over_gray(self):
        # A visibly lossy path is DEGRADED, not GRAY, however bad its
        # throughput: ping-visible evidence takes precedence.
        m = self._learned(self.gray_machine())
        m.observe(self.tput_probe(10.0, 2.0, loss=0.05))
        m.observe(self.tput_probe(20.0, 2.0, loss=0.05))
        assert m.state is PathState.DEGRADED

    def test_gray_recovers_without_hold(self):
        m = self._learned(self.gray_machine(recovery_hold_s=1_000.0))
        m.observe(self.tput_probe(10.0, 2.0))
        m.observe(self.tput_probe(20.0, 2.0))
        assert m.state is PathState.GRAY
        m.observe(self.tput_probe(21.0, 10.0))
        transition = m.observe(self.tput_probe(22.0, 10.0))
        # Straight back to HEALTHY seconds later, hold notwithstanding:
        # the throughput probe is direct evidence of recovery.
        assert transition is not None and transition.new is PathState.HEALTHY

    def test_gray_can_fail_outright(self):
        m = self._learned(self.gray_machine())
        m.observe(self.tput_probe(10.0, 2.0))
        m.observe(self.tput_probe(20.0, 2.0))
        assert m.state is PathState.GRAY
        m.observe(self.tput_probe(30.0, 0.0, ok=False))
        m.observe(self.tput_probe(40.0, 0.0, ok=False))
        assert m.state is PathState.FAILED

    def test_gray_ranks_between_degraded_and_failed(self):
        from repro.control.health import STATE_RANK

        assert (
            STATE_RANK[PathState.DEGRADED]
            < STATE_RANK[PathState.GRAY]
            < STATE_RANK[PathState.FAILED]
        )

    def test_detection_off_by_default(self):
        # Knobs off: the same probe sequence never leaves HEALTHY.
        m = machine()
        for t in range(3):
            m.observe(self.tput_probe(float(t), 10.0))
        m.observe(self.tput_probe(10.0, 2.0))
        m.observe(self.tput_probe(20.0, 2.0))
        m.observe(self.tput_probe(30.0, 2.0))
        assert m.state is PathState.HEALTHY
        assert not m.transitions

    def test_gray_config_validated(self):
        with pytest.raises(ControlError):
            HealthConfig(gray_throughput_factor=1.0)
        with pytest.raises(ControlError):
            HealthConfig(gray_after=0)
