"""The overlay control loop: probe -> assess -> decide -> measure.

:class:`OverlayController` closes the loop the one-shot experiment
drivers leave open.  Each tick of simulated time it:

1. advances the world clock (the events of an installed
   :class:`~repro.faults.injector.FaultInjector` fire here),
2. fires any due probes from the :class:`~repro.control.probes.
   ProbeScheduler` (budgeted, jittered),
3. feeds results into the per-path :class:`~repro.control.health.
   PathHealth` machines,
4. asks its :class:`~repro.control.policy.Policy` for the active set,
   logging every change as a :class:`~repro.control.decisions.
   DecisionRecord`,
5. samples the goodput the active set actually delivers (coupled-MPTCP
   semantics: the aggregate rides the best live subflow), accumulating
   downtime whenever that goodput is zero.

Everything observable lands in a :class:`~repro.control.metrics.
MetricsRegistry`, so a fixed seed yields a byte-identical snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.control.decisions import DecisionLog, DecisionRecord
from repro.control.degradation import DegradationConfig, DegradationGuard
from repro.control.health import HealthConfig, HealthTransition, PathHealth, PathState
from repro.control.metrics import MetricsRegistry
from repro.control.policy import Policy, PolicyDecision
from repro.control.probes import ProbeResult, ProbeScheduler
from repro.core.pathset import PathSet, PathType
from repro.errors import ControlError, check
from repro.net.world import Internet

#: Buckets for failover switch latency (seconds).
SWITCH_LATENCY_BUCKETS: tuple[float, ...] = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 900.0)

#: Goodput this far (relative) below the best candidate counts as
#: wrong-path time — small probe/model wiggles do not.
WRONG_PATH_TOLERANCE = 0.05


@dataclass(frozen=True, slots=True)
class GoodputSample:
    """Goodput delivered by the active set at one tick."""

    at_time: float
    goodput_mbps: float


@dataclass
class ControllerReport:
    """What one controller run produced."""

    policy: str
    tick_s: float
    duration_s: float
    samples: list[GoodputSample]
    decisions: DecisionLog
    metrics: dict[str, object]
    downtime_s: float
    probe_bytes: int
    probes_sent: int
    failovers: int
    time_in_state: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Seconds the active set delivered materially less than the best
    #: candidate could have (only tracked with ``track_oracle``).
    wrong_path_s: float = 0.0
    probes_lost: int = 0
    probes_retried: int = 0
    probes_stale_served: int = 0
    probes_timed_out: int = 0
    quarantines: int = 0

    @property
    def mean_goodput_mbps(self) -> float:
        """Time-average goodput over the run."""
        if not self.samples:
            return 0.0
        return sum(s.goodput_mbps for s in self.samples) / len(self.samples)

    def availability(self) -> float:
        """Fraction of the run with non-zero goodput."""
        if self.duration_s <= 0:
            return 0.0
        return 1.0 - self.downtime_s / self.duration_s


class OverlayController:
    """Drives one sender/receiver pair's path set through time."""

    def __init__(
        self,
        internet: Internet,
        pathset: PathSet,
        policy: Policy,
        scheduler: ProbeScheduler | None = None,
        health_config: HealthConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tick_s: float = 5.0,
        mode: PathType = PathType.SPLIT_OVERLAY,
        degradation: DegradationConfig | None = None,
        track_oracle: bool = False,
        flap_history=None,
    ) -> None:
        if scheduler is not None and scheduler.pathset is not pathset:
            raise ControlError("scheduler was built for a different path set")
        if mode is PathType.DIRECT:
            raise ControlError("controller mode must be an overlay path type")
        self.internet = internet
        self.pathset = pathset
        self.policy = policy
        self.scheduler = scheduler
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tick_s = check(tick_s, "tick_s", gt=0, error=ControlError)
        self.mode = mode
        self.degradation = degradation
        self.guard = DegradationGuard(degradation) if degradation is not None else None
        self.track_oracle = track_oracle
        #: Fault history handed to the policy's ``decide`` (anything
        #: satisfying :class:`~repro.control.policy.FaultHistory`).
        #: Defaults to the degradation guard's observed flap history.
        self.flap_history = flap_history if flap_history is not None else self.guard
        now = internet.now
        config = health_config if health_config is not None else HealthConfig()
        labels = (
            scheduler.labels
            if scheduler is not None
            else ("direct", *(option.name for option in pathset.options))
        )
        self.health: dict[str, PathHealth] = {
            label: PathHealth(label=label, config=config, created_at=now)
            for label in labels
        }
        self.decisions = DecisionLog()
        self.active: tuple[str, ...] = ()
        #: When the most recent FAILED transition of an active path
        #: happened — the clock switch latency is measured against.
        self._active_failed_at: float | None = None

    # ------------------------------------------------------------------
    # per-tick steps
    # ------------------------------------------------------------------
    def _run_probes(self, now: float) -> list[HealthTransition]:
        if self.scheduler is None:
            return []
        before_skipped = self.scheduler.probes_skipped
        transitions: list[HealthTransition] = []
        for result in self.scheduler.probe_due(now):
            self.metrics.counter("probes_sent_total", {"path": result.label}).inc()
            self.metrics.counter("probe_bytes_total").inc(result.bytes_cost)
            if not result.ok:
                self.metrics.counter("probe_timeouts_total", {"path": result.label}).inc()
            transition = self.health[result.label].observe(result)
            if transition is not None:
                transitions.append(transition)
                self.metrics.counter(
                    "health_transitions_total",
                    {"path": transition.label, "to": transition.new.value},
                ).inc()
                if transition.new is PathState.FAILED and transition.label in self.active:
                    self._active_failed_at = transition.at_time
                if self.guard is not None:
                    quarantine = self.guard.note_transition(transition)
                    if quarantine is not None:
                        self.metrics.counter(
                            "quarantines_total", {"path": quarantine.label}
                        ).inc()
        skipped = self.scheduler.probes_skipped - before_skipped
        if skipped:
            self.metrics.counter("probes_skipped_total").inc(skipped)
        return transitions

    def _degraded_decision(self, now: float) -> PolicyDecision | str | None:
        """The degradation ladder's verdict at ``now``.

        Returns a :class:`PolicyDecision` to impose (blackout fallback),
        the string ``"hold"`` to keep the current active set without
        consulting the policy, or ``None`` to decide normally.
        """
        assert self.degradation is not None and self.scheduler is not None
        cfg = self.degradation
        freshest = self.scheduler.freshest_age(now)
        if freshest > cfg.blackout_after_s:
            self.metrics.counter("degraded_ticks_total", {"mode": "fallback"}).inc()
            if cfg.fallback_label in self.health:
                return PolicyDecision(
                    active=(cfg.fallback_label,),
                    reason=(
                        f"probe blackout (no data for {freshest:.0f}s): "
                        f"safe fallback to {cfg.fallback_label}"
                    ),
                )
            return "hold"
        if freshest > cfg.stale_after_s:
            self.metrics.counter("degraded_ticks_total", {"mode": "hold"}).inc()
            return "hold"
        return None

    def _policy_views(
        self, now: float
    ) -> tuple[dict[str, PathHealth], dict[str, ProbeResult]]:
        """Health/probe views with stale results and quarantined paths hidden."""
        probes = dict(self.scheduler.last_result) if self.scheduler is not None else {}
        health: dict[str, PathHealth] = dict(self.health)
        if self.degradation is None or self.scheduler is None:
            return health, probes
        bound = self.degradation.stale_after_s
        probes = {
            label: result
            for label, result in probes.items()
            if now - result.at_time <= bound
        }
        if self.guard is not None:
            filtered = {
                label: machine
                for label, machine in health.items()
                if not self.guard.is_quarantined(label, now)
            }
            if filtered:  # never hand the policy an empty world
                health = filtered
                probes = {label: r for label, r in probes.items() if label in health}
        return health, probes

    def _decide(self, now: float, triggers: list[HealthTransition]) -> None:
        decision: PolicyDecision | str | None = None
        if self.degradation is not None and self.scheduler is not None:
            decision = self._degraded_decision(now)
        if decision == "hold":
            return
        if decision is None:
            health, probes = self._policy_views(now)
            decision = self.policy.decide(
                now, health, probes, self.active, history=self.flap_history
            )
        if decision.active == self.active:
            return
        record = DecisionRecord(
            at_time=now,
            policy=self.policy.name,
            old_active=self.active,
            new_active=decision.active,
            reason=decision.reason,
            triggers=tuple(triggers),
        )
        self.decisions.append(record)
        if self.active:  # the very first activation is not a failover
            self.metrics.counter("failovers_total").inc()
            if self._active_failed_at is not None:
                self.metrics.histogram(
                    "switch_latency_seconds", buckets=SWITCH_LATENCY_BUCKETS
                ).observe(now - self._active_failed_at)
                self._active_failed_at = None
        self.active = decision.active
        self.metrics.gauge("active_paths").set(len(self.active))

    def _adapt_cadence(self, now: float) -> None:
        """Feed the health view to the scheduler's adaptive cadence.

        "All healthy" means every machine is literally HEALTHY —
        DEGRADED, GRAY and FAILED all keep (or make) the cadence
        tight, because each means the controller is actively steering
        around trouble and needs fresh data.  No-op unless the probe
        config enables adaptation.
        """
        if self.scheduler is None or not self.scheduler.config.adaptive:
            return
        all_healthy = all(
            machine.state is PathState.HEALTHY for machine in self.health.values()
        )
        self.scheduler.adapt(now, all_healthy)
        self.metrics.gauge("probe_interval_s").set(
            round(self.scheduler.current_interval_s, 6)
        )

    def _goodput(self, now: float) -> float:
        """Goodput of the active set: best live member (coupled MPTCP)."""
        return max(
            (self.pathset.rate(self.mode, label, now) for label in self.active), default=0.0
        )

    def _best_possible(self, now: float) -> float:
        """The oracle: best rate any single candidate delivers at ``now``."""
        return max(self.pathset.rate(self.mode, label, now) for label in self.health)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> ControllerReport:
        """Drive the loop for ``duration_s`` of simulated time."""
        if not 0 < duration_s < math.inf:
            raise ControlError(f"duration must be positive and finite, got {duration_s}")
        samples: list[GoodputSample] = []
        downtime_s = 0.0
        wrong_path_s = 0.0
        start = self.internet.now
        end = start + duration_s
        now = start
        while now < end:
            triggers = self._run_probes(now)
            self._adapt_cadence(now)
            self._decide(now, triggers)
            goodput = self._goodput(now)
            best = self._best_possible(now) if self.track_oracle else None
            samples.append(GoodputSample(at_time=now, goodput_mbps=goodput))
            step = min(self.tick_s, end - now)
            if goodput <= 0.0:
                downtime_s += step
            if best is not None and best > 0.0:
                if goodput < best * (1.0 - WRONG_PATH_TOLERANCE):
                    wrong_path_s += step
            self.metrics.gauge("goodput_mbps").set(goodput)
            now = self.internet.advance(step)

        for label, machine in self.health.items():
            for state_name, seconds in machine.time_in_state(end).items():
                self.metrics.gauge(
                    "time_in_state_seconds", {"path": label, "state": state_name}
                ).set(round(seconds, 6))
        return ControllerReport(
            policy=self.policy.name,
            tick_s=self.tick_s,
            duration_s=duration_s,
            samples=samples,
            decisions=self.decisions,
            metrics=self.metrics.snapshot(),
            downtime_s=downtime_s,
            probe_bytes=self.scheduler.total_bytes if self.scheduler else 0,
            probes_sent=self.scheduler.probes_sent if self.scheduler else 0,
            failovers=int(self.metrics.counter("failovers_total").value),
            time_in_state={
                label: machine.time_in_state(end)
                for label, machine in self.health.items()
            },
            wrong_path_s=wrong_path_s,
            probes_lost=self.scheduler.probes_lost if self.scheduler else 0,
            probes_retried=self.scheduler.probes_retried if self.scheduler else 0,
            probes_stale_served=(
                self.scheduler.probes_stale_served if self.scheduler else 0
            ),
            probes_timed_out=self.scheduler.probes_timed_out if self.scheduler else 0,
            quarantines=len(self.guard.quarantines) if self.guard is not None else 0,
        )
