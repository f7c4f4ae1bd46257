"""Per-path health: a HEALTHY / DEGRADED / GRAY / FAILED state machine.

Probe results drive the machine; hysteresis keeps it honest:

* it takes several consecutive bad observations to *demote* a path
  (one lost probe is noise, not an outage), and
* several consecutive good observations — plus, out of DEGRADED, a
  recovery hold timer — to *promote* it back, so a flapping path
  cannot oscillate the controller.

::

                 degraded x N                bad x M
    HEALTHY  ────────────────►  DEGRADED ────────────►  FAILED
       ▲  ▲                       │  ▲                  ▲ │
       │  │   good x K + hold     │  │     good x K     │ │
       │  └───────────────────────┘  └──────────────────┼─┘
       │              gray x G                 bad x M  │
       └─────────────────────────►  GRAY  ──────────────┘
                  good x K

Degradation is judged against a per-path EWMA RTT baseline learned
while the path is good — "slower than *your own usual*", not an
absolute threshold, mirroring how latency-aware overlay controllers
score paths.

GRAY (opt-in via :attr:`HealthConfig.gray_detect`) is the cross-check
state: the pings come back clean but the throughput probe has
collapsed against the path's own throughput baseline.  That is the
signature of a gray failure — a link healthy by every lightweight
check while silently dropping the bulk traffic that matters.  GRAY
ranks *worse* than DEGRADED (the data plane is broken, not merely
slow) but promotes straight back to HEALTHY without the recovery
hold: the throughput probe is direct evidence, not circumstantial.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.control.probes import ProbeResult
from repro.errors import ControlError, check


class PathState(enum.Enum):
    """Health of one candidate path, best to worst."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    #: Pings clean, bulk throughput collapsed: a gray failure.
    GRAY = "gray"
    FAILED = "failed"


#: Ordering for "prefer healthier paths" comparisons.  GRAY sits
#: between DEGRADED and FAILED: its data plane is silently broken, so
#: it must lose to any merely-slow path, but it still answers probes
#: and may carry traffic as a last resort.
STATE_RANK: dict[PathState, int] = {
    PathState.HEALTHY: 0,
    PathState.DEGRADED: 1,
    PathState.GRAY: 2,
    PathState.FAILED: 3,
}


@dataclass(frozen=True, slots=True)
class HealthConfig:
    """Thresholds and hysteresis of the state machine."""

    #: RTT above baseline * factor counts as a degraded observation.
    degrade_rtt_factor: float = 1.5
    #: Loss at/above this counts as a degraded observation.
    degrade_loss: float = 0.02
    #: Loss at/above this (or a timed-out probe) counts as a bad observation.
    fail_loss: float = 0.5
    #: Consecutive degraded-or-worse observations before DEGRADED.
    degrade_after: int = 2
    #: Consecutive bad observations before FAILED.
    fail_after: int = 2
    #: Consecutive good observations per promotion step.
    recover_after: int = 2
    #: Minimum seconds since the last non-good observation before a
    #: DEGRADED path may be promoted to HEALTHY.
    recovery_hold_s: float = 60.0
    #: EWMA weight of the newest good RTT sample in the baseline.
    baseline_alpha: float = 0.3
    #: Cross-check throughput probes against ping loss; a path whose
    #: pings are clean but whose throughput has collapsed goes GRAY.
    #: Off by default: the pre-existing three-state machine.
    gray_detect: bool = False
    #: Throughput below baseline * factor (with clean pings) counts as
    #: a gray observation.
    gray_throughput_factor: float = 0.5
    #: Consecutive gray observations before GRAY.
    gray_after: int = 2

    def __post_init__(self) -> None:
        error = ControlError
        check(self.degrade_rtt_factor, "degrade_rtt_factor", gt=1, error=error)
        check(self.degrade_loss, "degrade_loss", gt=0, le=1, error=error)
        check(self.fail_loss, "fail_loss", ge=self.degrade_loss, le=1, error=error)
        check(self.degrade_after, "degrade_after", ge=1, error=error)
        check(self.fail_after, "fail_after", ge=1, error=error)
        check(self.recover_after, "recover_after", ge=1, error=error)
        check(self.recovery_hold_s, "recovery_hold_s", ge=0, error=error)
        check(self.baseline_alpha, "baseline_alpha", gt=0, le=1, error=error)
        check(self.gray_throughput_factor, "gray_throughput_factor", gt=0, lt=1, error=error)
        check(self.gray_after, "gray_after", ge=1, error=error)


@dataclass(frozen=True, slots=True)
class HealthTransition:
    """One state change of one path."""

    label: str
    at_time: float
    old: PathState
    new: PathState


@dataclass(slots=True)
class PathHealth:
    """State machine for one candidate path.

    Slotted: ``observe`` runs once per probe result — the innermost
    control-plane loop — and every classification reads half a dozen
    instance attributes, so fixed slot offsets beat ``__dict__``
    lookups.  The runtime fields are declared ``init=False`` with
    ``repr=False, compare=False`` to keep the constructor signature,
    repr, and equality semantics of the pre-slots class.
    """

    label: str
    config: HealthConfig = field(default_factory=HealthConfig)
    state: PathState = PathState.HEALTHY
    created_at: float = 0.0
    baseline_rtt_ms: float | None = field(default=None, init=False, repr=False, compare=False)
    baseline_throughput_mbps: float | None = field(
        default=None, init=False, repr=False, compare=False
    )
    transitions: list[HealthTransition] = field(init=False, repr=False, compare=False)
    _good_streak: int = field(default=0, init=False, repr=False, compare=False)
    _notgood_streak: int = field(default=0, init=False, repr=False, compare=False)
    _bad_streak: int = field(default=0, init=False, repr=False, compare=False)
    _gray_streak: int = field(default=0, init=False, repr=False, compare=False)
    _last_notgood_time: float = field(
        default=-math.inf, init=False, repr=False, compare=False
    )
    _since: float = field(default=0.0, init=False, repr=False, compare=False)
    _time_in_state: dict[PathState, float] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._since = self.created_at
        self._time_in_state = {s: 0.0 for s in PathState}
        self.transitions = []

    # ------------------------------------------------------------------
    # observation classification
    # ------------------------------------------------------------------
    def _classify(self, probe: ProbeResult) -> str:
        """"good" | "degraded" | "gray" | "bad" for one probe result.

        The gray branch is the cross-check: the pings came back clean
        (loss and RTT both fine) yet the throughput probe collapsed
        against this path's own learned baseline.  Ping-visible
        problems always win — a path that is visibly lossy or slow is
        DEGRADED, not GRAY, however bad its throughput.
        """
        if not probe.ok or probe.loss >= self.config.fail_loss:
            return "bad"
        if probe.loss >= self.config.degrade_loss:
            return "degraded"
        if (
            self.baseline_rtt_ms is not None
            and probe.rtt_ms > self.baseline_rtt_ms * self.config.degrade_rtt_factor
        ):
            return "degraded"
        if (
            self.config.gray_detect
            and probe.throughput_mbps is not None
            and self.baseline_throughput_mbps is not None
            and probe.throughput_mbps
            < self.baseline_throughput_mbps * self.config.gray_throughput_factor
        ):
            return "gray"
        return "good"

    def _update_baseline(self, probe: ProbeResult) -> None:
        alpha = self.config.baseline_alpha
        if self.baseline_rtt_ms is None:
            self.baseline_rtt_ms = probe.rtt_ms
        else:
            self.baseline_rtt_ms = (
                alpha * probe.rtt_ms + (1.0 - alpha) * self.baseline_rtt_ms
            )
        if probe.throughput_mbps is None or probe.throughput_mbps <= 0.0:
            return
        if self.baseline_throughput_mbps is None:
            self.baseline_throughput_mbps = probe.throughput_mbps
        else:
            self.baseline_throughput_mbps = (
                alpha * probe.throughput_mbps
                + (1.0 - alpha) * self.baseline_throughput_mbps
            )

    # ------------------------------------------------------------------
    # the machine
    # ------------------------------------------------------------------
    def observe(self, probe: ProbeResult) -> HealthTransition | None:
        """Feed one probe result; returns the transition it caused, if any."""
        if probe.label != self.label:
            raise ControlError(
                f"probe for {probe.label!r} fed to health machine of {self.label!r}"
            )
        kind = self._classify(probe)
        if kind == "good":
            self._good_streak += 1
            self._notgood_streak = 0
            self._bad_streak = 0
            self._gray_streak = 0
            self._update_baseline(probe)
        else:
            self._good_streak = 0
            self._notgood_streak += 1
            self._bad_streak = self._bad_streak + 1 if kind == "bad" else 0
            self._gray_streak = self._gray_streak + 1 if kind == "gray" else 0
            self._last_notgood_time = probe.at_time
        return self._maybe_transition(probe.at_time, kind)

    def _maybe_transition(self, now: float, kind: str) -> HealthTransition | None:
        cfg = self.config
        new: PathState | None = None
        if self.state is not PathState.FAILED and self._bad_streak >= cfg.fail_after:
            new = PathState.FAILED
        elif (
            self.state in (PathState.HEALTHY, PathState.DEGRADED)
            and self._gray_streak >= cfg.gray_after
        ):
            new = PathState.GRAY
        elif self.state is PathState.HEALTHY and self._notgood_streak >= cfg.degrade_after:
            new = PathState.DEGRADED
        elif self.state is PathState.FAILED and self._good_streak >= cfg.recover_after:
            new = PathState.DEGRADED
        elif self.state is PathState.GRAY and self._good_streak >= cfg.recover_after:
            # No recovery hold: a recovered throughput probe is direct
            # evidence the bulk plane works again, not circumstantial.
            new = PathState.HEALTHY
        elif (
            self.state is PathState.DEGRADED
            and self._good_streak >= cfg.recover_after
            and now - self._last_notgood_time >= cfg.recovery_hold_s
        ):
            new = PathState.HEALTHY
        if new is None or new is self.state:
            return None
        transition = HealthTransition(label=self.label, at_time=now, old=self.state, new=new)
        self._time_in_state[self.state] += now - self._since
        self._since = now
        self.state = new
        # A promotion step consumes the good streak: FAILED -> DEGRADED
        # -> HEALTHY takes recover_after good probes *per step*.
        if new in (PathState.DEGRADED, PathState.HEALTHY) and kind == "good":
            self._good_streak = 0
        self.transitions.append(transition)
        return transition

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def time_in_state(self, now: float) -> dict[str, float]:
        """Seconds spent per state, the open interval charged to ``now``."""
        totals = {state.value: seconds for state, seconds in self._time_in_state.items()}
        totals[self.state.value] += max(0.0, now - self._since)
        return totals

    @property
    def usable(self) -> bool:
        """True while the path may carry traffic (not FAILED)."""
        return self.state is not PathState.FAILED
