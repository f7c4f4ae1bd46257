"""Graceful degradation: what the controller does when its data rots.

Routing decisions made on stale or lossy measurements misbehave exactly
when faults strike (the SMART/delay-based-routing observation).  The
degradation ladder keeps the controller honest about the quality of its
own inputs:

* **fresh** — probe results younger than ``stale_after_s``: decide
  normally, but hide stale per-path results and quarantined paths from
  the policy.
* **stale** — nothing fresh for ``stale_after_s``..``blackout_after_s``:
  *hold* the last decision.  Re-deciding on garbage is churn, not
  control.
* **blackout** — nothing fresh beyond ``blackout_after_s``: fall back
  to the one path that needs no overlay machinery to exist — the
  direct (BGP) path — until the probe plane returns.

Independently, a path whose health enters FAILED ``flap_threshold``
times within ``flap_window_s`` is *quarantined* for ``quarantine_s``:
a flapping path is worse than a dead one, because every recovery lures
the policy back just in time for the next failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.health import HealthTransition, PathState
from repro.errors import ControlError, check


@dataclass(frozen=True, slots=True)
class DegradationConfig:
    """Staleness bounds and quarantine thresholds."""

    #: Probe results older than this are hidden from the policy; when
    #: *every* result is older, the controller holds its last decision.
    stale_after_s: float = 120.0
    #: When nothing fresh has arrived for this long, fall back to the
    #: direct path instead of holding a possibly-dead choice.
    blackout_after_s: float = 300.0
    #: FAILED entries within the window that trigger quarantine.
    flap_threshold: int = 3
    #: Sliding window for counting FAILED entries.
    flap_window_s: float = 900.0
    #: How long a flapping path is excluded from selection.
    quarantine_s: float = 900.0

    def __post_init__(self) -> None:
        error = ControlError
        check(self.stale_after_s, "stale_after_s", gt=0, error=error)
        check(self.blackout_after_s, "blackout_after_s", ge=self.stale_after_s, error=error)
        # One failure is an outage, not a flap.
        check(self.flap_threshold, "flap_threshold", ge=2, error=error)
        check(self.flap_window_s, "flap_window_s", gt=0, error=error)
        check(self.quarantine_s, "quarantine_s", gt=0, error=error)


@dataclass(frozen=True, slots=True)
class Quarantine:
    """One path's exclusion window."""

    label: str
    until: float


class DegradationGuard:
    """Tracks flap history and active quarantines for one controller."""

    def __init__(self, config: DegradationConfig) -> None:
        self.config = config
        self._failed_at: dict[str, list[float]] = {}
        self._quarantined_until: dict[str, float] = {}
        self.quarantines: list[Quarantine] = []

    def note_transition(self, transition: HealthTransition) -> Quarantine | None:
        """Feed one health transition; returns a new quarantine, if any.

        The direct path is never quarantined — it must remain
        available as the blackout safe harbour.
        """
        label = transition.label
        if transition.new is not PathState.FAILED or label == "direct":
            return None
        times = self._failed_at.setdefault(label, [])
        times.append(transition.at_time)
        cutoff = transition.at_time - self.config.flap_window_s
        times[:] = [t for t in times if t >= cutoff]
        if len(times) < self.config.flap_threshold:
            return None
        if self.is_quarantined(label, transition.at_time):
            return None
        quarantine = Quarantine(
            label=label,
            until=transition.at_time + self.config.quarantine_s,
        )
        self._quarantined_until[label] = quarantine.until
        self.quarantines.append(quarantine)
        return quarantine

    def is_quarantined(self, label: str, now: float) -> bool:
        """True while ``label`` is excluded from selection."""
        until = self._quarantined_until.get(label)
        return until is not None and now < until
