"""Deterministic fault injection against a live :class:`Internet`.

:class:`FaultInjector` owns a set of :class:`~repro.faults.events.
FaultEvent`\\ s and keeps every affected link's state consistent with
the *union* of active events as the clock moves.  It installs itself as
an Internet clock hook and is the one way the reproduction takes links
down on a schedule.  It restores only links it failed itself: a link
someone else ``fail()``-ed stays down when an overlapping event ends,
and ``uninstall`` leaves it down too.

Determinism contract: link effects are pure functions of time, so
rewinding the clock (``set_time(0.0)``) and replaying reproduces the
exact fault state sequence.  Probe-plane faults draw from a named
seeded stream; runs that issue the same probe sequence see the same
faults.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, check
from repro.faults.events import (
    FaultEvent,
    LinkEffect,
    NO_EFFECT,
    ProbeFaultEvent,
    ProbeFaultKind,
    RouteFlap,
    Window,
)
from repro.net.links import mutation_epoch
from repro.net.world import Internet


class FaultInjector:
    """Applies correlated fault events to an Internet's links."""

    def __init__(self, internet: Internet) -> None:
        self.internet = internet
        self.events: list[FaultEvent] = []
        self._installed = False
        #: Last seen phase fingerprint of every route-flap event, used
        #: to detect withdraw/re-announce edges between clock moves.
        self._flap_phases: dict[int, int] = {}
        self.route_recomputations = 0
        #: Impairment four-tuple last written per link, so steady-state
        #: ticks skip the redundant ``impair`` call (which would bump
        #: the global mutation epoch every tick and defeat every
        #: epoch-keyed cache).  Valid only while the epoch matches
        #: ``_applied_epoch`` — any outside mutation clears it.
        self._applied: dict[int, tuple[float, float, float, float]] = {}
        self._applied_epoch = -1
        #: Effects dict of the last reconcile pass + managed-link memo.
        #: When neither the composed effects nor the global epoch moved
        #: since that pass, the per-link loop is a provable no-op, so
        #: steady-state ticks skip it entirely.
        self._last_effects: dict[int, LinkEffect] | None = None
        self._managed_cache: tuple[int, set[int]] | None = None
        #: Links whose ``failed`` flag *this injector* set.  Only these
        #: are restored when their events end or on ``uninstall``; a
        #: link already down when an event began has another owner.
        self._held_down: set[int] = set()
        #: (event count, t) -> composed effects.  Effects are pure in
        #: (t, events), and campaign runs replay the same tick grid
        #: against one installed injector several times (once per
        #: arm × strategy), so the compose loop repeats verbatim.
        self._effects_cache: dict[tuple[int, float], dict[int, LinkEffect]] = {}

    def add(self, event: FaultEvent) -> FaultEvent:
        """Register one event; every link it names must exist."""
        unknown = [
            link_id
            for link_id in event.link_ids
            if link_id not in self.internet.links_by_id
        ]
        if unknown:
            raise ConfigError(f"{event.kind} event names unknown links {unknown}")
        self.events.append(event)
        self._last_effects = None  # force a full reconcile pass
        if isinstance(event, RouteFlap):
            self._flap_phases[id(event)] = event.phase_at(self.internet.now)
        return event

    def install(self) -> "FaultInjector":
        """Hook into the Internet clock and apply the current instant."""
        if not self._installed:
            self.internet.clock_hooks.append(self.apply)
            self._installed = True
        self.apply(self.internet.now)
        return self

    def uninstall(self) -> None:
        """Detach from the clock, clearing every injected effect.

        Restores only the links this injector failed; a link failed by
        someone else stays down.
        """
        if self._installed:
            self.internet.clock_hooks.remove(self.apply)
            self._installed = False
        for link_id in self.managed_links():
            link = self.internet.links_by_id[link_id]
            link.clear_impairment()
            if link_id in self._held_down and link.failed:
                link.restore()
        self._held_down.clear()
        self._applied.clear()
        self._applied_epoch = -1
        self._last_effects = None

    def managed_links(self) -> set[int]:
        """Union of every event's affected link ids (memoized per
        event-list length — events are only ever appended)."""
        cached = self._managed_cache
        if cached is not None and cached[0] == len(self.events):
            return cached[1]
        managed: set[int] = set()
        for event in self.events:
            managed.update(event.link_ids)
        self._managed_cache = (len(self.events), managed)
        return managed

    def effects_at(self, t: float) -> dict[int, LinkEffect]:
        """Composed per-link effect of every active event at ``t``.

        Memoized per (event count, t) — effects are a pure function of
        the event list and the instant, and replayed runs revisit the
        same instants.  Callers must treat the result as read-only.
        """
        key = (len(self.events), t)
        cached = self._effects_cache.get(key)
        if cached is not None:
            return cached
        effects: dict[int, LinkEffect] = {}
        for event in self.events:
            effect = event.effect_at(t)
            if effect is NO_EFFECT:
                continue
            for link_id in event.link_ids:
                current = effects.get(link_id)
                effects[link_id] = effect if current is None else current.merge(effect)
        if len(self._effects_cache) >= 4096:
            self._effects_cache.clear()
        self._effects_cache[key] = effects
        return effects

    def apply(self, t: float) -> None:
        """Reconcile every managed link with the fault state at ``t``."""
        effects = self.effects_at(t)
        if mutation_epoch() == self._applied_epoch and effects == self._last_effects:
            # Effects unchanged and no link mutated since the last
            # pass: the reconcile loop would be a no-op.
            self._check_flap_edges(t)
            return
        if mutation_epoch() != self._applied_epoch:
            # Links mutated outside this injector since the last apply
            # (test code, another injector): the recorded impairments
            # may no longer match reality, so re-write all of them.
            self._applied.clear()
        for link_id in self.managed_links():
            link = self.internet.links_by_id[link_id]
            effect = effects.get(link_id, NO_EFFECT)
            if effect.failed:
                if not link.failed:
                    link.fail()
                    self._held_down.add(link_id)
            elif link_id in self._held_down:
                self._held_down.discard(link_id)
                if link.failed:
                    link.restore()
            impairment = (
                effect.extra_loss,
                effect.extra_delay_ms,
                effect.util_surge,
                effect.bulk_extra_loss,
            )
            if self._applied.get(link_id) != impairment:
                link.impair(
                    extra_loss=effect.extra_loss,
                    extra_delay_ms=effect.extra_delay_ms,
                    util_surge=effect.util_surge,
                    bulk_extra_loss=effect.bulk_extra_loss,
                )
                self._applied[link_id] = impairment
        self._applied_epoch = mutation_epoch()
        self._last_effects = effects
        self._check_flap_edges(t)

    def _check_flap_edges(self, t: float) -> None:
        """Invalidate cached routes on every withdraw/re-announce edge."""
        edged = False
        for event in self.events:
            if not isinstance(event, RouteFlap):
                continue
            phase = event.phase_at(t)
            if self._flap_phases.get(id(event)) != phase:
                self._flap_phases[id(event)] = phase
                edged = True
        if edged:
            self.internet.invalidate_path_cache()
            self.route_recomputations += 1

    # ------------------------------------------------------------------
    # fault-history read API (consumed by flap-aware path selection)
    # ------------------------------------------------------------------
    def down_windows(
        self, link_id: int, since: float = 0.0, until: float = float("inf")
    ) -> tuple["Window", ...]:
        """Hard-down intervals of ``link_id`` overlapping ``[since, until)``.

        Collects every registered event's :meth:`~repro.faults.events.
        FaultEvent.down_windows` that names the link, keeps those
        overlapping the query range, and returns them sorted by start
        time.  Windows are reported as scheduled — they are a pure
        function of the event set, independent of the current clock.
        """
        if link_id not in self.internet.links_by_id:
            raise ConfigError(f"down_windows query names unknown link {link_id}")
        windows = [
            window
            for event in self.events
            if link_id in event.link_ids
            for window in event.down_windows()
            if window.end_s > since and window.start_s < until
        ]
        return tuple(sorted(windows, key=lambda w: (w.start_s, w.end_s)))

    def describe(self) -> str:
        """One line per registered event."""
        return "\n".join(event.describe() for event in self.events)


class PathFaultHistory:
    """Label-level fault history: the injector's link view, per path.

    The policy layer thinks in candidate-path labels, not link ids;
    this adapter maps each label to the links its path traverses and
    answers "how many times has this path failed recently?" — the
    :class:`~repro.control.policy.FaultHistory` that
    :class:`~repro.control.policy.BestPathPolicy` prices its
    flap-aware switch margin with.
    """

    def __init__(
        self,
        injector: FaultInjector,
        link_ids_by_label: dict[str, tuple[int, ...]],
        window_s: float = 900.0,
    ) -> None:
        self.injector = injector
        self.link_ids_by_label = dict(link_ids_by_label)
        self.window_s = check(window_s, "window_s", gt=0)

    def recent_failures(self, label: str, now: float) -> int:
        """Down-windows that *started* within ``window_s`` before ``now``.

        Unknown labels report zero — a candidate the injector never
        touched has no history, which must not be an error.
        """
        link_ids = self.link_ids_by_label.get(label)
        if not link_ids:
            return 0
        since = now - self.window_s
        count = 0
        for link_id in link_ids:
            count += sum(
                1
                for window in self.injector.down_windows(link_id, since, now)
                if window.start_s >= since and window.start_s < now
            )
        return count


class ProbeFaultModel:
    """Decides, per probe attempt, whether the probe plane misbehaves.

    The hardened :class:`~repro.control.probes.ProbeScheduler` consults
    this before measuring: the first registered event that strikes
    wins.  Draws come from the caller-supplied seeded generator, so the
    same probe sequence always sees the same faults.
    """

    def __init__(
        self, events: list[ProbeFaultEvent], rng: np.random.Generator
    ) -> None:
        self.events = list(events)
        self.rng = rng
        self.struck: dict[str, int] = {kind.value: 0 for kind in ProbeFaultKind}

    def outcome(self, label: str, now: float) -> ProbeFaultKind | None:
        """The fault striking ``label``'s probe at ``now``, if any."""
        for event in self.events:
            if event.applies(label, now, self.rng):
                self.struck[event.fault.value] += 1
                return event.fault
        return None

    def describe(self) -> str:
        """One line per registered probe-plane event."""
        return "\n".join(event.describe() for event in self.events)
