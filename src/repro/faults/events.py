"""Fault-event taxonomy: what can go wrong, as pure functions of time.

The paper's biggest overlay wins come from transient events at
intermediate ISPs (Sec. IV); surviving them is half the pitch for MPTCP
path selection (Sec. VI-A).  This module describes everything from a
single-link on/off outage to the correlated scenarios a real overlay
meets:

* :class:`LinkOutage` — one or more links hard-down over a window,
* :class:`AsOutage` — every link touching an AS down together (the
  "an ISP had a bad day" event),
* :class:`PopOutage` — every link touching *one PoP* of an AS down
  (the partial outage BGP can re-converge around),
* :class:`RouteFlap` — periodic withdraw/re-announce cycles inside a
  window; each edge also forces re-resolution of cached routes,
* :class:`GrayFailure` — the link stays "up" but silently drops and/or
  delays a fraction of traffic,
* :class:`CongestionStorm` — a background-utilization surge across a
  set of links,
* probe-plane faults (:class:`ProbeBlackout`, :class:`ProbeLossBurst`,
  :class:`StaleProbeWindow`, :class:`ProbeTimeoutBurst`) — the
  *measurement* substrate lies or goes quiet while the data plane keeps
  running.

Every event is a pure function of simulated time: given ``t`` it
reports the exact effect it wants, so rewinding the clock and replaying
(the determinism contract every experiment relies on) reproduces the
same fault state bit-for-bit.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError, TopologyError, check

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    import numpy as np


@dataclass(frozen=True, slots=True)
class LinkEffect:
    """The impairment one or more fault events want on one link."""

    failed: bool = False
    extra_loss: float = 0.0
    extra_delay_ms: float = 0.0
    util_surge: float = 0.0
    #: Silent drop applied to bulk traffic only — pings never see it.
    bulk_extra_loss: float = 0.0

    def merge(self, other: "LinkEffect") -> "LinkEffect":
        """Compose two effects: outages dominate, impairments stack."""
        return LinkEffect(
            failed=self.failed or other.failed,
            # Independent drop processes: survival probabilities multiply.
            extra_loss=1.0 - (1.0 - self.extra_loss) * (1.0 - other.extra_loss),
            extra_delay_ms=self.extra_delay_ms + other.extra_delay_ms,
            util_surge=min(self.util_surge + other.util_surge, 1.0),
            bulk_extra_loss=1.0
            - (1.0 - self.bulk_extra_loss) * (1.0 - other.bulk_extra_loss),
        )


NO_EFFECT = LinkEffect()


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open time interval ``[start_s, start_s + duration_s)``."""

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        check(self.start_s, "window start_s", ge=0)
        check(self.duration_s, "window duration_s", gt=0)

    @property
    def end_s(self) -> float:
        """Absolute time the fault clears."""
        return self.start_s + self.duration_s

    def covers(self, t: float) -> bool:
        """True while the window contains time ``t``."""
        return self.start_s <= t < self.end_s


class FaultEvent(abc.ABC):
    """One data-plane fault affecting a fixed set of links."""

    #: Short scenario-log tag, e.g. ``as-outage``.
    kind: str = "fault"

    def __init__(self, link_ids: tuple[int, ...], window: Window) -> None:
        if not link_ids:
            raise ConfigError(f"{self.kind} event needs at least one link")
        if len(set(link_ids)) != len(link_ids):
            raise ConfigError(f"{self.kind} event has duplicate links {link_ids}")
        self.link_ids = tuple(sorted(link_ids))
        self.window = window

    @abc.abstractmethod
    def effect_at(self, t: float) -> LinkEffect:
        """The effect every affected link carries at time ``t``."""

    def phase_at(self, t: float) -> int:
        """Integer fingerprint of the event's state at ``t``.

        The injector re-applies effects only at phase edges for
        stateless events (0 = idle, 1 = active); flapping events return
        a per-cycle fingerprint so every withdraw/re-announce edge is
        visible.
        """
        return 1 if self.window.covers(t) else 0

    def describe(self) -> str:
        """One log line: kind, window, affected links."""
        links = ",".join(str(link_id) for link_id in self.link_ids)
        return (
            f"{self.kind} [{self.window.start_s:g}, {self.window.end_s:g})s "
            f"links={links}"
        )

    def down_windows(self) -> tuple[Window, ...]:
        """Intervals during which this event holds its links hard-down.

        Impairment-only events (gray failures, storms) return nothing;
        outages return their window; flapping events return one window
        per withdraw phase.  This is the raw material of the
        :meth:`~repro.faults.injector.FaultInjector.flap_count` query.
        """
        return ()


class LinkOutage(FaultEvent):
    """Hard outage of a set of links over one window."""

    kind = "link-outage"

    def effect_at(self, t: float) -> LinkEffect:
        """Hard-failed inside the window, untouched outside."""
        if not self.window.covers(t):
            return NO_EFFECT
        return LinkEffect(failed=True)

    def down_windows(self) -> tuple[Window, ...]:
        """The outage window itself: the links are down throughout."""
        return (self.window,)


class AsOutage(LinkOutage):
    """All links touching one AS down together — a correlated outage."""

    kind = "as-outage"

    def __init__(self, asn: int, link_ids: tuple[int, ...], window: Window) -> None:
        super().__init__(link_ids, window)
        self.asn = asn

    @classmethod
    def for_as(cls, internet, asn: int, window: Window) -> "AsOutage":
        """Collect every link with an endpoint router inside ``asn``."""
        router_ids = {router.router_id for router in internet.routers.of_as(asn)}
        if not router_ids:
            raise ConfigError(f"AS{asn} has no routers to fail")
        link_ids = tuple(
            link.link_id
            for link in internet.links_by_id.values()
            if link.router_a in router_ids or link.router_b in router_ids
        )
        return cls(asn=asn, link_ids=link_ids, window=window)

    def describe(self) -> str:
        """One line naming the failed AS and the affected links."""
        return f"{self.kind} AS{self.asn} " + super().describe().removeprefix(f"{self.kind} ")


class PopOutage(LinkOutage):
    """Every link touching *one PoP* of an AS down together.

    The partial counterpart of :class:`AsOutage` — and the paper's more
    common reality: transient events at intermediate ISPs rarely take a
    whole AS dark, they kill one PoP while the AS's other PoPs keep
    forwarding.  BGP/IGP can therefore re-converge *around* the sick
    region (:mod:`repro.net.reroute`) instead of abandoning the AS, the
    behaviour RON showed overlays must compete against.
    """

    kind = "pop-outage"

    def __init__(
        self, asn: int, city_name: str, link_ids: tuple[int, ...], window: Window
    ) -> None:
        super().__init__(link_ids, window)
        self.asn = asn
        self.city_name = city_name

    @classmethod
    def for_pop(
        cls, internet, asn: int, city_name: str, window: Window
    ) -> "PopOutage":
        """Collect every link touching AS ``asn``'s router in ``city_name``.

        Interconnects, internal backbone links and host access links at
        the PoP all go down together; the AS's other PoPs are left
        alone.  Unknown (asn, city) pairs raise :class:`ConfigError`.
        """
        try:
            router = internet.routers.at(asn, city_name)
        except TopologyError as exc:
            raise ConfigError(str(exc)) from None
        link_ids = tuple(
            link.link_id
            for link in internet.links_by_id.values()
            if router.router_id in (link.router_a, link.router_b)
        )
        if not link_ids:
            raise ConfigError(f"AS{asn} PoP {city_name!r} has no links to fail")
        return cls(asn=asn, city_name=city_name, link_ids=link_ids, window=window)

    def describe(self) -> str:
        """One line naming the failed PoP and the affected links."""
        return (
            f"{self.kind} AS{self.asn}@{self.city_name} "
            + super().describe().removeprefix(f"{self.kind} ")
        )


class RouteFlap(FaultEvent):
    """Withdraw/re-announce cycles: the link blinks inside the window.

    Each ``period_s`` starts with ``duty`` of downtime (withdrawn) and
    ends announced.  Every edge is a BGP event, so the injector drops
    the Internet's path cache at each phase change — fresh resolutions
    must not serve pre-flap routes.
    """

    kind = "route-flap"

    def __init__(
        self,
        link_ids: tuple[int, ...],
        window: Window,
        period_s: float,
        duty: float = 0.5,
    ) -> None:
        super().__init__(link_ids, window)
        self.period_s = check(period_s, "period_s", gt=0, le=window.duration_s)
        self.duty = check(duty, "duty", gt=0, lt=1)

    def _withdrawn(self, t: float) -> bool:
        offset = (t - self.window.start_s) % self.period_s
        return offset < self.period_s * self.duty

    def effect_at(self, t: float) -> LinkEffect:
        """Failed during withdraw phases, clean while announced."""
        if not self.window.covers(t) or not self._withdrawn(t):
            return NO_EFFECT
        return LinkEffect(failed=True)

    def phase_at(self, t: float) -> int:
        """Monotone phase counter; each edge is a BGP event."""
        if not self.window.covers(t):
            return 0
        cycle = int((t - self.window.start_s) // self.period_s)
        return 1 + 2 * cycle + (0 if self._withdrawn(t) else 1)

    def down_windows(self) -> tuple[Window, ...]:
        """One window per withdraw phase — each is a distinct failure."""
        windows = []
        start = self.window.start_s
        while start < self.window.end_s:
            down = min(self.period_s * self.duty, self.window.end_s - start)
            windows.append(Window(start_s=start, duration_s=down))
            start += self.period_s
        return tuple(windows)


class GrayFailure(FaultEvent):
    """The link reports up but silently drops/delays traffic.

    With ``bulk_only=True`` the drop strikes only full-size data
    segments: pings ride the priority queue and come back clean, so
    the ping-visible loss never moves.  This is the textbook gray
    failure — healthy by every lightweight check, broken for the
    traffic that matters — and the case the control plane's
    throughput/ping cross-check exists to catch.
    """

    kind = "gray-failure"

    def __init__(
        self,
        link_ids: tuple[int, ...],
        window: Window,
        drop_fraction: float,
        extra_delay_ms: float = 0.0,
        bulk_only: bool = False,
    ) -> None:
        super().__init__(link_ids, window)
        self.drop_fraction = check(drop_fraction, "drop_fraction", gt=0, le=1)
        self.extra_delay_ms = check(extra_delay_ms, "extra_delay_ms", ge=0)
        self.bulk_only = bulk_only

    def effect_at(self, t: float) -> LinkEffect:
        """Silent drop and delay; bulk-only mode spares the ping channel."""
        if not self.window.covers(t):
            return NO_EFFECT
        if self.bulk_only:
            return LinkEffect(
                bulk_extra_loss=self.drop_fraction,
                extra_delay_ms=self.extra_delay_ms,
            )
        return LinkEffect(
            extra_loss=self.drop_fraction, extra_delay_ms=self.extra_delay_ms
        )


class CongestionStorm(FaultEvent):
    """Background-utilization surge across a set of links."""

    kind = "congestion-storm"

    def __init__(
        self, link_ids: tuple[int, ...], window: Window, surge: float
    ) -> None:
        super().__init__(link_ids, window)
        self.surge = check(surge, "surge", gt=0, le=1)

    def effect_at(self, t: float) -> LinkEffect:
        """A background-utilization surge while the window covers ``t``."""
        if not self.window.covers(t):
            return NO_EFFECT
        return LinkEffect(util_surge=self.surge)


# ----------------------------------------------------------------------
# probe-plane faults
# ----------------------------------------------------------------------
class ProbeFaultKind(enum.Enum):
    """How the probe plane misbehaves for one probe attempt."""

    #: The probe (or its reply) never arrives: no result at all.
    LOST = "lost"
    #: The probe exceeds its deadline: an ok=False timeout result.
    TIMEOUT = "timeout"
    #: The measurement service answers from cache: the *previous* result
    #: is served again, original timestamp and all.
    STALE = "stale"


@dataclass(frozen=True, slots=True)
class ProbeFaultEvent:
    """One probe-plane fault over a window.

    ``probability`` < 1 makes the fault intermittent; each affected
    probe attempt draws independently from the injector's seeded stream.
    ``labels`` restricts the fault to specific candidate paths (empty =
    every path).
    """

    window: Window
    fault: ProbeFaultKind
    probability: float = 1.0
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        check(self.probability, "probability", gt=0, le=1)

    def applies(self, label: str, t: float, rng: np.random.Generator) -> bool:
        """Does this fault strike the probe of ``label`` at ``t``?"""
        if not self.window.covers(t):
            return False
        if self.labels and label not in self.labels:
            return False
        if self.probability >= 1.0:
            return True
        return bool(rng.random() < self.probability)

    def describe(self) -> str:
        """One log line: kind, window, probability, affected labels."""
        scope = ",".join(self.labels) if self.labels else "all paths"
        prob = "" if self.probability >= 1.0 else f" p={self.probability:g}"
        return (
            f"probe-{self.fault.value} [{self.window.start_s:g}, "
            f"{self.window.end_s:g})s{prob} on {scope}"
        )
