"""Link model: capacity, propagation delay, queuing, loss, failure.

Links are undirected; both directions share one load process.  The
metrics exposed here are the inputs to the transport models:

* ``utilization(t)`` — background load fraction,
* ``queuing_delay_ms(t)`` — M/M/1-style delay growing with load,
* ``loss(t)`` — base (physical/random) loss plus congestion loss once
  utilization passes a knee,
* ``available_bw(t)`` — headroom a new TCP flow can claim.

Besides the binary ``failed`` flag, a link can carry an *impairment*:
extra silent drop probability, extra one-way delay, and a background
utilization surge.  Impairments model gray failures and congestion
storms — the link reports itself "up" while quietly hurting traffic —
and are written by :class:`~repro.faults.injector.FaultInjector` as a
pure function of simulated time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import LinkError, check
from repro.net.congestion import BackgroundLoad


class LinkClass(enum.Enum):
    """Where a link sits in the Internet; controls its congestion profile."""

    T1_PEERING = "t1_peering"  # Tier-1 <-> Tier-1 interconnect (the hot core)
    T1_TRANSIT = "t1_transit"  # Tier-1 <-> transit customer link
    TRANSIT_PEERING = "transit_peering"  # transit <-> transit IXP peering
    ACCESS = "access"  # transit/T1 <-> stub customer link
    CLOUD_PEERING = "cloud_peering"  # cloud AS <-> ISP at an IXP
    CLOUD_TRANSIT = "cloud_transit"  # cloud AS <-> Tier-1 transit
    COLO_PEERING = "colo_peering"  # colo facility <-> ISP over the IXP fabric
    COLO_TRANSIT = "colo_transit"  # colo facility <-> its blended IP transit
    INTERNAL = "internal"  # intra-AS backbone link
    CLOUD_BACKBONE = "cloud_backbone"  # cloud private inter-DC backbone
    HOST_ACCESS = "host_access"  # last-mile host <-> router link


#: Global link-mutation epoch.  Bumped by every state mutation on any
#: link (``fail``/``restore``/``impair``/``clear_impairment``) so that
#: derived caches — the fastpath struct-of-arrays mirror, BGP
#: decision-adjacent memos, reroute reachability sets — can detect
#: staleness with one integer compare instead of re-walking link
#: objects.  The counter is process-global rather than per-world:
#: sharing it across worlds only causes spurious (safe) invalidation,
#: never a stale read.
_EPOCH = 0


def mutation_epoch() -> int:
    """Current global link-mutation epoch (see :data:`_EPOCH`)."""
    return _EPOCH


def _bump_epoch() -> None:
    global _EPOCH
    _EPOCH += 1


#: Utilization above which congestion loss sets in.
LOSS_KNEE = 0.82
#: Utilization above which queues start to build.
QUEUE_KNEE = 0.60
#: Maximum congestion-induced loss fraction at full utilization.
MAX_CONGESTION_LOSS = 0.035
#: Minimum share of a saturated link a persistent TCP flow still gets.
MIN_FAIR_SHARE = 0.02


@dataclass(slots=True)
class Link:
    """A physical (or virtual) link between two routers.

    Parameters
    ----------
    link_id:
        Globally unique id, stable across runs for a given world seed.
    router_a / router_b:
        Router ids of the two endpoints (order carries no meaning).
    capacity_mbps:
        Raw capacity.
    prop_delay_ms:
        One-way propagation delay.
    base_loss:
        Load-independent loss fraction (fiber errors, shallow buffers).
    load:
        Background utilization process.
    max_queue_ms:
        Cap on queuing delay (buffer depth / capacity).
    """

    link_id: int
    router_a: int
    router_b: int
    capacity_mbps: float
    prop_delay_ms: float
    base_loss: float
    link_class: LinkClass
    load: BackgroundLoad
    max_queue_ms: float = 40.0
    failed: bool = field(default=False)
    #: Gray-failure drop probability added on top of base/congestion loss.
    extra_loss: float = field(default=0.0)
    #: Gray-failure delay added to every traversal (one-way, ms).
    extra_delay_ms: float = field(default=0.0)
    #: Congestion-storm surge added to background utilization.
    util_surge: float = field(default=0.0)
    #: Silent drop applied to *bulk* traffic only: small control packets
    #: (pings) ride the priority queue and never see it.  This is the
    #: differential-observability gray failure — the link answers pings
    #: while dropping full-size data segments.
    bulk_extra_loss: float = field(default=0.0)

    def __post_init__(self) -> None:
        check(self.capacity_mbps, "capacity_mbps", gt=0)
        check(self.prop_delay_ms, "prop_delay_ms", ge=0)
        check(self.base_loss, "base_loss", ge=0, le=1)
        check(self.max_queue_ms, "max_queue_ms", ge=0)
        if self.router_a == self.router_b:
            raise LinkError(f"link {self.link_id} is a self-loop at router {self.router_a}")

    def utilization(self, t: float) -> float:
        """Background utilization at time ``t`` (0 when failed: no traffic)."""
        if self.failed:
            return 0.0
        return min(self.load.utilization(t) + self.util_surge, 1.0)

    def queuing_delay_ms(self, t: float) -> float:
        """One-way queuing delay from background load at time ``t``.

        Routers keep their buffers (sized to ``max_queue_ms`` worth of
        line rate) mostly empty below :data:`QUEUE_KNEE` utilization and
        fill them quadratically as load approaches saturation — the
        standing-queue behaviour congested core links exhibit.
        """
        u = self.utilization(t)
        if u <= QUEUE_KNEE:
            return 0.0
        fill = (u - QUEUE_KNEE) / (1.0 - QUEUE_KNEE)
        return self.max_queue_ms * fill * fill

    def loss(self, t: float) -> float:
        """Packet loss fraction at time ``t``.

        Congestion loss grows quadratically past :data:`LOSS_KNEE`,
        reaching :data:`MAX_CONGESTION_LOSS` at full utilization.
        """
        if self.failed:
            return 1.0
        u = self.utilization(t)
        congestion = 0.0
        if u > LOSS_KNEE:
            severity = (u - LOSS_KNEE) / (1.0 - LOSS_KNEE)
            congestion = MAX_CONGESTION_LOSS * severity * severity
        clean = min(self.base_loss + congestion, 1.0)
        if self.extra_loss <= 0.0:
            return clean
        # Gray-failure drops are independent of congestion drops.
        return min(1.0 - (1.0 - clean) * (1.0 - self.extra_loss), 1.0)

    def bulk_loss(self, t: float) -> float:
        """Loss fraction full-size data segments see at time ``t``.

        Equals :meth:`loss` plus the bulk-only silent drop (independent
        processes).  Ping probes read :meth:`loss`; transfers pay this.
        """
        visible = self.loss(t)
        if self.bulk_extra_loss <= 0.0:
            return visible
        return min(1.0 - (1.0 - visible) * (1.0 - self.bulk_extra_loss), 1.0)

    def available_bw_mbps(self, t: float) -> float:
        """Bandwidth a new persistent flow can expect to claim at ``t``.

        Headroom ``(1 - u) * capacity``, floored at a minimal fair share
        — TCP on a saturated link still pushes background traffic aside
        a little rather than starving entirely.
        """
        if self.failed:
            return 0.0
        headroom = (1.0 - self.utilization(t)) * self.capacity_mbps
        return max(headroom, MIN_FAIR_SHARE * self.capacity_mbps)

    def one_way_delay_ms(self, t: float) -> float:
        """Propagation plus queuing plus impairment delay at time ``t``."""
        return self.prop_delay_ms + self.queuing_delay_ms(t) + self.extra_delay_ms

    def fail(self) -> None:
        """Take the link down (used by failure-injection experiments)."""
        self.failed = True
        _bump_epoch()

    def restore(self) -> None:
        """Bring a failed link back up."""
        self.failed = False
        _bump_epoch()

    def impair(
        self,
        extra_loss: float = 0.0,
        extra_delay_ms: float = 0.0,
        util_surge: float = 0.0,
        bulk_extra_loss: float = 0.0,
    ) -> None:
        """Set the link's impairment (replaces any previous one)."""
        check(extra_loss, "extra_loss", ge=0, le=1)
        check(util_surge, "util_surge", ge=0, le=1)
        check(extra_delay_ms, "extra_delay_ms", ge=0)
        check(bulk_extra_loss, "bulk_extra_loss", ge=0, le=1)
        self.extra_loss = extra_loss
        self.extra_delay_ms = extra_delay_ms
        self.util_surge = util_surge
        self.bulk_extra_loss = bulk_extra_loss
        _bump_epoch()

    def clear_impairment(self) -> None:
        """Remove any gray-failure/storm impairment."""
        self.extra_loss = 0.0
        self.extra_delay_ms = 0.0
        self.util_surge = 0.0
        self.bulk_extra_loss = 0.0
        _bump_epoch()
