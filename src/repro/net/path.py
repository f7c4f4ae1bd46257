"""Router-level paths and their aggregate metrics.

A :class:`RouterPath` is the resolved forwarding path between two
hosts: an alternating sequence of routers and the links between them
(including the last-mile host-access links).  Metric aggregation
follows the composition rules the transport models need:

* RTT — twice the sum of one-way (propagation + queuing) delays,
* loss — ``1 - prod(1 - loss_i)`` across links,
* bottleneck available bandwidth — min across links,
* capacity — min link capacity.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import RoutingError
from repro.net.links import Link

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.net.fastpath import FastPath


@dataclass(frozen=True, slots=True)
class PathMetrics:
    """Aggregate metrics of a path evaluated at one time instant.

    ``loss`` is what small control packets (pings) observe;
    ``bulk_loss`` is what full-size data segments pay.  The two differ
    only under a bulk-only gray failure — the differential
    observability the control plane's cross-check exploits.  When not
    given, ``bulk_loss`` defaults to ``loss``.
    """

    rtt_ms: float
    loss: float
    available_bw_mbps: float
    capacity_mbps: float
    bulk_loss: float | None = None

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise RoutingError(f"negative RTT: {self.rtt_ms}")
        if not 0.0 <= self.loss <= 1.0:
            raise RoutingError(f"loss out of range: {self.loss}")
        if self.bulk_loss is None:
            object.__setattr__(self, "bulk_loss", self.loss)
        elif not 0.0 <= self.bulk_loss <= 1.0:
            raise RoutingError(f"bulk loss out of range: {self.bulk_loss}")


class HopMetrics(NamedTuple):
    """Per-link metric lists of one path at one instant, in link order.

    What the per-hop consumers read: the fluid engine's background load
    and exogenous loss, the packet engine's link snapshot, and
    traceroute's cumulative delay.
    """

    one_way_ms: list[float]
    loss: list[float]
    bulk_loss: list[float]
    available_bw_mbps: list[float]
    utilization: list[float]


class LegMetrics(NamedTuple):
    """Per-leg metric arrays of a batch of paths at one instant.

    The array twin of :class:`PathMetrics`: entry ``i`` of each array is
    what ``PathMetrics`` would hold for leg ``i``, bit for bit.
    """

    rtt_ms: np.ndarray
    loss: np.ndarray
    bulk_loss: np.ndarray
    available_bw_mbps: np.ndarray
    capacity_mbps: np.ndarray

    @classmethod
    def stack(cls, metrics: Sequence[PathMetrics]) -> "LegMetrics":
        """Arrays of the given per-leg snapshots, in order."""
        return cls(
            *(
                np.array([getattr(m, name) for m in metrics], dtype=np.float64)
                for name in cls._fields
            )
        )

    def checked(self) -> "LegMetrics":
        """Self, or the :class:`PathMetrics` range error of the first bad leg."""
        loss, bulk = self.loss, self.bulk_loss
        bad = (
            (self.rtt_ms < 0)
            | ~((0.0 <= loss) & (loss <= 1.0))
            | ~((0.0 <= bulk) & (bulk <= 1.0))
        )
        if bad.any():
            # Building the leg's snapshot raises exactly the scalar error.
            i = int(bad.argmax())
            PathMetrics(
                rtt_ms=float(self.rtt_ms[i]),
                loss=float(loss[i]),
                available_bw_mbps=float(self.available_bw_mbps[i]),
                capacity_mbps=float(self.capacity_mbps[i]),
                bulk_loss=float(bulk[i]),
            )
        return self


@dataclass(frozen=True)
class RouterPath:
    """A resolved end-to-end path.

    ``router_ids`` lists every router traversed in order (the
    traceroute view).  ``links`` lists the links in traversal order;
    ``len(links)`` may exceed ``len(router_ids) - 1`` by up to 2
    because host-access links at the two ends have a host, not a
    router, on one side.

    Link metrics come from a :class:`~repro.net.fastpath.FastPath`
    mirror, ``_fastpath``: the resolving world's, attached via
    ``object.__setattr__`` (the dataclass is frozen but not slotted), or,
    for a hand-built path, a private one over its own links, built on
    first use.  ``tests/reference/link_metrics.py`` keeps the per-link walk
    the mirror reproduces bit for bit.
    """

    src_name: str
    dst_name: str
    router_ids: tuple[int, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise RoutingError(f"path {self.src_name}->{self.dst_name} has no links")

    @property
    def hop_count(self) -> int:
        """Router-level hop count (number of routers traversed)."""
        return len(self.router_ids)

    @functools.cached_property
    def _fastpath(self) -> "FastPath":
        """A private mirror over this path's links (unless one is attached)."""
        from repro.net.fastpath import FastPath  # fastpath imports this module

        links_by_id = {link.link_id: link for link in self.links}
        if len(links_by_id) != len({id(link) for link in self.links}):
            raise RoutingError(f"path {self.src_name}->{self.dst_name} reuses a link id")
        return FastPath(links_by_id)

    def is_alive(self) -> bool:
        """False if any constituent link has failed."""
        return self._fastpath.path_alive(self)

    def metrics(self, t: float) -> PathMetrics:
        """Aggregate path metrics at absolute time ``t`` (seconds)."""
        return self._fastpath.path_metrics(self, t)

    def hop_metrics(self, t: float) -> HopMetrics:
        """Each link's metrics at absolute time ``t``, in link order."""
        return self._fastpath.hop_metrics(self, t)

    def rtt_ms(self, t: float) -> float:
        """Round-trip time at time ``t`` (convenience accessor)."""
        return self.metrics(t).rtt_ms

    def concatenate(self, other: "RouterPath") -> "RouterPath":
        """Join two path segments at a shared point (A->O + O->B).

        Used to build the router-level view of a tunneled overlay path.
        The joined path keeps duplicate routers only once at the seam.
        """
        routers = list(self.router_ids)
        for rid in other.router_ids:
            if routers and rid == routers[-1]:
                continue
            routers.append(rid)
        joined = RouterPath(
            src_name=self.src_name,
            dst_name=other.dst_name,
            router_ids=tuple(routers),
            links=tuple(self.links) + tuple(other.links),
        )
        mirror = self.__dict__.get("_fastpath")
        if mirror is not None and other.__dict__.get("_fastpath") is mirror:
            object.__setattr__(joined, "_fastpath", mirror)
        return joined
