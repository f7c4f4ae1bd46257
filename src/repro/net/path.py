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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import RoutingError
from repro.net.links import Link


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

    Paths resolved by a fastpath-enabled world carry a ``_fastpath``
    handle (attached via ``object.__setattr__`` — the dataclass is
    frozen but not slotted) through which ``is_alive``/``metrics``
    read the vectorized struct-of-arrays mirror instead of walking
    links; results are bit-identical (see :mod:`repro.net.fastpath`).
    Hand-built paths have no handle and always take the object walk.
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

    def is_alive(self) -> bool:
        """False if any constituent link has failed."""
        fastpath = self.__dict__.get("_fastpath")
        if fastpath is not None:
            return fastpath.path_alive(self)
        return not any(link.failed for link in self.links)

    def metrics(self, t: float) -> PathMetrics:
        """Aggregate path metrics at absolute time ``t`` (seconds)."""
        fastpath = self.__dict__.get("_fastpath")
        if fastpath is not None:
            vectorized = fastpath.path_metrics(self, t)
            if vectorized is not None:
                return vectorized
        one_way = 0.0
        survive = 1.0
        survive_bulk = 1.0
        avail = float("inf")
        capacity = float("inf")
        for link in self.links:
            one_way += link.one_way_delay_ms(t)
            survive *= 1.0 - link.loss(t)
            survive_bulk *= 1.0 - link.bulk_loss(t)
            avail = min(avail, link.available_bw_mbps(t))
            capacity = min(capacity, link.capacity_mbps)
        return PathMetrics(
            rtt_ms=2.0 * one_way,
            loss=1.0 - survive,
            available_bw_mbps=avail,
            capacity_mbps=capacity,
            bulk_loss=1.0 - survive_bulk,
        )

    def rtt_ms(self, t: float) -> float:
        """Round-trip time at time ``t`` (convenience accessor)."""
        return self.metrics(t).rtt_ms

    def loss(self, t: float) -> float:
        """End-to-end loss fraction at time ``t`` (convenience accessor)."""
        return self.metrics(t).loss

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
        fastpath = self.__dict__.get("_fastpath") or other.__dict__.get("_fastpath")
        if fastpath is not None:
            object.__setattr__(joined, "_fastpath", fastpath)
        return joined
