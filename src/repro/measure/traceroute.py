"""traceroute: per-hop view of a resolved path.

The controlled-sender campaign collects traceroute for every path
(Sec. II-B); the router lists feed the diversity-score analysis of
Sec. V-A.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.path import RouterPath
from repro.net.world import HOST_ID_BASE, Internet


@dataclass(frozen=True, slots=True)
class TracerouteHop:
    """One line of traceroute output."""

    hop_number: int
    node_id: int
    label: str
    address: str
    asn: int
    rtt_ms: float


def traceroute(internet: Internet, path: RouterPath, at_time: float) -> list[TracerouteHop]:
    """Trace a path: cumulative RTT to each node along it."""
    hops: list[TracerouteHop] = []
    one_way_ms = path.hop_metrics(at_time).one_way_ms
    cumulative_one_way = 0.0
    for i, node_id in enumerate(path.router_ids):
        if i > 0:
            cumulative_one_way += one_way_ms[i - 1]
        if node_id >= HOST_ID_BASE:
            host = next(
                (h for h in internet.hosts.values() if h.host_id == node_id), None
            )
            label = host.name if host else f"host-{node_id}"
            asn = host.asn if host else -1
            address = host.ip_address if host else "0.0.0.0"
        else:
            router = internet.routers.get(node_id)
            label = f"AS{router.asn}.{router.city_name}"
            asn = router.asn
            address = internet.addresses.router_address(node_id)
        hops.append(
            TracerouteHop(
                hop_number=i + 1,
                node_id=node_id,
                label=label,
                address=address,
                asn=asn,
                rtt_ms=2.0 * cumulative_one_way,
            )
        )
    return hops
