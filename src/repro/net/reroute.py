"""BGP/IGP re-convergence: live-aware path expansion around failures.

A real partial outage — one PoP of a transit AS goes dark — does not
make BGP abandon the AS.  Convergence happens inside-out: the IGP
detours around failed backbone links first, hot-potato egress moves to
the nearest *surviving* interconnect, and only when the AS cannot carry
the traffic at all does BGP fall over to an entirely different AS path
(RON, Andersen et al. SOSP 2001, is the classic study of how much
slack this leaves for overlays).  :meth:`Internet.resolve_live_path
<repro.net.world.Internet.resolve_live_path>` models that order by
re-expanding each candidate AS path through the helpers here before
moving on to the next candidate.

Everything in this module is a pure function of the current link
``failed`` flags: no state is kept, so rewinding the clock and
replaying a fault schedule reproduces identical convergence decisions.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING

from repro.errors import RoutingError
from repro.net.links import Link

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.net.world import Internet


def dark_routers(internet: "Internet") -> frozenset[int]:
    """Routers with every attached link failed — effectively powered off.

    A :class:`~repro.faults.events.PopOutage` takes down all links
    touching one PoP's router, which is exactly this condition; the
    live interconnect choice skips such routers the way BGP speakers
    drop sessions to a dead peer.
    """
    has_live: set[int] = set()
    has_failed: set[int] = set()
    for link in internet.links_by_id.values():
        bucket = has_failed if link.failed else has_live
        bucket.add(link.router_a)
        bucket.add(link.router_b)
    return frozenset(has_failed - has_live)


def internal_adjacency(
    internet: "Internet", asn: int, live: bool = False
) -> dict[int, list[tuple[int, Link]]]:
    """``router_id -> [(neighbor, link)]`` over the AS's internal mesh.

    Every router of the AS is a key.  Neighbours are listed in the
    order the edges were added, walking router pairs in creation
    order; :func:`shortest_routes` breaks ties on that order.  With
    ``live=True`` failed links are left out.
    """
    ids = [router.router_id for router in internet.routers.of_as(asn)]
    adjacency: dict[int, list[tuple[int, Link]]] = {rid: [] for rid in ids}
    for a in ids:
        for b in ids:
            link = internet._internal.get((a, b))
            if link is None or a > b or (live and link.failed):
                continue
            adjacency[a].append((b, link))
            adjacency[b].append((a, link))
    return adjacency


def shortest_routes(
    adjacency: dict[int, list[tuple[int, Link]]], source: int
) -> dict[int, tuple[tuple[int, ...], tuple[Link, ...]]]:
    """Delay-weighted shortest routes from ``source`` (Dijkstra).

    Returns ``target -> (router ids after source, links in order)`` for
    every reachable target but the source.  Ties break as in networkx's
    Dijkstra, which built the static routes before this one did:
    neighbours in adjacency order, equal distances popped first in
    first out, and a route replaced only by a strictly shorter one.
    """
    paths: dict[int, tuple[list[int], list[Link]]] = {source: ([], [])}
    best = {source: 0.0}
    done: set[int] = set()
    order = itertools.count()
    fringe = [(0.0, next(order), source)]
    while fringe:
        dist, _, node = heapq.heappop(fringe)
        if node in done:
            continue
        done.add(node)
        routers, links = paths[node]
        for neighbor, link in adjacency[node]:
            candidate = dist + link.prop_delay_ms
            if neighbor not in done and candidate < best.get(neighbor, float("inf")):
                best[neighbor] = candidate
                paths[neighbor] = (routers + [neighbor], links + [link])
                heapq.heappush(fringe, (candidate, next(order), neighbor))
    return {
        target: (tuple(routers), tuple(links))
        for target, (routers, links) in paths.items()
        if target != source
    }


def live_internal_route(
    internet: "Internet", asn: int, src_id: int, dst_id: int
) -> tuple[tuple[int, ...], tuple[Link, ...]]:
    """Shortest *live* intra-AS route (delay-weighted, Dijkstra).

    The IGP view of re-convergence: the same weights and tie-breaks as
    the precomputed static routes (propagation delay), but walking
    only non-failed links.  Returns ``(router ids after the start,
    links in order)`` like ``Internet._internal_route``; raises
    :class:`RoutingError` when the failure pattern disconnects the two
    routers.
    """
    if src_id == dst_id:
        return ((), ())
    route = shortest_routes(internal_adjacency(internet, asn, live=True), src_id).get(dst_id)
    if route is None:
        raise RoutingError(
            f"AS{asn} has no live internal route between routers {src_id} and {dst_id}"
        )
    return route


def reconvergence_delta_ms(
    internet: "Internet", src_name: str, dst_name: str, at_s: float = 0.0
) -> float | None:
    """RTT penalty of the converged path over the preferred one, in ms.

    Resolves both paths under the *current* fault state.  ``None`` when
    the preferred path is alive (nothing to converge around); raises
    :class:`RoutingError` when no live path exists at all.  Chaos
    reporting uses this to quote what the sibling-PoP detour costs.
    """
    preferred = internet.resolve_path(src_name, dst_name)
    if preferred.is_alive():
        return None
    converged = internet.resolve_live_path(src_name, dst_name)
    return converged.rtt_ms(at_s) - preferred.rtt_ms(at_s)
