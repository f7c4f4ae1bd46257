"""Valley-free BGP path computation with Gao–Rexford preferences.

For each destination AS we build a routing tree in three phases that
mirror how announcements propagate under the standard export rules:

1. **Customer routes** climb provider links (a provider learns the
   destination from a customer).  Exportable to everyone.
2. **Peer routes** cross exactly one peering link from an AS holding a
   customer (or self) route.  Exportable only to customers.
3. **Provider routes** descend customer links from any AS holding a
   route.  Exportable only to customers.

Route selection at every AS prefers customer > peer > provider
(LocalPref), then shortest AS path, then lowest next-hop ASN — a
deterministic stand-in for the remaining tie-breakers.  The resulting
paths are valley-free by construction.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.errors import RoutingError
from repro.net.topology import Topology


class RouteKind(enum.IntEnum):
    """Gao–Rexford preference classes (lower is preferred)."""

    SELF = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True, slots=True)
class Route:
    """A selected route at some AS toward a destination.

    ``path`` runs from the holding AS to the destination, inclusive of
    both (``path[0]`` is the holder, ``path[-1]`` the destination).
    """

    kind: RouteKind
    path: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of AS hops (edges) on the path."""
        return len(self.path) - 1

    def better_than(self, other: "Route | None") -> bool:
        """Standard decision process: LocalPref, AS-path length, tiebreak."""
        if other is None:
            return True
        mine = (self.kind, self.length, self.path[1] if len(self.path) > 1 else -1)
        theirs = (other.kind, other.length, other.path[1] if len(other.path) > 1 else -1)
        return mine < theirs


class BgpRouting:
    """Computes and caches per-destination routing trees over a topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: dict[int, dict[int, Route]] = {}

    def routes_to(self, dest_asn: int) -> dict[int, Route]:
        """Best route from every AS toward ``dest_asn``.

        ASes with no policy-compliant route are absent from the result.
        """
        if dest_asn not in self.topology.ases:
            raise RoutingError(f"unknown destination AS{dest_asn}")
        cached = self._cache.get(dest_asn)
        if cached is not None:
            return cached

        topo = self.topology
        routes: dict[int, Route] = {dest_asn: Route(RouteKind.SELF, (dest_asn,))}

        # --- phase 1: customer routes climb provider edges --------------
        heap: list[tuple[int, int, int, tuple[int, ...]]] = []
        counter = 0

        def push(length: int, next_hop: int, path: tuple[int, ...]) -> None:
            nonlocal counter
            heapq.heappush(heap, (length, next_hop, counter, path))
            counter += 1

        for provider in topo.providers_of(dest_asn):
            push(1, dest_asn, (provider, dest_asn))
        while heap:
            length, _next_hop, _c, path = heapq.heappop(heap)
            holder = path[0]
            candidate = Route(RouteKind.CUSTOMER, path)
            if not candidate.better_than(routes.get(holder)):
                continue
            routes[holder] = candidate
            for provider in topo.providers_of(holder):
                if provider not in routes:
                    push(length + 1, holder, (provider, *path))

        # --- phase 2: one peering hop -----------------------------------
        customer_holders = [
            (asn, r) for asn, r in routes.items() if r.kind in (RouteKind.SELF, RouteKind.CUSTOMER)
        ]
        peer_offers: dict[int, Route] = {}
        for holder, route in customer_holders:
            for peer in topo.peers_of(holder):
                offered = Route(RouteKind.PEER, (peer, *route.path))
                if offered.better_than(peer_offers.get(peer)):
                    peer_offers[peer] = offered
        for asn, offered in peer_offers.items():
            if offered.better_than(routes.get(asn)):
                routes[asn] = offered

        # --- phase 3: provider routes descend customer edges -------------
        heap = []
        counter = 0
        for holder, route in sorted(routes.items()):
            for customer in topo.customers_of(holder):
                push(route.length + 1, holder, (customer, *route.path))
        while heap:
            length, _next_hop, _c, path = heapq.heappop(heap)
            holder = path[0]
            candidate = Route(RouteKind.PROVIDER, path)
            if not candidate.better_than(routes.get(holder)):
                continue
            routes[holder] = candidate
            for customer in topo.customers_of(holder):
                push(length + 1, holder, (customer, *path))

        self._cache[dest_asn] = routes
        return routes

    def candidate_routes(self, src_asn: int, dest_asn: int) -> list[Route]:
        """Every route ``src_asn``'s neighbors would export to it.

        A multi-PoP AS (a cloud provider above all) holds several
        equally-preferred candidates and breaks the tie per PoP with
        hot-potato IGP distance — which is why traffic entering the
        same AS at different data centers can leave through different
        neighbors.  Export rules are the standard ones: customers and
        the destination itself export everything they selected that is
        customer-learned or self; peers and providers export only
        customer/self routes... from the *receiving* side: a route
        learned from a peer or provider is only exported to customers.
        """
        if src_asn not in self.topology.ases:
            raise RoutingError(f"unknown source AS{src_asn}")
        if src_asn == dest_asn:
            return [Route(RouteKind.SELF, (src_asn,))]
        routes = self.routes_to(dest_asn)
        topo = self.topology
        candidates: list[Route] = []

        def usable(neighbor_route: Route | None) -> bool:
            return neighbor_route is not None and src_asn not in neighbor_route.path

        for customer in topo.customers_of(src_asn):
            r = routes.get(customer)
            # A customer announces everything it uses to its provider?
            # No — only its customer-learned (and self) routes.
            if usable(r) and r.kind in (RouteKind.SELF, RouteKind.CUSTOMER):
                candidates.append(Route(RouteKind.CUSTOMER, (src_asn, *r.path)))
        for peer in topo.peers_of(src_asn):
            r = routes.get(peer)
            if usable(r) and r.kind in (RouteKind.SELF, RouteKind.CUSTOMER):
                candidates.append(Route(RouteKind.PEER, (src_asn, *r.path)))
        for provider in topo.providers_of(src_asn):
            r = routes.get(provider)
            # Providers export every route they selected to customers.
            if usable(r):
                candidates.append(Route(RouteKind.PROVIDER, (src_asn, *r.path)))
        return candidates

    def best_candidates(self, src_asn: int, dest_asn: int) -> list[Route]:
        """The equally-preferred subset of :meth:`candidate_routes`.

        Filters to the best (LocalPref class, AS-path length); the
        caller breaks the remaining tie — per-PoP hot potato in
        :meth:`repro.net.world.Internet.resolve_path`.
        """
        candidates = self.candidate_routes(src_asn, dest_asn)
        if not candidates:
            raise RoutingError(f"no policy-compliant route from AS{src_asn} to AS{dest_asn}")
        best_key = min((r.kind, r.length) for r in candidates)
        return [r for r in candidates if (r.kind, r.length) == best_key]
