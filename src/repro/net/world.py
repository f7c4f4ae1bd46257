"""The :class:`Internet` facade: routers, links, hosts, path resolution.

This ties the substrate together: it materializes routers and links
from an AS :class:`~repro.net.topology.Topology`, assigns every link a
congestion profile by :class:`~repro.net.links.LinkClass`, attaches
hosts behind last-mile access links, and resolves host-to-host
router-level paths by expanding BGP AS paths with hot-potato egress
selection.

A single simulation clock (seconds) lives here; all link metrics are
functions of that clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError, RoutingError, TopologyError, check
from repro.geo import city_distance_km, propagation_delay_ms
from repro.net.addressing import AddressPlan
from repro.net.asn import ASKind
from repro.net.bgp import BgpRouting
from repro.net.congestion import BackgroundLoad, peak_hour_for_longitude
from repro.net.fastpath import FastPath
from repro.net.links import Link, LinkClass, mutation_epoch
from repro.net.path import RouterPath
from repro.net.reroute import (
    dark_routers,
    internal_adjacency,
    live_internal_route,
    shortest_routes,
)
from repro.net.routers import RouterRegistry
from repro.net.topology import Relationship, Topology
from repro.rand import RandomStreams

#: Host node ids start here so they never collide with router ids.
HOST_ID_BASE = 10_000_000

#: Cache-miss sentinel (``None`` is a meaningful cached value).
_MISSING = object()


@dataclass(frozen=True, slots=True)
class LinkClassProfile:
    """Congestion/capacity parameters for one link class.

    ``delay_inflation_range`` models physical path inflation: real
    circuits between two cities rarely follow the geodesic, and
    commodity transit fiber routes inflate far more than a cloud
    provider's engineered backbone — one of the levers that lets an
    overlay exit from a different data center *reduce* RTT.
    """

    capacity_mbps: float
    util_range: tuple[float, float]
    episode_rate_per_day: float
    episode_severity: float
    base_loss_log10_range: tuple[float, float]
    max_queue_ms: float = 40.0
    delay_inflation_range: tuple[float, float] = (1.0, 1.0)


#: Default per-class profiles.  Core interconnects run hot (Akella'03,
#: Kang & Gligor'14: bottlenecks within or connecting Tier-1 ASes);
#: cloud links are aggressively provisioned.
DEFAULT_PROFILES: dict[LinkClass, LinkClassProfile] = {
    LinkClass.T1_PEERING: LinkClassProfile(
        100_000, (0.48, 0.92), 2.2, 0.22, (-6.2, -4.2), 50.0, (1.0, 1.6)
    ),
    LinkClass.T1_TRANSIT: LinkClassProfile(
        40_000, (0.40, 0.86), 1.6, 0.18, (-6.2, -4.2), 45.0, (1.1, 2.4)
    ),
    LinkClass.TRANSIT_PEERING: LinkClassProfile(
        20_000, (0.35, 0.83), 1.6, 0.18, (-6.2, -4.2), 45.0, (1.1, 2.4)
    ),
    LinkClass.ACCESS: LinkClassProfile(
        10_000, (0.15, 0.65), 0.9, 0.12, (-6.5, -4.0), 35.0, (1.1, 2.6)
    ),
    LinkClass.CLOUD_PEERING: LinkClassProfile(
        40_000, (0.25, 0.62), 0.5, 0.12, (-6.5, -4.2), 30.0, (1.0, 1.3)
    ),
    LinkClass.CLOUD_TRANSIT: LinkClassProfile(
        40_000, (0.30, 0.68), 0.5, 0.12, (-6.5, -4.2), 30.0, (1.0, 1.3)
    ),
    # Colo facilities sit *on* the exchange: peering is a cross-connect
    # into the IXP fabric — short, clean, generously provisioned — and
    # transit is a blended in-building IP feed, cheap but commodity.
    LinkClass.COLO_PEERING: LinkClassProfile(
        100_000, (0.15, 0.55), 0.4, 0.10, (-7.0, -5.0), 20.0, (1.0, 1.1)
    ),
    LinkClass.COLO_TRANSIT: LinkClassProfile(
        40_000, (0.30, 0.70), 0.8, 0.14, (-6.5, -4.5), 35.0, (1.0, 1.4)
    ),
    LinkClass.INTERNAL: LinkClassProfile(
        100_000, (0.10, 0.45), 0.7, 0.10, (-6.5, -4.5), 25.0, (1.1, 2.8)
    ),
    LinkClass.CLOUD_BACKBONE: LinkClassProfile(
        100_000, (0.05, 0.20), 0.05, 0.05, (-8.0, -6.0), 15.0, (1.0, 1.15)
    ),
    LinkClass.HOST_ACCESS: LinkClassProfile(100, (0.05, 0.35), 0.1, 0.08, (-6.5, -3.8), 25.0),
}


@dataclass(frozen=True, slots=True)
class Host:
    """An endpoint attached to the Internet behind an access link."""

    host_id: int
    name: str
    asn: int
    city_name: str
    nic_mbps: float
    rwnd_bytes: int
    kind: str  # "planetlab" | "server" | "cloud_vm" | "colo_relay" | "generic"
    access_link: Link
    attachment_router_id: int
    ip_address: str = "0.0.0.0"


class Internet:
    """Materialized network + simulation clock + host registry."""

    def __init__(
        self,
        topology: Topology,
        streams: RandomStreams,
        profiles: dict[LinkClass, LinkClassProfile] | None = None,
    ) -> None:
        self.topology = topology
        self.streams = streams
        self.profiles = dict(DEFAULT_PROFILES)
        if profiles:
            self.profiles.update(profiles)
        self.routers = RouterRegistry()
        self.bgp = BgpRouting(topology)
        self.links_by_id: dict[int, Link] = {}
        self.hosts: dict[str, Host] = {}
        self._interconnect: dict[frozenset[int], Link] = {}
        self._internal: dict[tuple[int, int], Link] = {}
        #: (src router, dst router) -> (intermediate+dst router ids, links)
        self._internal_routes: dict[tuple[int, int], tuple[tuple[int, ...], tuple[Link, ...]]] = {}
        self._next_link_id = 1
        self._next_host_id = HOST_ID_BASE
        self._clock_s = 0.0
        #: Called with the new time after every clock move; an
        #: installed :class:`~repro.faults.injector.FaultInjector`
        #: hooks in here to take links down and bring them back.
        self.clock_hooks: list[Callable[[float], None]] = []
        self.addresses = AddressPlan()
        self._path_cache: dict[tuple[str, str], RouterPath] = {}
        #: BGP decision keys are pure functions of topology + geography
        #: (never of link state), so this memo lives forever.
        self._decision_key_cache: dict[tuple, tuple] = {}
        #: Link-state-dependent memos, valid only while the global link
        #: mutation epoch (repro.net.links.mutation_epoch) is unchanged;
        #: _sync_live_caches drops them the moment it moves.
        self._live_cache_epoch = -1
        self._dark_cache: frozenset[int] | None = None
        self._live_route_cache: dict[tuple[int, int, int], object] = {}
        self._live_path_cache: dict[tuple[str, str], object] = {}
        #: Vectorized link-state mirror: every path it resolves reads it.
        self.fastpath = FastPath(self.links_by_id)
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _link_rng(self) -> np.random.Generator:
        return self.streams.stream("links")

    def _new_link(
        self,
        router_a: int,
        router_b: int,
        link_class: LinkClass,
        prop_delay_ms: float,
        capacity_mbps: float | None = None,
        peak_lon: float = 0.0,
    ) -> Link:
        """Create a link with class-profile-driven congestion parameters."""
        profile = self.profiles[link_class]
        rng = self._link_rng()
        lo, hi = profile.util_range
        base_util = float(rng.uniform(lo, hi))
        log_lo, log_hi = profile.base_loss_log10_range
        base_loss = float(10.0 ** rng.uniform(log_lo, log_hi))
        infl_lo, infl_hi = profile.delay_inflation_range
        prop_delay_ms = prop_delay_ms * float(rng.uniform(infl_lo, infl_hi))
        link = Link(
            link_id=self._next_link_id,
            router_a=router_a,
            router_b=router_b,
            capacity_mbps=capacity_mbps if capacity_mbps is not None else profile.capacity_mbps,
            prop_delay_ms=prop_delay_ms,
            base_loss=base_loss,
            link_class=link_class,
            load=BackgroundLoad(
                base_util=base_util,
                peak_hour=peak_hour_for_longitude(peak_lon),
                episode_rate_per_day=profile.episode_rate_per_day,
                episode_severity=profile.episode_severity,
                seed=int(rng.integers(0, 2**31 - 1)),
            ),
            max_queue_ms=profile.max_queue_ms,
        )
        self._next_link_id += 1
        self.links_by_id[link.link_id] = link
        return link

    def _build(self) -> None:
        """Materialize routers, intra-AS meshes and inter-AS links."""
        # Routers: one per (AS, PoP city), each with an address from
        # its AS's block.
        for asys in sorted(self.topology.ases.values(), key=lambda a: a.asn):
            for city_name in asys.pop_cities:
                router = self.routers.create(asys.asn, city_name)
                self.addresses.assign_router(router.router_id, asys.asn)

        # Intra-AS backbones.  Small ASes get a full mesh; larger ones
        # a sparse ring-plus-nearest-neighbour backbone, so long
        # crossings traverse intermediate PoPs — the router-level
        # texture the diversity analysis of Sec. V-A depends on.
        for asys in self.topology.ases.values():
            link_class = (
                LinkClass.CLOUD_BACKBONE if asys.kind is ASKind.CLOUD else LinkClass.INTERNAL
            )
            pops = self.routers.of_as(asys.asn)
            for ra, rb in self._backbone_adjacency(pops):
                delay = propagation_delay_ms(ra.city.point, rb.city.point, inflation=1.4)
                link = self._new_link(
                    ra.router_id,
                    rb.router_id,
                    link_class,
                    delay,
                    peak_lon=(ra.city.point.lon + rb.city.point.lon) / 2,
                )
                self._internal[(ra.router_id, rb.router_id)] = link
                self._internal[(rb.router_id, ra.router_id)] = link
            adjacency = internal_adjacency(self, asys.asn)
            for source in adjacency:
                for target, route in shortest_routes(adjacency, source).items():
                    self._internal_routes[(source, target)] = route

        # Inter-AS links at each interconnect point.
        for relation in self.topology.relations:
            link_class = self._classify_relation(relation.a, relation.b, relation.rel)
            for city_a, city_b in relation.interconnect_cities:
                ra = self.routers.at(relation.a, city_a)
                rb = self.routers.at(relation.b, city_b)
                key = frozenset((ra.router_id, rb.router_id))
                if key in self._interconnect:
                    continue
                delay = propagation_delay_ms(ra.city.point, rb.city.point)
                link = self._new_link(
                    ra.router_id,
                    rb.router_id,
                    link_class,
                    max(delay, 0.05),
                    peak_lon=ra.city.point.lon,
                )
                self._interconnect[key] = link

    @staticmethod
    def _backbone_adjacency(pops) -> list[tuple]:
        """Adjacency of an AS's internal backbone.

        Up to 4 PoPs: full mesh.  Beyond that: a longitude-ordered ring
        plus each PoP's two nearest other PoPs — connected, sparse, and
        forcing long crossings through intermediate PoPs.
        """
        if len(pops) <= 1:
            return []
        if len(pops) <= 4:
            return list(itertools.combinations(pops, 2))
        edges: set[tuple[int, int]] = set()
        pairs: dict[tuple[int, int], tuple] = {}

        def add(ra, rb) -> None:
            key = (min(ra.router_id, rb.router_id), max(ra.router_id, rb.router_id))
            if key not in edges:
                edges.add(key)
                pairs[key] = (ra, rb)

        ring = sorted(pops, key=lambda r: (r.city.point.lon, r.router_id))
        for i, router in enumerate(ring):
            add(router, ring[(i + 1) % len(ring)])
        for router in pops:
            others = sorted(
                (o for o in pops if o.router_id != router.router_id),
                key=lambda o: (city_distance_km(router.city_name, o.city_name), o.router_id),
            )
            for neighbor in others[:2]:
                add(router, neighbor)
        return [pairs[key] for key in sorted(edges)]

    def _classify_relation(self, a: int, b: int, rel: Relationship) -> LinkClass:
        """Map an AS relationship onto a physical link class."""
        kind_a = self.topology.ases[a].kind
        kind_b = self.topology.ases[b].kind
        kinds = {kind_a, kind_b}
        if ASKind.CLOUD in kinds:
            return LinkClass.CLOUD_TRANSIT if rel is Relationship.CUSTOMER else (
                LinkClass.CLOUD_PEERING
            )
        if ASKind.COLO in kinds:
            return LinkClass.COLO_TRANSIT if rel is Relationship.CUSTOMER else (
                LinkClass.COLO_PEERING
            )
        if kinds == {ASKind.TIER1}:
            return LinkClass.T1_PEERING
        if ASKind.TIER1 in kinds and rel is Relationship.CUSTOMER:
            other = kind_a if kind_b is ASKind.TIER1 else kind_b
            return LinkClass.ACCESS if other.is_stub_like else LinkClass.T1_TRANSIT
        if rel is Relationship.PEER:
            return LinkClass.TRANSIT_PEERING
        return LinkClass.ACCESS

    # ------------------------------------------------------------------
    # hosts
    # ------------------------------------------------------------------
    def attach_host(
        self,
        name: str,
        asn: int,
        nic_mbps: float = 100.0,
        rwnd_bytes: int = 1_048_576,
        kind: str = "generic",
        access_delay_ms: float | None = None,
        access_base_loss: float | None = None,
        access_base_util: float | None = None,
        city_name: str | None = None,
    ) -> Host:
        """Attach a host to a PoP of AS ``asn``.

        The host sits behind a dedicated :data:`LinkClass.HOST_ACCESS`
        link whose capacity is the host NIC speed.  Last-mile delay and
        loss default to seeded draws; pass explicit values to pin them.
        ``city_name`` selects the PoP for multi-PoP ASes (defaults to
        the AS's first PoP).
        """
        if name in self.hosts:
            raise ConfigError(f"host name {name!r} already attached")
        asys = self.topology.ases.get(asn)
        if asys is None:
            raise TopologyError(f"cannot attach host to unknown AS{asn}")
        check(nic_mbps, "nic_mbps", gt=0)
        check(rwnd_bytes, "rwnd_bytes", gt=0)
        if city_name is None:
            city_name = asys.pop_cities[0]
        elif city_name not in asys.pop_cities:
            raise TopologyError(f"AS{asn} has no PoP in {city_name!r}")
        pop = self.routers.at(asn, city_name)
        rng = self.streams.stream("hosts")
        delay = (
            access_delay_ms if access_delay_ms is not None else float(rng.uniform(0.3, 3.0))
        )
        host_id = self._next_host_id
        self._next_host_id += 1
        link = self._new_link(
            host_id,
            pop.router_id,
            LinkClass.HOST_ACCESS,
            delay,
            capacity_mbps=nic_mbps,
            peak_lon=pop.city.point.lon,
        )
        if access_base_loss is not None:
            link.base_loss = access_base_loss
        if access_base_util is not None:
            link.load.base_util = access_base_util
        ip_address = self.addresses.assign_host(name, asn)
        host = Host(
            host_id=host_id,
            name=name,
            asn=asn,
            city_name=city_name,
            nic_mbps=nic_mbps,
            rwnd_bytes=rwnd_bytes,
            kind=kind,
            access_link=link,
            attachment_router_id=pop.router_id,
            ip_address=ip_address,
        )
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Fetch a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise ConfigError(f"unknown host {name!r}") from None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._clock_s

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (>= 0); see :meth:`set_time`."""
        check(seconds, "advance seconds", ge=0)
        return self.set_time(self._clock_s + seconds)

    def set_time(self, t: float) -> float:
        """Jump the clock to absolute time ``t`` (seconds, >= 0).

        Backwards jumps are allowed — rewind-and-replay is the
        determinism contract every experiment relies on — but they drop
        the path cache: a route resolved under the later clock (e.g.
        mid-flap, after the injector invalidated and re-resolved) must
        not survive into the replayed history.  Clock hooks are then
        re-applied at ``t`` as usual; hooks must therefore be pure
        functions of time (``FaultInjector.apply`` is), not
        accumulators that assume monotonic ticks.
        """
        check(t, "time", ge=0)
        if t < self._clock_s:
            self.invalidate_path_cache()
        self._clock_s = t
        for hook in self.clock_hooks:
            hook(self._clock_s)
        return self._clock_s

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------
    def resolve_path(self, src_name: str, dst_name: str) -> RouterPath:
        """Router-level forwarding path between two attached hosts.

        Expands the BGP AS path: inside each AS, traffic rides the
        internal mesh from the ingress PoP to the egress interconnect
        chosen hot-potato (closest exit to the ingress).  Paths are
        structural (time-independent) and cached; metrics are evaluated
        lazily against the clock.
        """
        cache_key = (src_name, dst_name)
        cached = self._path_cache.get(cache_key)
        if cached is not None:
            return cached
        src = self.host(src_name)
        dst = self.host(dst_name)
        if src.host_id == dst.host_id:
            raise RoutingError(f"source and destination are the same host {src_name!r}")
        as_path = self._select_as_path(src, dst)
        path = self._expand_as_path(src, dst, as_path)
        self._path_cache[cache_key] = path
        return path

    def invalidate_path_cache(self) -> None:
        """Drop every cached host-to-host path.

        BGP withdraw/re-announce cycles (route flaps) change which
        forwarding path a fresh resolution returns; fault injectors call
        this at each flap edge so later ``resolve_path`` calls recompute
        instead of serving a pre-flap route.  Link-state-dependent memos
        (live paths, dark routers, live internal routes) drop with it —
        they are normally epoch-invalidated, but an explicit invalidate
        must never leave them behind.
        """
        self._path_cache.clear()
        self._live_path_cache.clear()
        self._live_route_cache.clear()
        self._dark_cache = None

    def _sync_live_caches(self) -> None:
        """Drop link-state-dependent memos if any link mutated.

        Keyed on the global mutation epoch rather than on callers
        remembering to invalidate: ``FaultInjector`` effect application
        mutates links *without* calling ``invalidate_path_cache`` (only
        flap edges do), and test code flips links directly — the epoch
        bump inside ``Link.fail``/``restore``/``impair`` catches every
        such write.
        """
        epoch = mutation_epoch()
        if epoch != self._live_cache_epoch:
            self._live_cache_epoch = epoch
            self._dark_cache = None
            self._live_route_cache.clear()
            self._live_path_cache.clear()

    def _dark_routers(self) -> frozenset[int]:
        """Epoch-cached :func:`repro.net.reroute.dark_routers`."""
        self._sync_live_caches()
        if self._dark_cache is None:
            self._dark_cache = dark_routers(self)
        return self._dark_cache

    def _live_internal(
        self, asn: int, src_id: int, dst_id: int
    ) -> tuple[tuple[int, ...], tuple[Link, ...]]:
        """Epoch-cached :func:`repro.net.reroute.live_internal_route`."""
        self._sync_live_caches()
        key = (asn, src_id, dst_id)
        cached = self._live_route_cache.get(key, _MISSING)
        if cached is _MISSING:
            try:
                cached = live_internal_route(self, asn, src_id, dst_id)
            except RoutingError:
                cached = None
            self._live_route_cache[key] = cached
        if cached is None:
            raise RoutingError(
                f"AS{asn} has no live internal route between routers "
                f"{src_id} and {dst_id}"
            )
        return cached

    def _has_live_internal(self, asn: int, src_id: int, dst_id: int) -> bool:
        """True when the AS's live internal mesh still connects the two routers."""
        try:
            self._live_internal(asn, src_id, dst_id)
        except RoutingError:
            return False
        return True

    def resolve_live_path(self, src_name: str, dst_name: str) -> RouterPath:
        """The best *currently working* path between two hosts.

        BGP withdraws routes over failed links and converges onto the
        next-best candidate; this models the post-convergence state: if
        the preferred path is down, every exportable candidate route is
        tried in decision-process order until one expands to a path
        with no failed link.  Results (including the no-live-path
        outcome) are memoized per link-mutation epoch — identical
        failure state always converges identically.
        """
        self._sync_live_caches()
        cache_key = (src_name, dst_name)
        cached = self._live_path_cache.get(cache_key)
        if cached is not None:
            if isinstance(cached, RoutingError):
                raise cached
            return cached
        try:
            resolved = self._resolve_live_path_cold(src_name, dst_name)
        except RoutingError as exc:
            self._live_path_cache[cache_key] = exc
            raise
        self._live_path_cache[cache_key] = resolved
        return resolved

    def _resolve_live_path_cold(self, src_name: str, dst_name: str) -> RouterPath:
        """Uncached convergence walk behind :meth:`resolve_live_path`."""
        preferred = self.resolve_path(src_name, dst_name)
        if preferred.is_alive():
            return preferred
        src = self.host(src_name)
        dst = self.host(dst_name)
        candidates = sorted(
            self.bgp.candidate_routes(src.asn, dst.asn),
            key=lambda r: self._decision_key(src, dst, r),
        )
        for route in candidates:
            candidate = self._expand_as_path(src, dst, route.path)
            if candidate.is_alive():
                return candidate
            # Before abandoning the AS path, let it re-converge: detour
            # the intra-AS meshes around failed links and exit through
            # surviving interconnects (sibling PoPs of a dead one).
            try:
                converged = self._expand_as_path(src, dst, route.path, live=True)
            except RoutingError:
                continue
            if converged.is_alive():
                return converged
        raise RoutingError(
            f"no live path from {src_name!r} to {dst_name!r}: every candidate "
            f"route crosses a failed link"
        )

    def _expand_as_path(
        self, src: Host, dst: Host, as_path: tuple[int, ...], live: bool = False
    ) -> RouterPath:
        """Expand an AS path to routers/links with hot-potato egress.

        With ``live=True`` the expansion models post-convergence
        forwarding: interconnect choice skips dead exits and the
        intra-AS meshes route around failed links (see
        :mod:`repro.net.reroute`).  Raises :class:`RoutingError` when
        the failure pattern leaves the AS path unrealisable.
        """
        router_ids: list[int] = [src.host_id]
        links: list[Link] = [src.access_link]
        current = src.attachment_router_id
        router_ids.append(current)

        for here_asn, next_asn in zip(as_path, as_path[1:]):
            egress, ingress, cross_link = self._choose_interconnect(
                here_asn, next_asn, current, live=live
            )
            if egress != current:
                hop_routers, hop_links = self._internal_route(
                    here_asn, current, egress, live=live
                )
                links.extend(hop_links)
                router_ids.extend(hop_routers)
            links.append(cross_link)
            router_ids.append(ingress)
            current = ingress

        if current != dst.attachment_router_id:
            hop_routers, hop_links = self._internal_route(
                dst.asn, current, dst.attachment_router_id, live=live
            )
            links.extend(hop_links)
            router_ids.extend(hop_routers)
        links.append(dst.access_link)
        router_ids.append(dst.host_id)

        path = RouterPath(
            src_name=src.name,
            dst_name=dst.name,
            router_ids=tuple(router_ids),
            links=tuple(links),
        )
        object.__setattr__(path, "_fastpath", self.fastpath)
        return path

    def _select_as_path(self, src: Host, dst: Host) -> tuple[int, ...]:
        """Per-PoP BGP selection at the source AS.

        Among the source AS's equally-preferred candidate routes, break
        the tie hot-potato: pick the route whose exit interconnect is
        closest to the source host's attachment PoP (then the lowest
        next-hop ASN).  A WDC VM and a Tokyo VM of the same cloud can
        therefore leave through different neighbors — the early-exit
        behaviour that gives CRONets its per-DC path diversity.
        """
        if src.asn == dst.asn:
            return (src.asn,)
        candidates = self.bgp.best_candidates(src.asn, dst.asn)
        chosen = min(candidates, key=lambda route: self._decision_key(src, dst, route))
        return chosen.path

    def _decision_key(self, src: Host, dst: Host, route) -> tuple:
        """Full BGP decision-process sort key for one candidate route.

        ``(LocalPref class, AS-path length, hot-potato tiebreak)`` — the
        single ordering both the pre-failure selection
        (:meth:`_select_as_path`) and the post-failure fallback
        (:meth:`resolve_live_path`) rank candidates by, so convergence
        never disagrees with the preferred decision process.

        The key depends only on topology and geography (never on link
        state or the clock), so it is memoized forever: re-ranking the
        candidate list after each failure episode no longer re-runs the
        haversine scan.
        """
        memo_key = (src.host_id, dst.asn, route.kind, route.length, route.path)
        cached = self._decision_key_cache.get(memo_key)
        if cached is None:
            cached = self._decision_key_cold(src, dst, route)
            self._decision_key_cache[memo_key] = cached
        return cached

    def _decision_key_cold(self, src: Host, dst: Host, route) -> tuple:
        """Uncached decision-key derivation behind :meth:`_decision_key`."""
        if len(route.path) < 2:
            return (route.kind, route.length, 0, 0, -1)
        next_asn = route.path[1]
        relation = self.topology.relation_between(src.asn, next_asn)
        src_city = self.routers.get(src.attachment_router_id).city_name
        best_km = float("inf")
        for city_a, city_b in relation.interconnect_cities:
            egress_city = city_a if relation.a == src.asn else city_b
            km = city_distance_km(src_city, egress_city)
            best_km = min(best_km, km)
        # Coarse distance buckets: IGP metrics are not geo-precise,
        # and near-ties break on router-level details that differ
        # per PoP — modelled as a stable per-(PoP, next-hop) hash.
        bucket = int(best_km // 500.0)
        igp_noise = hash((src.attachment_router_id, next_asn, dst.asn)) & 0xFFFF
        return (route.kind, route.length, bucket, igp_noise, next_asn)

    def _choose_interconnect(
        self, here_asn: int, next_asn: int, current_router: int, live: bool = False
    ) -> tuple[int, int, Link]:
        """Hot-potato egress: the interconnect whose exit PoP is nearest.

        Returns (egress router in here_asn, ingress router in next_asn,
        crossing link).  With ``live=True`` the choice is
        convergence-aware: interconnects whose crossing link is failed,
        whose endpoint routers are dark (every attached link down —
        e.g. a PoP outage), or whose egress the live internal mesh
        cannot reach are skipped, so traffic exits through a surviving
        sibling PoP instead.
        """
        relation = self.topology.relation_between(here_asn, next_asn)
        current_city = self.routers.get(current_router).city_name
        dark = self._dark_routers() if live else frozenset()
        best: tuple[float, int, int, Link] | None = None
        for city_a, city_b in relation.interconnect_cities:
            if relation.a == here_asn:
                egress = self.routers.at(here_asn, city_a)
                ingress = self.routers.at(next_asn, city_b)
            else:
                egress = self.routers.at(here_asn, city_b)
                ingress = self.routers.at(next_asn, city_a)
            link = self._interconnect[frozenset((egress.router_id, ingress.router_id))]
            if live:
                if (
                    link.failed
                    or egress.router_id in dark
                    or ingress.router_id in dark
                ):
                    continue
                if egress.router_id != current_router and not self._has_live_internal(
                    here_asn, current_router, egress.router_id
                ):
                    continue
            distance = city_distance_km(current_city, egress.city_name)
            candidate = (distance, egress.router_id, ingress.router_id, link)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        if best is None:
            detail = "live " if live else ""
            raise RoutingError(
                f"no {detail}interconnect between AS{here_asn} and AS{next_asn}"
            )
        return best[1], best[2], best[3]

    def _internal_route(
        self, asn: int, router_a: int, router_b: int, live: bool = False
    ) -> tuple[tuple[int, ...], tuple[Link, ...]]:
        """Shortest intra-AS route from ``router_a`` to ``router_b``.

        Returns (router ids after the start, links in order).  With
        ``live=True`` and a failed link on the precomputed static
        route, the IGP re-converges: the route is recomputed over the
        live internal mesh only (raising :class:`RoutingError` when
        the failures disconnect the pair).
        """
        route = self._internal_routes.get((router_a, router_b))
        if route is None:
            raise RoutingError(
                f"AS{asn} has no internal route between routers {router_a} and {router_b}"
            )
        if live and any(link.failed for link in route[1]):
            return self._live_internal(asn, router_a, router_b)
        return route

    # ------------------------------------------------------------------
    # link queries
    # ------------------------------------------------------------------
    def links_of_class(self, link_class: LinkClass) -> list[Link]:
        """All links of a class, ordered by id."""
        return [
            link
            for link in sorted(self.links_by_id.values(), key=lambda l: l.link_id)
            if link.link_class is link_class
        ]
