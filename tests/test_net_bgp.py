"""BGP policy routing: valley-freeness, preferences, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.net import BgpRouting, Relationship, RouteKind, Topology, TopologyConfig
from repro.net import generate_topology
from repro.net.asn import ASKind, AutonomousSystem
from repro.rand import RandomStreams


def build_line_topology():
    """stub1 -> transit1 -> t1a <peer> t1b <- transit2 <- stub2."""
    topo = Topology()

    def add(asn, name, kind, cities):
        return topo.add_as(
            AutonomousSystem(asn=asn, name=name, kind=kind, pop_cities=cities)
        )

    t1a = add(1, "t1a", ASKind.TIER1, ("new_york", "london"))
    t1b = add(2, "t1b", ASKind.TIER1, ("london", "tokyo"))
    tr1 = add(3, "tr1", ASKind.TRANSIT, ("new_york",))
    tr2 = add(4, "tr2", ASKind.TRANSIT, ("tokyo",))
    s1 = add(5, "s1", ASKind.STUB, ("new_york",))
    s2 = add(6, "s2", ASKind.STUB, ("tokyo",))
    topo.add_relation(t1a.asn, t1b.asn, Relationship.PEER)
    topo.add_relation(tr1.asn, t1a.asn, Relationship.CUSTOMER)
    topo.add_relation(tr2.asn, t1b.asn, Relationship.CUSTOMER)
    topo.add_relation(s1.asn, tr1.asn, Relationship.CUSTOMER)
    topo.add_relation(s2.asn, tr2.asn, Relationship.CUSTOMER)
    return topo


def is_valley_free(topo: Topology, path: tuple[int, ...]) -> bool:
    """Check the Gao–Rexford pattern: up* (peer)? down*."""
    if len(path) < 2:
        return True
    phase = "up"
    for a, b in zip(path, path[1:]):
        if b in topo.providers_of(a):
            step = "up"
        elif b in topo.peers_of(a):
            step = "peer"
        elif b in topo.customers_of(a):
            step = "down"
        else:  # pragma: no cover - would mean a phantom edge
            return False
        if phase == "up":
            phase = step
        elif phase == "peer":
            if step != "down":
                return False
            phase = "down"
        elif phase == "down" and step != "down":
            return False
    return True


class TestLineTopology:
    def test_stub_to_stub_crosses_core(self):
        topo = build_line_topology()
        bgp = BgpRouting(topo)
        assert bgp.routes_to(6)[5].path == (5, 3, 1, 2, 4, 6)

    def test_route_kinds(self):
        topo = build_line_topology()
        bgp = BgpRouting(topo)
        # transit1 reaches its customer stub1 via a customer route
        assert bgp.routes_to(5)[3].kind is RouteKind.CUSTOMER
        # t1a reaches t1b's customer cone via the peer route
        assert bgp.routes_to(6)[1].kind is RouteKind.PEER
        # stub1 reaches everything via its provider
        assert bgp.routes_to(6)[5].kind is RouteKind.PROVIDER

    def test_self_route(self):
        topo = build_line_topology()
        bgp = BgpRouting(topo)
        assert bgp.routes_to(5)[5].path == (5,)
        assert bgp.routes_to(5)[5].kind is RouteKind.SELF

    def test_unknown_destination(self):
        topo = build_line_topology()
        bgp = BgpRouting(topo)
        with pytest.raises(RoutingError):
            bgp.routes_to(999)

    def test_no_transit_through_peer_only_as(self):
        """A stub peering with another stub must not transit for it."""
        topo = build_line_topology()
        s3 = topo.add_as(
            AutonomousSystem(asn=7, name="s3", kind=ASKind.STUB, pop_cities=("new_york",))
        )
        topo.add_relation(s3.asn, 5, Relationship.PEER)  # s3 peers with s1 only
        bgp = BgpRouting(topo)
        # s3 has no providers: it can only reach s1 (its peer) and itself.
        assert bgp.routes_to(5)[7].path == (7, 5)
        assert 7 not in bgp.routes_to(6)

    def test_prefer_customer_over_peer(self):
        """A provider reaches its customer directly even if a peer also offers it."""
        topo = build_line_topology()
        # Give stub2 a second provider: t1a directly.
        topo.add_relation(6, 1, Relationship.CUSTOMER)
        bgp = BgpRouting(topo)
        route = bgp.routes_to(6)[1]
        assert route.kind is RouteKind.CUSTOMER
        assert route.path == (1, 6)


class TestGeneratedTopologyRouting:
    @pytest.fixture(scope="class")
    def routed(self):
        topo = generate_topology(TopologyConfig.small(), RandomStreams(seed=77))
        return topo, BgpRouting(topo)

    def test_full_reachability(self, routed):
        """Every AS pair must be connected (core is a clique)."""
        topo, bgp = routed
        asns = sorted(topo.ases)
        sample = asns[:: max(1, len(asns) // 12)]
        for dst in sample:
            routes = bgp.routes_to(dst)
            for src in asns:
                assert src in routes, f"AS{src} cannot reach AS{dst}"

    def test_all_paths_valley_free(self, routed):
        topo, bgp = routed
        asns = sorted(topo.ases)
        for dst in asns[:: max(1, len(asns) // 10)]:
            for src, route in bgp.routes_to(dst).items():
                assert is_valley_free(topo, route.path), (src, dst, route.path)

    def test_paths_are_simple(self, routed):
        """No AS appears twice on a selected path (loop-freedom)."""
        topo, bgp = routed
        asns = sorted(topo.ases)
        for dst in asns[:: max(1, len(asns) // 10)]:
            for route in bgp.routes_to(dst).values():
                assert len(set(route.path)) == len(route.path)

    def test_symmetric_computation_deterministic(self, routed):
        topo, bgp = routed
        fresh = BgpRouting(topo)
        asns = sorted(topo.ases)
        dst = asns[len(asns) // 2]
        assert {a: r.path for a, r in bgp.routes_to(dst).items()} == {
            a: r.path for a, r in fresh.routes_to(dst).items()
        }


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_valley_freeness_property(seed):
    """Across random small topologies, all routes stay valley-free."""
    cfg = TopologyConfig(n_tier1=3, n_transit=5, n_stub=8, n_academic=2, n_content=1)
    topo = generate_topology(cfg, RandomStreams(seed=seed))
    bgp = BgpRouting(topo)
    asns = sorted(topo.ases)
    dst = asns[seed % len(asns)]
    for route in bgp.routes_to(dst).values():
        assert is_valley_free(topo, route.path)
        assert len(set(route.path)) == len(route.path)
