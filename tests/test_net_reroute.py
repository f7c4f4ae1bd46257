"""BGP convergence around failures (resolve_live_path)."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError
from repro.faults.events import PopOutage, Window
from repro.net import Internet, Relationship, Topology
from repro.net.asn import ASKind, AutonomousSystem
from repro.net.reroute import dark_routers, live_internal_route
from repro.net.world import HOST_ID_BASE
from repro.rand import RandomStreams


def build_sibling_pop_internet() -> Internet:
    """Two stubs joined by one transit with two PoPs (chicago, new_york).

    Both stubs interconnect with *both* transit PoPs, so when one PoP
    dies the only AS path can still be realised through the sibling —
    the partial-outage convergence the tentpole models.
    """
    topo = Topology()

    def add(asn, name, kind, cities):
        return topo.add_as(
            AutonomousSystem(asn=asn, name=name, kind=kind, pop_cities=cities)
        )

    add(10, "transit", ASKind.TRANSIT, ("chicago", "new_york"))
    add(1, "src-stub", ASKind.STUB, ("dallas",))
    add(2, "dst-stub", ASKind.STUB, ("london",))
    topo.add_relation(
        1, 10, Relationship.CUSTOMER,
        interconnect_cities=(("dallas", "chicago"), ("dallas", "new_york")),
    )
    topo.add_relation(
        2, 10, Relationship.CUSTOMER,
        interconnect_cities=(("london", "chicago"), ("london", "new_york")),
    )
    net = Internet(topo, RandomStreams(seed=9))
    net.attach_host("src", 1)
    net.attach_host("dst", 2)
    return net


class TestLivePathResolution:
    def test_returns_preferred_when_alive(self, small_internet):
        preferred = small_internet.resolve_path("client", "server")
        live = small_internet.resolve_live_path("client", "server")
        assert live is preferred

    def test_reroutes_around_failed_link(self, small_internet):
        preferred = small_internet.resolve_path("client", "server")
        # Fail a link in the middle (not the shared access links).
        victim = preferred.links[len(preferred.links) // 2]
        victim.fail()
        try:
            live = small_internet.resolve_live_path("client", "server")
            assert live.is_alive()
            assert all(link is not victim for link in live.links)
            # Endpoints unchanged.
            assert live.router_ids[0] == preferred.router_ids[0]
            assert live.router_ids[-1] == preferred.router_ids[-1]
        finally:
            victim.restore()

    def test_rerouted_path_may_cost_more(self, small_internet):
        """The fallback is policy-compliant but typically less preferred."""
        preferred = small_internet.resolve_path("client", "server")
        victim = preferred.links[len(preferred.links) // 2]
        victim.fail()
        try:
            live = small_internet.resolve_live_path("client", "server")
            # Same or more AS-level hops than the preferred route.
            assert live.hop_count >= 2
        finally:
            victim.restore()

    def test_access_link_failure_is_fatal(self, small_internet):
        """No alternative exists when the last mile itself is down."""
        client = small_internet.host("client")
        client.access_link.fail()
        try:
            with pytest.raises(RoutingError):
                small_internet.resolve_live_path("client", "server")
        finally:
            client.access_link.restore()

    def test_restoration_reverts_to_preferred(self, small_internet):
        preferred = small_internet.resolve_path("client", "server")
        victim = preferred.links[len(preferred.links) // 2]
        victim.fail()
        small_internet.resolve_live_path("client", "server")
        victim.restore()
        assert small_internet.resolve_live_path("client", "server") is preferred


class TestDecisionKey:
    """One shared ordering for pre-failure selection and fallback."""

    @pytest.mark.parametrize(
        "pair", [("client", "server"), ("client", "vm"), ("vm", "server")]
    )
    def test_selection_is_first_in_fallback_order(self, small_internet, pair):
        # The fallback loop in resolve_live_path sorts all candidate
        # routes by _decision_key; its first entry must be exactly what
        # _select_as_path picks, hot-potato tie-break included —
        # otherwise an undamaged prefix could "fail over" to a
        # different route than the one it prefers.
        src = small_internet.host(pair[0])
        dst = small_internet.host(pair[1])
        candidates = small_internet.bgp.candidate_routes(src.asn, dst.asn)
        first = min(
            candidates, key=lambda r: small_internet._decision_key(src, dst, r)
        )
        assert first.path == small_internet._select_as_path(src, dst)

    def test_fallback_for_undamaged_prefix_is_preferred_route(self, small_internet):
        # Damaging an unrelated host's path must not change what the
        # fallback machinery resolves for a healthy pair.
        preferred = small_internet.resolve_path("client", "server")
        unrelated = small_internet.resolve_path("client", "vm")
        victim = next(
            link for link in unrelated.links
            if link not in preferred.links
        )
        victim.fail()
        try:
            assert small_internet.resolve_live_path("client", "server") is preferred
        finally:
            victim.restore()


class TestDarkRouters:
    def test_no_failures_no_dark_routers(self, small_internet):
        assert dark_routers(small_internet) == frozenset()

    def test_pop_outage_darkens_exactly_its_router(self, small_internet):
        asn, city = next(
            (asys.asn, asys.pop_cities[0])
            for asys in small_internet.topology.ases.values()
            if len(asys.pop_cities) >= 2
        )
        router = small_internet.routers.at(asn, city)
        outage = PopOutage.for_pop(small_internet, asn, city, Window(0.0, 10.0))
        links = [small_internet.links_by_id[lid] for lid in outage.link_ids]
        for link in links:
            link.fail()
        try:
            assert router.router_id in dark_routers(small_internet)
        finally:
            for link in links:
                link.restore()
        assert router.router_id not in dark_routers(small_internet)

    def test_partially_failed_router_not_dark(self, small_internet):
        link = next(iter(small_internet.links_by_id.values()))
        link.fail()
        try:
            dark = dark_routers(small_internet)
            # Both endpoints still have other live links in small_internet.
            assert link.router_a not in dark
            assert link.router_b not in dark
        finally:
            link.restore()


class TestLiveInternalRoute:
    def multi_pop_asn(self, small_internet):
        return next(
            asys.asn
            for asys in small_internet.topology.ases.values()
            if len(asys.pop_cities) >= 3
        )

    def test_matches_static_route_when_clean(self, small_internet):
        asn = self.multi_pop_asn(small_internet)
        pops = small_internet.routers.of_as(asn)
        a, b = pops[0].router_id, pops[-1].router_id
        static = small_internet._internal_route(asn, a, b)
        live = live_internal_route(small_internet, asn, a, b)
        assert live == static

    def test_detours_around_failed_backbone_link(self, small_internet):
        asn = self.multi_pop_asn(small_internet)
        pops = small_internet.routers.of_as(asn)
        a, b = pops[0].router_id, pops[-1].router_id
        static = small_internet._internal_route(asn, a, b)
        victim = static[1][0]
        victim.fail()
        try:
            routers, links = live_internal_route(small_internet, asn, a, b)
            assert victim not in links
            assert routers[-1] == b
            assert not any(link.failed for link in links)
        finally:
            victim.restore()

    def test_disconnection_raises(self, small_internet):
        asn = self.multi_pop_asn(small_internet)
        pops = small_internet.routers.of_as(asn)
        a, b = pops[0].router_id, pops[-1].router_id
        cut = [
            link
            for (x, _y), link in small_internet._internal.items()
            if x == b
        ]
        for link in cut:
            link.fail()
        try:
            with pytest.raises(RoutingError):
                live_internal_route(small_internet, asn, a, b)
        finally:
            for link in cut:
                link.restore()


class TestSiblingPopConvergence:
    """A transit AS survives losing one PoP: traffic exits a sibling."""

    def test_reroute_stays_in_the_as_via_sibling_pop(self):
        net = build_sibling_pop_internet()
        preferred = net.resolve_path("src", "dst")
        transit_pops = [
            net.routers.get(rid)
            for rid in preferred.router_ids
            if rid < HOST_ID_BASE and net.routers.get(rid).asn == 10
        ]
        assert transit_pops, "preferred path must cross the transit"
        dead_city = transit_pops[0].city_name
        outage = PopOutage.for_pop(net, 10, dead_city, Window(0.0, 100.0))
        links = [net.links_by_id[lid] for lid in outage.link_ids]
        for link in links:
            link.fail()
        try:
            assert not preferred.is_alive()
            live = net.resolve_live_path("src", "dst")
            assert live.is_alive()
            assert not any(link.failed for link in live.links)
            survivors = [
                net.routers.get(rid)
                for rid in live.router_ids
                if rid < HOST_ID_BASE and net.routers.get(rid).asn == 10
            ]
            # Still carried by AS10 — through the surviving sibling PoP.
            assert survivors
            assert all(r.city_name != dead_city for r in survivors)
        finally:
            for link in links:
                link.restore()

    def test_losing_both_pops_is_fatal(self):
        net = build_sibling_pop_internet()
        link_ids = {
            lid
            for city in ("chicago", "new_york")
            for lid in PopOutage.for_pop(net, 10, city, Window(0.0, 1.0)).link_ids
        }
        for lid in link_ids:
            net.links_by_id[lid].fail()
        with pytest.raises(RoutingError):
            net.resolve_live_path("src", "dst")
