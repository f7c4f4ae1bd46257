"""Internet facade: construction, hosts, path resolution, clock, failures."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, RoutingError
from repro.faults import FaultInjector, LinkOutage, Window
from repro.net import Internet, LinkClass
from repro.net.path import RouterPath
from repro.net.world import HOST_ID_BASE


def _utilization(links, t: float) -> list[float]:
    """Each link's utilization at ``t``, read through one path over them."""
    return RouterPath("a", "b", (), tuple(links)).hop_metrics(t).utilization


class TestConstruction:
    def test_every_pop_has_router(self, small_internet):
        for asys in small_internet.topology.ases.values():
            for city_name in asys.pop_cities:
                router = small_internet.routers.at(asys.asn, city_name)
                assert router.asn == asys.asn

    def test_cloud_backbone_links_exist(self, small_internet):
        backbone = small_internet.links_of_class(LinkClass.CLOUD_BACKBONE)
        # 5 DCs, sparse backbone: at least a ring, at most a full mesh.
        assert 5 <= len(backbone) <= 10

    def test_t1_peering_links_exist(self, small_internet):
        assert small_internet.links_of_class(LinkClass.T1_PEERING)

    def test_core_runs_hotter_than_cloud(self, small_internet):
        t = 12 * 3600.0
        core = small_internet.links_of_class(LinkClass.T1_PEERING)
        cloud = small_internet.links_of_class(LinkClass.CLOUD_BACKBONE)
        core_util = sum(_utilization(core, t)) / len(core)
        cloud_util = sum(_utilization(cloud, t)) / len(cloud)
        assert core_util > cloud_util + 0.2

    def test_deterministic_build(self, small_internet):
        """Same seed -> identical link parameters."""
        from repro.net import TopologyConfig, generate_topology
        from repro.net.asn import ASKind
        from repro.rand import RandomStreams

        streams = RandomStreams(seed=1234)
        topo = generate_topology(TopologyConfig.small(), streams)
        t1s = [a.asn for a in topo.ases_of_kind(ASKind.TIER1)]
        transits = [a.asn for a in topo.ases_of_kind(ASKind.TRANSIT)]
        topo.add_cloud_as(
            "softcloud",
            ("dallas", "amsterdam", "tokyo", "san_jose", "washington_dc"),
            t1s[:2],
            transits,
        )
        twin = Internet(topo, streams)
        for link_id, link in small_internet.links_by_id.items():
            if link.link_class is LinkClass.HOST_ACCESS:
                continue  # twin has no hosts attached
            other = twin.links_by_id[link_id]
            assert other.capacity_mbps == link.capacity_mbps
            assert other.base_loss == link.base_loss
            assert other.load.base_util == link.load.base_util


def _networkx_routes(internet):
    """The internal routes as networkx's all-pairs Dijkstra builds them."""
    nx = pytest.importorskip("networkx")
    routes = {}
    for asys in internet.topology.ases.values():
        pops = internet.routers.of_as(asys.asn)
        if len(pops) <= 1:
            continue
        graph = nx.Graph()
        for router in pops:
            graph.add_node(router.router_id)
        for ra in pops:
            for rb in pops:
                link = internet._internal.get((ra.router_id, rb.router_id))
                if link is not None and ra.router_id < rb.router_id:
                    graph.add_edge(ra.router_id, rb.router_id, weight=link.prop_delay_ms)
        for src, targets in nx.all_pairs_dijkstra_path(graph):
            for dst, nodes in targets.items():
                if src != dst:
                    hops = tuple(internet._internal[(u, v)] for u, v in zip(nodes, nodes[1:]))
                    routes[(src, dst)] = (tuple(nodes[1:]), hops)
    return routes


class TestInternalRoutes:
    @pytest.mark.parametrize(
        ("seed", "scale"), [(1, "small"), (2, "small"), (3, "small"),
                            (4, "small"), (5, "small"), (7, "paper")]
    )
    def test_match_networkx_all_pairs_dijkstra(self, seed, scale):
        from repro.experiments.scenario import build_world

        internet = build_world(seed, scale).internet
        expected = _networkx_routes(internet)
        assert internet._internal_routes == expected

    def test_equal_weight_square_breaks_ties_first_in_first_out(self):
        from types import SimpleNamespace

        from repro.net.reroute import shortest_routes

        # 1 - 2
        # |   |      every side 1 ms: two equal routes between
        # 4 - 3      opposite corners.
        links = {}
        adjacency = {1: [], 2: [], 3: [], 4: []}
        for a, b in ((1, 2), (1, 4), (2, 3), (3, 4)):
            links[(a, b)] = links[(b, a)] = SimpleNamespace(prop_delay_ms=1.0)
            adjacency[a].append((b, links[(a, b)]))
            adjacency[b].append((a, links[(a, b)]))
        routes = {
            (source, target): route
            for source in adjacency
            for target, route in shortest_routes(adjacency, source).items()
        }
        # Neighbours in adjacency order ((1,2) before (1,4)), the
        # first-pushed equal-distance node popped first, and the
        # equal-length second route never replacing the first.
        assert routes[(1, 3)] == ((2, 3), (links[(1, 2)], links[(2, 3)]))
        assert routes[(3, 1)] == ((2, 1), (links[(3, 2)], links[(2, 1)]))
        assert routes[(2, 4)][0] == (1, 4)
        assert routes[(4, 2)][0] == (1, 2)
        assert len(routes) == 12


class TestHosts:
    def test_attach_creates_access_link(self, small_internet):
        host = small_internet.host("client")
        assert host.access_link.link_class is LinkClass.HOST_ACCESS
        assert host.access_link.capacity_mbps == host.nic_mbps
        assert host.host_id >= HOST_ID_BASE

    def test_duplicate_name_rejected(self, small_internet):
        with pytest.raises(ConfigError):
            small_internet.attach_host("client", small_internet.host("client").asn)

    def test_unknown_host_rejected(self, small_internet):
        with pytest.raises(ConfigError):
            small_internet.host("ghost")

    def test_explicit_access_parameters(self, small_internet):
        host = small_internet.attach_host(
            "pinned",
            small_internet.host("server").asn,
            nic_mbps=1_000.0,
            access_delay_ms=1.5,
            access_base_loss=2e-4,
        )
        assert host.access_link.prop_delay_ms == 1.5
        assert host.access_link.base_loss == 2e-4
        assert host.access_link.capacity_mbps == 1_000.0


class TestPathResolution:
    def test_path_endpoints(self, small_internet):
        path = small_internet.resolve_path("client", "server")
        client = small_internet.host("client")
        server = small_internet.host("server")
        assert path.router_ids[0] == client.host_id
        assert path.router_ids[-1] == server.host_id
        assert path.links[0] is client.access_link
        assert path.links[-1] is server.access_link

    def test_path_is_link_consistent(self, small_internet):
        """Consecutive links must share the router between them."""
        path = small_internet.resolve_path("client", "server")
        for i, (left, right) in enumerate(zip(path.links, path.links[1:])):
            shared_router = path.router_ids[i + 1]
            assert shared_router in (left.router_a, left.router_b)
            assert shared_router in (right.router_a, right.router_b)

    def test_path_cached(self, small_internet):
        p1 = small_internet.resolve_path("client", "server")
        p2 = small_internet.resolve_path("client", "server")
        assert p1 is p2

    def test_self_path_rejected(self, small_internet):
        with pytest.raises(RoutingError):
            small_internet.resolve_path("client", "client")

    def test_overlay_detour_differs_from_direct(self, small_internet):
        direct = small_internet.resolve_path("client", "server")
        leg1 = small_internet.resolve_path("client", "vm")
        leg2 = small_internet.resolve_path("vm", "server")
        overlay = leg1.concatenate(leg2)
        assert set(overlay.router_ids) != set(direct.router_ids)
        # Overlay traverses the cloud VM.
        assert small_internet.host("vm").host_id in overlay.router_ids

    def test_metrics_respond_to_time(self, small_internet):
        """Diurnal load must move path metrics across the day."""
        path = small_internet.resolve_path("client", "server")
        rtts = {round(path.metrics(h * 3600.0).rtt_ms, 3) for h in range(0, 24, 3)}
        assert len(rtts) > 1


class TestClockAndFailures:
    def test_clock_advances(self, small_internet):
        assert small_internet.now == 0.0
        small_internet.advance(10.0)
        assert small_internet.now == 10.0
        with pytest.raises(ConfigError):
            small_internet.advance(-1.0)

    def test_set_time(self, small_internet):
        small_internet.set_time(3_600.0)
        assert small_internet.now == 3_600.0
        with pytest.raises(ConfigError):
            small_internet.set_time(-5.0)

    def test_rewind_invalidates_path_cache(self, small_internet):
        # A backwards jump is a rewind-and-replay: any path resolved
        # under later fault state must not be served after it.
        before = small_internet.resolve_path("client", "server")
        small_internet.set_time(100.0)
        small_internet.set_time(0.0)
        after = small_internet.resolve_path("client", "server")
        assert after is not before
        assert after.router_ids == before.router_ids

    def test_forward_jump_keeps_path_cache(self, small_internet):
        before = small_internet.resolve_path("client", "server")
        small_internet.set_time(100.0)
        small_internet.set_time(200.0)
        assert small_internet.resolve_path("client", "server") is before

    def test_scheduled_failure_kills_and_restores_path(self, small_internet):
        path = small_internet.resolve_path("client", "server")
        victim = path.links[len(path.links) // 2]
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(victim.link_id,), window=Window(100.0, 50.0)))
        injector.install()

        small_internet.set_time(99.0)
        assert path.is_alive()
        small_internet.set_time(120.0)
        assert not path.is_alive()
        assert path.metrics(small_internet.now).loss == 1.0
        small_internet.set_time(200.0)
        assert path.is_alive()

    def test_failure_on_unknown_link_rejected(self, small_internet):
        with pytest.raises(ConfigError):
            FaultInjector(small_internet).add(
                LinkOutage(link_ids=(999_999,), window=Window(0.0, 1.0))
            )
