"""The colo substrate: facilities, pricing, the operator, RelaySite."""

from __future__ import annotations

import pytest

from repro.cloud.datacenter import PortSpeed
from repro.colo.facility import DEFAULT_COLO_CITIES, ColoFacility, validate_colo_cities
from repro.colo.operator import ColoOperator
from repro.colo.pricing import ColoPricingModel
from repro.colo.site import COLO_CPU_PPS, SUBSTRATES, RelaySite
from repro.demand.relay import DEFAULT_CPU_PPS, RelayCapacity
from repro.errors import BillingError, ColoError, TopologyError, TunnelError
from repro.net.asn import ASKind
from repro.net.links import LinkClass
from repro.net.topology import HUB_CITIES, TopologyConfig, generate_topology
from repro.net.world import Internet
from repro.rand import RandomStreams


class TestFacility:
    def test_must_sit_at_a_hub_city(self):
        with pytest.raises(ColoError):
            ColoFacility(name="x", city_name="atlanta")

    def test_validate_rejects_empty_dup_and_non_hub(self):
        with pytest.raises(ColoError):
            validate_colo_cities(())
        with pytest.raises(ColoError):
            validate_colo_cities(("london", "london"))
        with pytest.raises(ColoError):
            validate_colo_cities(("atlanta",))
        validate_colo_cities(DEFAULT_COLO_CITIES)

    def test_default_cities_are_hubs(self):
        assert set(DEFAULT_COLO_CITIES) <= set(HUB_CITIES)


class TestPricing:
    def test_site_price_is_the_sum_of_its_parts(self):
        pricing = ColoPricingModel()
        expected = 250.0 + 100.0 + 200.0 + 3 * 100.0 + 100.0 * 0.50
        assert pricing.site_monthly_usd(
            PortSpeed.GBPS_1, cross_connects=3, transit_commit_mbps=100.0
        ) == pytest.approx(expected)

    def test_port_fee_scales_with_speed(self):
        pricing = ColoPricingModel()
        assert pricing.port_fee_usd(PortSpeed.MBPS_100) < pricing.port_fee_usd(
            PortSpeed.GBPS_1
        ) < pricing.port_fee_usd(PortSpeed.GBPS_10)

    def test_guards(self):
        pricing = ColoPricingModel()
        with pytest.raises(BillingError):
            pricing.site_monthly_usd(cross_connects=0)
        with pytest.raises(BillingError):
            pricing.site_monthly_usd(transit_commit_mbps=-1.0)

    def test_colo_dwarfs_the_cloud_vm(self):
        # The trade the colo paper studies: ~an order of magnitude over
        # the paper's $20/month VM.
        assert ColoPricingModel().site_monthly_usd() > 20.0 * 10


@pytest.fixture()
def colo_world():
    """A small topology with a colo operator deployed, plus the Internet."""
    streams = RandomStreams(seed=1234)
    topo = generate_topology(TopologyConfig.small(), streams)
    operator = ColoOperator.deploy(topo, ("new_york", "london"), streams)
    return Internet(topo, streams), operator


class TestOperator:
    def test_deploy_creates_one_single_pop_as_per_city(self, colo_world):
        internet, operator = colo_world
        assert sorted(operator.site_asns) == ["london", "new_york"]
        for city_name, asn in operator.site_asns.items():
            colo_as = internet.topology.ases[asn]
            assert colo_as.kind is ASKind.COLO
            assert colo_as.pop_cities == (city_name,)

    def test_deploy_rejects_non_hub_city(self):
        streams = RandomStreams(seed=1234)
        topo = generate_topology(TopologyConfig.small(), streams)
        with pytest.raises(ColoError):
            ColoOperator.deploy(topo, ("atlanta",), streams)

    def test_facility_links_get_colo_classes(self, colo_world):
        internet, operator = colo_world
        colo_asns = set(operator.site_asns.values())
        classes = {
            link.link_class
            for link in internet.links_by_id.values()
            if {internet.routers.get(link.router_a).asn,
                internet.routers.get(link.router_b).asn} & colo_asns
        }
        assert LinkClass.COLO_TRANSIT in classes
        assert classes <= {LinkClass.COLO_TRANSIT, LinkClass.COLO_PEERING}

    def test_rent_server_attaches_a_colo_relay(self, colo_world):
        internet, operator = colo_world
        server = operator.rent_server(internet, "london")
        assert server.host.kind == "colo_relay"
        assert server.host.city_name == "london"
        assert server.rate_limit_mbps == PortSpeed.GBPS_1.mbps
        assert server.cross_connects == operator.attachments["london"]
        assert server.monthly_cost_usd == pytest.approx(
            operator.pricing.site_monthly_usd(
                PortSpeed.GBPS_1, cross_connects=operator.attachments["london"]
            )
        )

    def test_rent_in_unknown_city_raises(self, colo_world):
        internet, operator = colo_world
        with pytest.raises(ColoError):
            operator.rent_server(internet, "tokyo")

    def test_bill_and_release(self, colo_world):
        internet, operator = colo_world
        a = operator.rent_server(internet, "london")
        b = operator.rent_server(internet, "new_york")
        assert operator.servers == [a, b]


class TestTopologyAttach:
    def test_add_colo_as_validates_inputs(self, small_topology):
        import copy

        topo = copy.deepcopy(small_topology)
        tier1 = topo.ases_of_kind(ASKind.TIER1)[0]
        with pytest.raises(TopologyError):
            topo.add_colo_as("c", "atlanta", [tier1.asn], [])
        with pytest.raises(TopologyError):
            topo.add_colo_as("c", "new_york", [], [])
        out_of_town = [
            a.asn
            for a in topo.ases_of_kind(ASKind.TRANSIT)
            if not a.has_pop("new_york")
        ]
        if out_of_town:
            with pytest.raises(TopologyError):
                topo.add_colo_as("c", "new_york", [tier1.asn], out_of_town[:1])


class TestRelaySite:
    def test_substrates_are_closed(self):
        assert SUBSTRATES == ("cloud", "colo")

    def test_from_colo_carries_bare_metal_budget(self, colo_world):
        internet, operator = colo_world
        site = RelaySite.from_colo(operator.rent_server(internet, "london"))
        assert site.substrate == "colo"
        assert site.cpu_pps == COLO_CPU_PPS
        assert site.city_name == "london"

    def test_from_vm_matches_demand_default(self, small_internet):
        from repro.cloud.datacenter import DataCenter
        from repro.cloud.provider import CloudProvider

        provider = CloudProvider(
            name="softcloud",
            asn=small_internet.cloud_asn,
            datacenters={"dallas": DataCenter(name="dallas", city_name="dallas")},
        )
        site = RelaySite.from_vm(provider.rent_vm(small_internet, "dallas"))
        assert site.substrate == "cloud"
        assert site.cpu_pps == DEFAULT_CPU_PPS

    def test_capacity_from_site_mirrors_fields(self, colo_world):
        internet, operator = colo_world
        site = RelaySite.from_colo(operator.rent_server(internet, "london"))
        capacity = RelayCapacity.from_site(site)
        assert capacity.label == site.name
        assert capacity.nic_mbps == site.rate_limit_mbps
        assert capacity.cpu_pps == COLO_CPU_PPS

    def test_validation(self, colo_world):
        internet, operator = colo_world
        host = operator.rent_server(internet, "london").host
        with pytest.raises(ColoError):
            RelaySite(host=host, substrate="edge", rate_limit_mbps=1000.0,
                      cpu_pps=1.0, monthly_cost_usd=0.0)
        with pytest.raises(ColoError):
            RelaySite(host=host, substrate="colo", rate_limit_mbps=0.0,
                      cpu_pps=1.0, monthly_cost_usd=0.0)


class TestSubstrateBlindness:
    def test_overlay_nodes_accept_colo_relays(self, colo_world):
        from repro.tunnel.node import OverlayNode

        internet, operator = colo_world
        server = operator.rent_server(internet, "london")
        node = OverlayNode(host=server.host)
        assert node.name == server.name

    def test_overlay_nodes_still_reject_client_hosts(self, small_internet):
        from repro.tunnel.node import OverlayNode

        host = small_internet.host("client")
        with pytest.raises(TunnelError):
            OverlayNode(host=host)

    def test_mixed_cronet_routes_through_both_substrates(self, colo_world):
        from repro.core.cronet import CRONet

        internet, operator = colo_world
        stubs = internet.topology.ases_of_kind(ASKind.STUB)
        internet.attach_host("client", stubs[0].asn, kind="planetlab")
        internet.attach_host("server", stubs[-1].asn, kind="server")
        sites = [
            RelaySite.from_colo(operator.rent_server(internet, "london")),
            RelaySite.from_colo(operator.rent_server(internet, "new_york")),
        ]
        cronet = CRONet.from_sites(internet, sites)
        pathset = cronet.path_set("server", "client")
        assert {o.name for o in pathset.options} == {s.name for s in sites}
        for option in pathset.options:
            assert pathset.split_chain(option).throughput_at(0.0) > 0.0

    def test_cronet_cost_sums_sites(self, colo_world):
        from repro.core.cronet import CRONet

        internet, operator = colo_world
        sites = [RelaySite.from_colo(operator.rent_server(internet, "london"))]
        cronet = CRONet.from_sites(internet, sites)
        assert cronet.monthly_cost_usd() == pytest.approx(sites[0].monthly_cost_usd)
