"""Cloud provider: deployment, VM rental, pricing."""

from __future__ import annotations

import pytest

from repro.cloud import (
    CloudProvider,
    PortSpeed,
    PricingModel,
    TrafficTier,
    leased_line_monthly_usd,
    overlay_vs_leased_line,
)
from repro.cloud.datacenter import PAPER_DC_CITIES, DataCenter, validate_dc_cities
from repro.errors import BillingError, CloudError
from repro.experiments.mptcp_exp import REGIONAL_DCS
from repro.geo import city
from repro.net import Internet, LinkClass, TopologyConfig, generate_topology
from repro.net.asn import ASKind
from repro.rand import RandomStreams


@pytest.fixture()
def cloudy_world():
    streams = RandomStreams(seed=99)
    topo = generate_topology(TopologyConfig.small(), streams)
    provider = CloudProvider.deploy(topo, ("dallas", "amsterdam", "tokyo"), streams)
    internet = Internet(topo, streams)
    return internet, provider


class TestDataCenters:
    def test_paper_cities(self):
        assert len(PAPER_DC_CITIES) == 5  # Sec. II-A
        assert sum(len(dcs) for dcs in REGIONAL_DCS.values()) == 9  # Sec. VI-B

    def test_validate_rejects_duplicates(self):
        with pytest.raises(CloudError):
            validate_dc_cities(("tokyo", "tokyo"))
        with pytest.raises(CloudError):
            validate_dc_cities(())

    def test_datacenter_city(self):
        dc = DataCenter(name="dallas", city_name="dallas")
        assert dc.city == city("dallas")


class TestDeploy:
    def test_cloud_as_created(self, cloudy_world):
        internet, provider = cloudy_world
        asys = internet.topology.ases[provider.asn]
        assert asys.kind is ASKind.CLOUD
        assert set(asys.pop_cities) == {"dallas", "amsterdam", "tokyo"}

    def test_multihomed_and_peered(self, cloudy_world):
        internet, provider = cloudy_world
        assert len(internet.topology.providers_of(provider.asn)) >= 2
        assert internet.topology.peers_of(provider.asn)

    def test_backbone_exists(self, cloudy_world):
        internet, _provider = cloudy_world
        assert internet.links_of_class(LinkClass.CLOUD_BACKBONE)


class TestRentVm:
    def test_vm_lands_in_its_dc(self, cloudy_world):
        internet, provider = cloudy_world
        server = provider.rent_vm(internet, "amsterdam")
        assert server.host.city_name == "amsterdam"
        assert server.host.kind == "cloud_vm"
        assert server.rate_limit_mbps == 100.0

    def test_vm_access_is_clean(self, cloudy_world):
        internet, provider = cloudy_world
        server = provider.rent_vm(internet, "tokyo")
        assert server.host.access_link.base_loss <= 1e-5
        assert server.host.access_link.load.base_util <= 0.05

    def test_unknown_dc_rejected(self, cloudy_world):
        internet, provider = cloudy_world
        with pytest.raises(CloudError):
            provider.rent_vm(internet, "portland")

    def test_billing(self, cloudy_world):
        internet, provider = cloudy_world
        s1 = provider.rent_vm(internet, "dallas")
        s2 = provider.rent_vm(internet, "tokyo", port_speed=PortSpeed.GBPS_1)
        assert provider.monthly_bill_usd() == pytest.approx(
            s1.monthly_cost_usd + s2.monthly_cost_usd
        )

    def test_port_speed_sets_nic(self, cloudy_world):
        internet, provider = cloudy_world
        server = provider.rent_vm(internet, "dallas", port_speed=PortSpeed.GBPS_10)
        assert server.host.nic_mbps == 10_000.0


class TestPricing:
    def test_base_vm_is_about_20(self):
        # Sec. I: "starting at about $20 per month".
        price = PricingModel().vm_monthly_usd(
            PortSpeed.MBPS_100, TrafficTier.GB_1000, bare_metal=False
        )
        assert 15.0 <= price <= 30.0

    def test_monotone_in_port_speed(self):
        model = PricingModel()
        prices = [
            model.vm_monthly_usd(port, TrafficTier.GB_1000) for port in PortSpeed
        ]
        assert prices == sorted(prices)

    def test_monotone_in_traffic(self):
        model = PricingModel()
        tiers = [
            TrafficTier.GB_1000,
            TrafficTier.GB_5000,
            TrafficTier.GB_10000,
            TrafficTier.GB_20000,
            TrafficTier.UNLIMITED,
        ]
        prices = [model.vm_monthly_usd(PortSpeed.MBPS_100, t) for t in tiers]
        assert prices == sorted(prices)

    def test_bare_metal_premium(self):
        model = PricingModel()
        assert model.vm_monthly_usd(bare_metal=True) > model.vm_monthly_usd()

    def test_overlay_cost_scales_with_nodes(self):
        model = PricingModel()
        assert model.overlay_monthly_usd(5) == pytest.approx(5 * model.vm_monthly_usd())
        with pytest.raises(BillingError):
            model.overlay_monthly_usd(0)

    def test_leased_line_grows_with_distance_and_bandwidth(self):
        ny, tokyo, london = (
            city("new_york").point,
            city("tokyo").point,
            city("london").point,
        )
        near = leased_line_monthly_usd(10.0, ny, london)
        far = leased_line_monthly_usd(10.0, ny, tokyo)
        big = leased_line_monthly_usd(100.0, ny, london)
        assert far > near
        assert big > near
        with pytest.raises(BillingError):
            leased_line_monthly_usd(0.0, ny, tokyo)

    def test_leased_line_is_thousands_for_typical_line(self):
        # Sec. I: "each line typically costs thousands of dollars per month".
        price = leased_line_monthly_usd(50.0, city("new_york").point, city("london").point)
        assert price > 2_000.0

    def test_overlay_about_a_tenth(self):
        """The abstract's headline, for a representative scenario."""
        comparison = overlay_vs_leased_line(
            achieved_throughput_mbps=30.0,
            node_count=5,
            endpoint_a=city("new_york").point,
            endpoint_b=city("tokyo").point,
        )
        assert comparison.cost_ratio < 0.2
        assert comparison.overlay_monthly_usd < comparison.leased_line_monthly_usd
