"""Multi-hop overlay paths (Sec. VII-B extension)."""

from __future__ import annotations

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.cronet import CRONet
from repro.core.multihop import MultiHopPathSet
from repro.errors import ConfigError
from repro.net import Internet, TopologyConfig, generate_topology
from repro.net.asn import ASKind
from repro.rand import RandomStreams

T0 = 6 * 3_600.0


@pytest.fixture()
def multihop_world():
    streams = RandomStreams(seed=61)
    topo = generate_topology(TopologyConfig.small(), streams)
    provider = CloudProvider.deploy(topo, ("dallas", "amsterdam", "tokyo"), streams)
    internet = Internet(topo, streams)
    stubs = topo.ases_of_kind(ASKind.STUB)
    internet.attach_host("srv", stubs[0].asn, kind="server", rwnd_bytes=4_194_304)
    internet.attach_host("cli", stubs[-1].asn, kind="planetlab")
    cronet = CRONet.build(internet, provider, ["dallas", "amsterdam", "tokyo"])
    return internet, cronet


class TestEnumeration:
    def test_option_count(self, multihop_world):
        internet, cronet = multihop_world
        multihop = MultiHopPathSet.build(internet, "srv", "cli", cronet.nodes, max_hops=2)
        # 3 one-hop + 3*2 ordered two-hop sequences.
        assert len(multihop.options) == 3 + 6
        assert {o.hop_count for o in multihop.options} == {1, 2}

    def test_segments_connect(self, multihop_world):
        internet, cronet = multihop_world
        multihop = MultiHopPathSet.build(internet, "srv", "cli", cronet.nodes, max_hops=2)
        for option in multihop.options:
            assert len(option.segments) == option.hop_count + 1
            full = option.concatenated
            assert full.router_ids[0] == internet.host("srv").host_id
            assert full.router_ids[-1] == internet.host("cli").host_id

    def test_validation(self, multihop_world):
        internet, cronet = multihop_world
        with pytest.raises(ConfigError):
            MultiHopPathSet.build(internet, "srv", "cli", cronet.nodes, max_hops=0)
        with pytest.raises(ConfigError):
            MultiHopPathSet.build(internet, "srv", "cli", [], max_hops=2)


class TestThroughput:
    def test_best_by_hop_count(self, multihop_world):
        internet, cronet = multihop_world
        multihop = MultiHopPathSet.build(internet, "srv", "cli", cronet.nodes, max_hops=2)
        best = multihop.best_by_hop_count(T0)
        assert set(best) == {1, 2}
        for _name, value in best.values():
            assert value > 0

    def test_two_hop_split_has_two_relays(self, multihop_world):
        internet, cronet = multihop_world
        multihop = MultiHopPathSet.build(internet, "srv", "cli", cronet.nodes, max_hops=2)
        two_hop = next(o for o in multihop.options if o.hop_count == 2)
        chain = multihop.split_chain(two_hop)
        assert chain.relay_count == 2

    def test_inter_node_segment_rides_backbone(self, multihop_world):
        """The middle leg between two DCs uses the private backbone."""
        internet, cronet = multihop_world
        multihop = MultiHopPathSet.build(internet, "srv", "cli", cronet.nodes, max_hops=2)
        two_hops = [o for o in multihop.options if o.hop_count == 2]
        assert any(multihop.uses_backbone(o) for o in two_hops)

