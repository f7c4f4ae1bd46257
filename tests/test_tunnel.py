"""Tunnels, NAT and overlay-node behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import NatError, TunnelError
from repro.tunnel import MasqueradeNat, NodeMode, OverlayNode, TunnelSpec, TunnelType
from repro.units import DEFAULT_MSS


class TestEncapsulation:
    def test_gre_overhead(self):
        assert TunnelType.GRE.overhead_bytes == 24

    def test_ipsec_heavier_than_gre(self):
        assert TunnelType.IPSEC_ESP.overhead_bytes > TunnelType.GRE.overhead_bytes

    def test_inner_mss_reduced(self):
        spec = TunnelSpec(tunnel_type=TunnelType.GRE)
        assert spec.inner_mss_bytes == DEFAULT_MSS - 24
        assert spec.efficiency < 1.0

    def test_tiny_mtu_rejected(self):
        with pytest.raises(TunnelError):
            TunnelSpec(tunnel_type=TunnelType.IPSEC_ESP, mtu_bytes=100)


class TestNat:
    def test_same_flow_reuses_binding(self):
        nat = MasqueradeNat("198.51.100.1")
        b1 = nat.translate("tcp", "10.0.0.5", 44_000)
        b2 = nat.translate("tcp", "10.0.0.5", 44_000)
        assert b1 is b2
        assert nat.active_bindings == 1

    def test_expire_releases_binding(self):
        nat = MasqueradeNat("198.51.100.1")
        nat.translate("tcp", "10.0.0.5", 44_000)
        nat.expire("tcp", "10.0.0.5", 44_000)
        assert nat.active_bindings == 0
        with pytest.raises(NatError):
            nat.expire("tcp", "10.0.0.5", 44_000)

    def test_port_pool_exhaustion(self):
        nat = MasqueradeNat("198.51.100.1", port_range=(40_000, 40_002))
        for port in (1, 2, 3):
            nat.translate("tcp", "10.0.0.5", port)
        with pytest.raises(NatError):
            nat.translate("tcp", "10.0.0.5", 4)

    def test_invalid_inputs(self):
        with pytest.raises(NatError):
            MasqueradeNat("x", port_range=(0, 10))
        nat = MasqueradeNat("198.51.100.1")
        with pytest.raises(NatError):
            nat.translate("tcp", "10.0.0.5", 0)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["tcp", "udp"]), st.integers(1, 65_535)),
            min_size=1,
            max_size=200,
            unique=True,
        )
    )
    def test_bijectivity_property(self, flows):
        """Live bindings are a bijection between flows and NAT ports."""
        nat = MasqueradeNat("198.51.100.1")
        bindings = {}
        for protocol, port in flows:
            bindings[(protocol, port)] = nat.translate(protocol, "10.1.2.3", port)
        nat_ports = {(b.protocol, b.nat_port) for b in bindings.values()}
        assert len(nat_ports) == len(bindings)
        for (protocol, port), binding in bindings.items():
            flow = (binding.protocol, binding.src_ip, binding.src_port, binding.nat_ip)
            assert flow == (protocol, "10.1.2.3", port, "198.51.100.1")


class TestOverlayNode:
    def _node(self, small_internet):
        return OverlayNode(host=small_internet.host("vm"))

    def test_requires_cloud_vm(self, small_internet):
        with pytest.raises(TunnelError):
            OverlayNode(host=small_internet.host("client"))

    def test_tunnel_lifecycle(self, small_internet):
        node = self._node(small_internet)
        spec = node.establish_tunnel("client")
        assert node.tunnel_for("client") is spec
        assert node.establish_tunnel("client") is spec  # idempotent
        node.tear_down_tunnel("client")
        with pytest.raises(TunnelError):
            node.tunnel_for("client")
        with pytest.raises(TunnelError):
            node.tear_down_tunnel("client")

    def test_mode_parameters(self, small_internet):
        node = self._node(small_internet)
        split = node.with_mode(NodeMode.SPLIT)
        assert node.relay_efficiency > split.relay_efficiency
        assert split.added_delay_ms > node.added_delay_ms

    def test_with_mode_shares_tunnels(self, small_internet):
        node = self._node(small_internet)
        node.establish_tunnel("client")
        split = node.with_mode(NodeMode.SPLIT)
        assert split.tunnel_for("client") is node.tunnel_for("client")

    def test_nat_bound_to_node_address(self, small_internet):
        node = self._node(small_internet)
        assert node.nat.nat_ip != "0.0.0.0"
