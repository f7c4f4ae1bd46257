"""Tunnels and overlay-node behaviour."""

from __future__ import annotations

import pytest

from repro.errors import TunnelError
from repro.tunnel import NodeMode, OverlayNode, TunnelSpec, TunnelType
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
        with pytest.raises(TunnelError):
            node.tunnel_for("server")

    def test_mode_parameters(self, small_internet):
        node = self._node(small_internet)
        split = node.with_mode(NodeMode.SPLIT)
        assert node.relay_efficiency > split.relay_efficiency

    def test_with_mode_shares_tunnels(self, small_internet):
        node = self._node(small_internet)
        node.establish_tunnel("client")
        split = node.with_mode(NodeMode.SPLIT)
        assert split.tunnel_for("client") is node.tunnel_for("client")
