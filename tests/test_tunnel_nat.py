"""MasqueradeNat edge cases: pool exhaustion and unknown flows."""

from __future__ import annotations

import pytest

from repro.errors import NatError
from repro.tunnel.nat import MasqueradeNat


class TestPortExhaustion:
    def test_pool_exhausts_then_raises(self):
        nat = MasqueradeNat("9.9.9.9", port_range=(40_000, 40_002))
        for i in range(3):
            nat.translate("tcp", "10.0.0.1", 1000 + i)
        assert nat.active_bindings == 3
        with pytest.raises(NatError, match="exhausted"):
            nat.translate("tcp", "10.0.0.1", 2000)

    def test_expiry_frees_a_port_for_reuse(self):
        nat = MasqueradeNat("9.9.9.9", port_range=(40_000, 40_001))
        first = nat.translate("tcp", "10.0.0.1", 1000)
        nat.translate("tcp", "10.0.0.1", 1001)
        nat.expire("tcp", "10.0.0.1", 1000)
        reused = nat.translate("tcp", "10.0.0.2", 3000)
        assert reused.nat_port == first.nat_port
        assert nat.active_bindings == 2

    def test_existing_flow_reuses_binding_at_capacity(self):
        nat = MasqueradeNat("9.9.9.9", port_range=(40_000, 40_000))
        binding = nat.translate("udp", "10.0.0.1", 500)
        # The pool is full, but a known flow never needs a new port.
        assert nat.translate("udp", "10.0.0.1", 500) is binding


class TestUnknownMappings:
    def test_expiring_unknown_flow_rejected(self):
        nat = MasqueradeNat("9.9.9.9")
        with pytest.raises(NatError, match="no binding"):
            nat.expire("tcp", "10.0.0.1", 1234)

    def test_invalid_source_port_rejected(self):
        nat = MasqueradeNat("9.9.9.9")
        with pytest.raises(NatError):
            nat.translate("tcp", "10.0.0.1", 0)
        with pytest.raises(NatError):
            nat.translate("tcp", "10.0.0.1", 70_000)
