"""IP masquerade (NAT) as run on each overlay node.

The Linux IP-masquerade feature lets the overlay node rewrite the
source of tunneled packets to its own address, so the far endpoint
replies to the overlay node — no tunnel (or any cooperation) needed on
that side.  This is what makes CRONets deployable against arbitrary
Internet servers (Sec. II).

The model keeps the real invariants: translations are bijective while
a binding lives, and ports are drawn from a finite pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NatError, check

#: Linux's default ephemeral/masquerade port range.
DEFAULT_PORT_RANGE = (32_768, 61_000)


@dataclass(frozen=True, slots=True)
class NatBinding:
    """One active masquerade binding."""

    protocol: str
    src_ip: str
    src_port: int
    nat_ip: str
    nat_port: int


class MasqueradeNat:
    """A port-translating NAT bound to the overlay node's public IP."""

    def __init__(self, nat_ip: str, port_range: tuple[int, int] = DEFAULT_PORT_RANGE) -> None:
        lo, hi = port_range
        check(hi, "highest port", le=65_535, error=NatError)
        check(lo, "lowest port", gt=0, le=hi, error=NatError)
        self.nat_ip = nat_ip
        self._port_range = port_range
        self._next_port = lo
        self._forward: dict[tuple[str, str, int], NatBinding] = {}
        self._reverse: dict[tuple[str, int], NatBinding] = {}

    @property
    def active_bindings(self) -> int:
        """Number of live translations."""
        return len(self._forward)

    def _allocate_port(self) -> int:
        lo, hi = self._port_range
        for _ in range(hi - lo + 1):
            port = self._next_port
            self._next_port = lo + (self._next_port - lo + 1) % (hi - lo + 1)
            if (self.nat_ip, port) not in self._reverse:
                return port
        raise NatError(f"NAT at {self.nat_ip} exhausted its port pool ({lo}-{hi})")

    def translate(self, protocol: str, src_ip: str, src_port: int) -> NatBinding:
        """Outbound translation; reuses the binding for a known flow."""
        if not 0 < src_port <= 65_535:
            raise NatError(f"invalid source port {src_port}")
        key = (protocol, src_ip, src_port)
        existing = self._forward.get(key)
        if existing is not None:
            return existing
        binding = NatBinding(
            protocol=protocol,
            src_ip=src_ip,
            src_port=src_port,
            nat_ip=self.nat_ip,
            nat_port=self._allocate_port(),
        )
        self._forward[key] = binding
        self._reverse[(binding.nat_ip, binding.nat_port)] = binding
        return binding

    def expire(self, protocol: str, src_ip: str, src_port: int) -> None:
        """Remove a binding (connection closed / idle timeout)."""
        key = (protocol, src_ip, src_port)
        binding = self._forward.pop(key, None)
        if binding is None:
            raise NatError(f"no binding for {key}")
        del self._reverse[(binding.nat_ip, binding.nat_port)]
