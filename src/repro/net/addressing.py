"""IPv4 addressing: prefixes per AS, addresses per router and host.

Purely cosmetic for throughput math, but load-bearing for fidelity:
traceroute output shows addresses, the masquerade NAT needs the
overlay node's public address, and downstream users expect an overlay
library to speak IP.  Allocation is deterministic: AS *n* gets the
``10.n.0.0/16``-shaped block below, routers get low host addresses,
attached hosts get high ones.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from repro.errors import ConfigError, TopologyError

#: Per-AS prefix length (a /16 per AS out of a /8-ish pool).
AS_PREFIX_LEN = 16
#: The pool ASes allocate from.  100.64.0.0/10 is too small for /16s,
#: so we use the 10/8 private space — the simulation never needs
#: globally unique addresses, only internally unique ones.
POOL = ipaddress.ip_network("10.0.0.0/8")


@dataclass(frozen=True, slots=True)
class Allocation:
    """One AS's address block."""

    asn: int
    network: ipaddress.IPv4Network

    def router_address(self, index: int) -> str:
        """The address of this AS's ``index``-th router (0-based)."""
        if index < 0:
            raise ConfigError(f"router index must be >= 0, got {index}")
        offset = 1 + index  # .0.1 upward
        return str(self.network.network_address + offset)

    def host_address(self, index: int) -> str:
        """The address of the ``index``-th host attached inside this AS."""
        if index < 0:
            raise ConfigError(f"host index must be >= 0, got {index}")
        # Hosts count down from the top of the block (broadcast - 1).
        offset = int(self.network.broadcast_address) - 1 - index
        address = ipaddress.ip_address(offset)
        if address <= self.network.network_address:
            raise ConfigError(f"AS{self.asn} block exhausted at host index {index}")
        return str(address)


class AddressPlan:
    """Deterministic address allocation over a topology's ASes."""

    def __init__(self) -> None:
        self._allocations: dict[int, Allocation] = {}
        self._subnets = POOL.subnets(new_prefix=AS_PREFIX_LEN)
        self._router_index: dict[int, int] = {}
        self._host_index: dict[int, int] = {}
        self._router_addresses: dict[int, str] = {}
        self._host_addresses: dict[str, str] = {}

    def allocate_as(self, asn: int) -> Allocation:
        """Allocate (or return) the block of AS ``asn``."""
        existing = self._allocations.get(asn)
        if existing is not None:
            return existing
        try:
            network = next(self._subnets)
        except StopIteration:  # pragma: no cover - 256 ASes fit a /8
            raise TopologyError("address pool exhausted") from None
        allocation = Allocation(asn=asn, network=network)
        self._allocations[asn] = allocation
        return allocation

    def assign_router(self, router_id: int, asn: int) -> str:
        """Assign (or return) the address of a router."""
        existing = self._router_addresses.get(router_id)
        if existing is not None:
            return existing
        allocation = self.allocate_as(asn)
        index = self._router_index.get(asn, 0)
        self._router_index[asn] = index + 1
        address = allocation.router_address(index)
        self._router_addresses[router_id] = address
        return address

    def assign_host(self, host_name: str, asn: int) -> str:
        """Assign (or return) the address of an attached host."""
        existing = self._host_addresses.get(host_name)
        if existing is not None:
            return existing
        allocation = self.allocate_as(asn)
        index = self._host_index.get(asn, 0)
        self._host_index[asn] = index + 1
        address = allocation.host_address(index)
        self._host_addresses[host_name] = address
        return address

    def router_address(self, router_id: int) -> str:
        """The address previously assigned to a router."""
        address = self._router_addresses.get(router_id)
        if address is None:
            raise TopologyError(f"router {router_id} has no address")
        return address

