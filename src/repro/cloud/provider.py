"""The cloud provider: deploys its AS, rents VMs, tracks billing."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.datacenter import DataCenter, PortSpeed, validate_dc_cities
from repro.cloud.pricing import PricingModel, TrafficTier
from repro.cloud.vm import VirtualServer
from repro.errors import CloudError
from repro.net.asn import ASKind
from repro.net.topology import Topology
from repro.net.world import Internet
from repro.rand import RandomStreams

#: Fraction of transit ASes the provider peers with at IXPs — the
#: "aggressively peered with a diverse set of ISPs" trend (Sec. I).
#: Aggressive but not universal: plenty of client networks are only
#: reachable through upstream transit, which is where per-DC exit
#: diversity (and hence RTT reduction) comes from.
DEFAULT_PEERING_FRACTION = 0.35
#: Number of Tier-1 transit contracts (multi-homing).
DEFAULT_TRANSIT_COUNT = 3
#: Cloud VM access links are dedicated virtual NICs: nearly idle.
VM_ACCESS_UTIL = 0.02
VM_ACCESS_LOSS = 1e-6
VM_ACCESS_DELAY_MS = 0.2


@dataclass
class CloudProvider:
    """A Softlayer-like provider with rentable overlay-capable VMs."""

    name: str
    asn: int
    datacenters: dict[str, DataCenter]
    pricing: PricingModel = field(default_factory=PricingModel)
    servers: list[VirtualServer] = field(default_factory=list)
    _vm_counter: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def deploy(
        cls,
        topology: Topology,
        dc_cities: tuple[str, ...],
        streams: RandomStreams,
        name: str = "softcloud",
        transit_count: int = DEFAULT_TRANSIT_COUNT,
        peering_fraction: float = DEFAULT_PEERING_FRACTION,
    ) -> "CloudProvider":
        """Add the provider's AS to a topology (before Internet build).

        The cloud AS gets PoPs at every DC city, transit from
        ``transit_count`` Tier-1s, and settlement-free peering with a
        large fraction of the transit providers — the path-diversity
        engine of CRONets.
        """
        validate_dc_cities(dc_cities)
        rng = streams.stream("cloud")
        tier1s = [a.asn for a in topology.ases_of_kind(ASKind.TIER1)]
        transits = [a.asn for a in topology.ases_of_kind(ASKind.TRANSIT)]
        if not tier1s:
            raise CloudError("topology has no Tier-1 core to buy transit from")
        count = min(transit_count, len(tier1s))
        chosen_t1 = [tier1s[int(i)] for i in rng.choice(len(tier1s), size=count, replace=False)]
        peer_count = int(round(peering_fraction * len(transits)))
        peer_idx = rng.choice(len(transits), size=peer_count, replace=False) if peer_count else []
        peers = sorted(transits[int(i)] for i in peer_idx)
        cloud_as = topology.add_cloud_as(name, dc_cities, chosen_t1, peers)
        return cls(
            name=name,
            asn=cloud_as.asn,
            datacenters={c: DataCenter(name=c, city_name=c) for c in dc_cities},
        )

    # ------------------------------------------------------------------
    def datacenter(self, dc_name: str) -> DataCenter:
        """Look up a data center by name (its city)."""
        dc = self.datacenters.get(dc_name)
        if dc is None:
            raise CloudError(
                f"{self.name} has no data center {dc_name!r}; "
                f"available: {sorted(self.datacenters)}"
            )
        return dc

    def rent_vm(
        self,
        internet: Internet,
        dc_name: str,
        port_speed: PortSpeed = PortSpeed.MBPS_100,
        traffic: TrafficTier = TrafficTier.GB_5000,
        vm_name: str | None = None,
    ) -> VirtualServer:
        """Provision a VM in ``dc_name`` and attach it to the Internet.

        The VM's access link is a dedicated virtual NIC: clean, fast,
        software-rate-limited to the port speed.
        """
        dc = self.datacenter(dc_name)
        self._vm_counter += 1
        name = vm_name or f"{self.name}-{dc_name}-vm{self._vm_counter}"
        host = internet.attach_host(
            name,
            self.asn,
            nic_mbps=port_speed.mbps,
            rwnd_bytes=4_194_304,
            kind="cloud_vm",
            access_delay_ms=VM_ACCESS_DELAY_MS,
            access_base_loss=VM_ACCESS_LOSS,
            access_base_util=VM_ACCESS_UTIL,
            city_name=dc.city_name,
        )
        server = VirtualServer(
            host=host,
            datacenter=dc,
            port_speed=port_speed,
            monthly_cost_usd=self.pricing.vm_monthly_usd(port_speed, traffic),
        )
        self.servers.append(server)
        return server

    def monthly_bill_usd(self) -> float:
        """Total monthly cost of every VM currently rented."""
        return sum(server.monthly_cost_usd for server in self.servers)

