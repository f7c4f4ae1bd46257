"""Rented virtual servers.

The paper's overlay nodes are single-core Ubuntu VMs with a 100 Mbps
virtual NIC and 4 GB RAM (Sec. II).  The virtual NIC is a *software
rate limit* — one reason the paper found bandwidth-estimation tools
unreliable on cloud paths (Sec. II-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.datacenter import DataCenter, PortSpeed
from repro.errors import CloudError, check
from repro.net.world import Host

#: Packets/sec a single-core relay VM can forward through the tunnel
#: stack (soft-switch ballpark; deliberately below line rate for a
#: 10G port so the CPU, not the NIC, is the interesting ceiling).
DEFAULT_CPU_PPS = 120_000.0


@dataclass(frozen=True, slots=True)
class VirtualServer:
    """One rented VM, attached to the simulated Internet as a host."""

    host: Host
    datacenter: DataCenter
    port_speed: PortSpeed
    monthly_cost_usd: float

    def __post_init__(self) -> None:
        if self.host.kind != "cloud_vm":
            raise CloudError(f"VirtualServer host kind must be cloud_vm, got {self.host.kind!r}")
        if self.host.nic_mbps != self.port_speed.mbps:
            raise CloudError(
                f"host NIC ({self.host.nic_mbps} Mbps) does not match "
                f"port speed {self.port_speed.mbps} Mbps"
            )
        check(self.monthly_cost_usd, "monthly_cost_usd", ge=0, error=CloudError)

    @property
    def name(self) -> str:
        """The VM's host name."""
        return self.host.name

    @property
    def rate_limit_mbps(self) -> float:
        """Software rate cap applied by the virtual NIC."""
        return self.port_speed.mbps
