"""Relay-VM capacity that saturates under population load.

A relay VM has two distinct ceilings (Sec. II: single-core VMs with a
software-rate-limited virtual NIC):

* the **NIC** bounds bytes per second — the port-speed rate limit,
* the **CPU** bounds packets per second — a single core pushing
  packets through the tunnel stack tops out at a fixed pps budget, and
  every *concurrent* flow additionally charges a small per-flow upkeep
  cost (conntrack, keepalives, NAT table churn).

The effective forwarding capacity is the binding minimum of the two,
and it *shrinks as concurrency grows*: a relay carrying millions of
idle-ish flows loses CPU budget to upkeep before its NIC ever fills.
That feedback — saturation driven by flow count, not just bytes — is
what makes overlay selection load-aware selection matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.vm import DEFAULT_CPU_PPS, VirtualServer
from repro.errors import ConfigError, check
from repro.units import DEFAULT_MSS

#: CPU packets/sec charged per concurrent flow for connection upkeep.
DEFAULT_PER_FLOW_PPS = 0.05


@dataclass(frozen=True, slots=True)
class RelayCapacity:
    """One relay's saturating capacity model."""

    label: str
    nic_mbps: float
    cpu_pps: float = DEFAULT_CPU_PPS
    per_flow_pps: float = DEFAULT_PER_FLOW_PPS
    mss_bytes: int = DEFAULT_MSS

    def __post_init__(self) -> None:
        check(self.nic_mbps, "nic_mbps", gt=0)
        check(self.cpu_pps, "cpu_pps", gt=0)
        check(self.per_flow_pps, "per_flow_pps", ge=0)
        check(self.mss_bytes, "mss_bytes", gt=0)

    @classmethod
    def from_vm(
        cls,
        vm: VirtualServer,
        cpu_pps: float = DEFAULT_CPU_PPS,
        per_flow_pps: float = DEFAULT_PER_FLOW_PPS,
    ) -> "RelayCapacity":
        """Capacity model for a rented VM (NIC from its port speed)."""
        return cls(
            label=vm.name,
            nic_mbps=vm.rate_limit_mbps,
            cpu_pps=cpu_pps,
            per_flow_pps=per_flow_pps,
        )

    @classmethod
    def from_site(
        cls, site, per_flow_pps: float = DEFAULT_PER_FLOW_PPS
    ) -> "RelayCapacity":
        """Capacity model for any relay site, substrate-blind.

        ``site`` is a :class:`repro.colo.site.RelaySite` (annotated
        loosely to keep this module import-light): the site's own
        ``cpu_pps`` carries the substrate difference — bare-metal colo
        servers bring several times the pps budget of a single-core VM.
        """
        return cls(
            label=site.name,
            nic_mbps=site.rate_limit_mbps,
            cpu_pps=site.cpu_pps,
            per_flow_pps=per_flow_pps,
        )

    def cpu_mbps(self, concurrent_flows: float) -> float:
        """CPU-side forwarding ceiling with ``concurrent_flows`` active.

        Per-flow upkeep is deducted from the pps budget first; what
        remains forwards MSS-sized packets.
        """
        if concurrent_flows < 0:
            raise ConfigError(f"flows must be >= 0, got {concurrent_flows}")
        usable_pps = max(0.0, self.cpu_pps - self.per_flow_pps * concurrent_flows)
        return usable_pps * self.mss_bytes * 8.0 / 1e6

    def capacity_mbps(self, concurrent_flows: float = 0.0) -> float:
        """Effective capacity: min(NIC, CPU) at this concurrency."""
        return min(self.nic_mbps, self.cpu_mbps(concurrent_flows))
