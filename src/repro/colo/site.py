"""RelaySite: the substrate-generic view of one rented relay.

Everything above the rental — overlay construction
(:class:`repro.core.cronet.CRONet`), policy selection, demand-engine
saturation (:meth:`repro.demand.relay.RelayCapacity.from_site`), cost
tables — consumes sites.  Only the two operators
(:class:`repro.cloud.provider.CloudProvider`,
:class:`repro.colo.operator.ColoOperator`) know how a site came to be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.vm import DEFAULT_CPU_PPS
from repro.errors import ColoError, check
from repro.net.world import Host

if TYPE_CHECKING:  # pragma: no cover — typing-only imports
    from repro.cloud.vm import VirtualServer
    from repro.colo.operator import ColoServer

#: Substrate labels a site can carry.
SUBSTRATES = ("cloud", "colo")

#: Packets/sec a bare-metal colo server forwards through the tunnel
#: stack — kernel forwarding on dedicated cores, ~5x the single-core
#: VM budget (:data:`repro.cloud.vm.DEFAULT_CPU_PPS`).
COLO_CPU_PPS = 600_000.0


@dataclass(frozen=True, slots=True)
class RelaySite:
    """One relay attachment, abstracted over its substrate."""

    host: Host
    substrate: str
    rate_limit_mbps: float
    cpu_pps: float
    monthly_cost_usd: float

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ColoError(
                f"unknown substrate {self.substrate!r}; choose from {SUBSTRATES}"
            )
        check(self.rate_limit_mbps, "rate_limit_mbps", gt=0, error=ColoError)
        check(self.cpu_pps, "cpu_pps", gt=0, error=ColoError)
        check(self.monthly_cost_usd, "monthly_cost_usd", ge=0, error=ColoError)

    @property
    def name(self) -> str:
        """The site's host name (also its overlay-node name)."""
        return self.host.name

    @property
    def city_name(self) -> str:
        """The city the relay is attached in."""
        return self.host.city_name

    @classmethod
    def from_vm(cls, vm: "VirtualServer", cpu_pps: float = DEFAULT_CPU_PPS) -> "RelaySite":
        """Wrap a rented cloud VM as a relay site.

        ``cpu_pps`` defaults to the single-core VM budget the demand
        layer also uses (:data:`repro.cloud.vm.DEFAULT_CPU_PPS`), so a
        site-built capacity model matches a VM-built one exactly.
        """
        return cls(
            host=vm.host,
            substrate="cloud",
            rate_limit_mbps=vm.rate_limit_mbps,
            cpu_pps=cpu_pps,
            monthly_cost_usd=vm.monthly_cost_usd,
        )

    @classmethod
    def from_colo(cls, server: "ColoServer", cpu_pps: float = COLO_CPU_PPS) -> "RelaySite":
        """Wrap a racked colo server as a relay site."""
        return cls(
            host=server.host,
            substrate="colo",
            rate_limit_mbps=server.rate_limit_mbps,
            cpu_pps=cpu_pps,
            monthly_cost_usd=server.monthly_cost_usd,
        )
