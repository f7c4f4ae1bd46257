"""Colo price book: rack space, exchange ports, cross-connects.

Parallel to :class:`repro.cloud.pricing.PricingModel` but with a
facility cost structure instead of a VM rental: you pay rent for the
rack unit (space + power), amortize the server you racked, buy a port
on the exchange fabric sized like a NIC, pay a monthly fee per
cross-connect (each peering or transit attachment is a physical cable
in the building), and commit to some blended IP transit by the Mbps.

A colo site therefore costs an order of magnitude more per month than
the paper's $20 cloud VM — the trade "Shortcuts through Colocation
Facilities" examines is whether the placement (right at the exchange)
and bare-metal capacity justify it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.datacenter import PortSpeed
from repro.errors import BillingError


@dataclass(frozen=True, slots=True)
class ColoPricingModel:
    """A facility operator's price book (2015-era retail list prices)."""

    #: Rack space + power for one server (per month).
    space_power_monthly_usd: float = 250.0
    #: Amortized hardware cost of the racked bare-metal server.
    server_amortized_monthly_usd: float = 100.0
    #: Monthly fee per physical cross-connect (a cable to one network).
    cross_connect_monthly_usd: float = 100.0
    #: Blended IP transit, committed by the Mbps.
    transit_usd_per_mbps: float = 0.50
    #: Exchange-port fees by speed; ``None`` uses the defaults below.
    port_monthly_usd: dict[PortSpeed, float] | None = None

    def _port_prices(self) -> dict[PortSpeed, float]:
        """Effective port-fee table (defaults unless overridden)."""
        return self.port_monthly_usd or {
            PortSpeed.MBPS_100: 75.0,
            PortSpeed.GBPS_1: 200.0,
            PortSpeed.GBPS_10: 750.0,
        }

    def port_fee_usd(self, port_speed: PortSpeed) -> float:
        """Monthly exchange-port fee for one port of ``port_speed``."""
        try:
            return self._port_prices()[port_speed]
        except KeyError:
            raise BillingError(f"no port price for {port_speed}") from None

    def site_monthly_usd(
        self,
        port_speed: PortSpeed = PortSpeed.GBPS_1,
        cross_connects: int = 2,
        transit_commit_mbps: float = 100.0,
    ) -> float:
        """Monthly price of one relay site: rack + server + port + cables.

        ``cross_connects`` counts physical attachments (transit feeds
        plus peers); ``transit_commit_mbps`` is the blended-IP commit.
        """
        if cross_connects < 1:
            raise BillingError(
                f"a colo site needs at least one cross-connect, got {cross_connects}"
            )
        if transit_commit_mbps < 0:
            raise BillingError(
                f"transit commit cannot be negative, got {transit_commit_mbps}"
            )
        return (
            self.space_power_monthly_usd
            + self.server_amortized_monthly_usd
            + self.port_fee_usd(port_speed)
            + cross_connects * self.cross_connect_monthly_usd
            + transit_commit_mbps * self.transit_usd_per_mbps
        )

