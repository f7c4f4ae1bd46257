"""Cloud pricing and the leased-line cost comparison.

Grounds the paper's headline economics: CRONets delivers comparable
performance "at a tenth of the cost of leasing private lines"
(abstract), with VMs "starting at about $20 per month" (Sec. I), while
a private line "typically costs thousands of dollars per month"
(Sec. I) — MPLS runs roughly 100x the per-Mbps price of Internet
transit (Gottlieb, ref [16]).  Sec. VII-D sketches the cost dimensions
(server type, traffic volume, port speed) this module implements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cloud.datacenter import PortSpeed
from repro.errors import BillingError
from repro.geo import GeoPoint, haversine_km


class TrafficTier(enum.Enum):
    """Monthly outbound traffic allotments (Sec. VII-D)."""

    GB_1000 = 1_000
    GB_5000 = 5_000
    GB_10000 = 10_000
    GB_20000 = 20_000
    UNLIMITED = 0


@dataclass(frozen=True, slots=True)
class PricingModel:
    """The provider's price book.

    Defaults approximate 2015-era Softlayer list prices: a 100 Mbps
    single-core VM from ~$20/month, port-speed upcharges, and volume
    tiers.  Bare-metal servers carry a premium.
    """

    base_vm_monthly_usd: float = 20.0
    bare_metal_premium: float = 6.0
    port_speed_upcharge: dict[PortSpeed, float] | None = None
    traffic_tier_monthly_usd: dict[TrafficTier, float] | None = None

    def _port_upcharges(self) -> dict[PortSpeed, float]:
        return self.port_speed_upcharge or {
            PortSpeed.MBPS_100: 0.0,
            PortSpeed.GBPS_1: 20.0,
            PortSpeed.GBPS_10: 200.0,
        }

    def _traffic_prices(self) -> dict[TrafficTier, float]:
        return self.traffic_tier_monthly_usd or {
            TrafficTier.GB_1000: 0.0,
            TrafficTier.GB_5000: 40.0,
            TrafficTier.GB_10000: 90.0,
            TrafficTier.GB_20000: 180.0,
            TrafficTier.UNLIMITED: 400.0,
        }

    def vm_monthly_usd(
        self,
        port_speed: PortSpeed = PortSpeed.MBPS_100,
        traffic: TrafficTier = TrafficTier.GB_1000,
        bare_metal: bool = False,
    ) -> float:
        """Monthly price of one overlay node."""
        price = self.base_vm_monthly_usd
        if bare_metal:
            price *= self.bare_metal_premium
        price += self._port_upcharges()[port_speed]
        price += self._traffic_prices()[traffic]
        return price

    def overlay_monthly_usd(
        self,
        node_count: int,
        port_speed: PortSpeed = PortSpeed.MBPS_100,
        traffic: TrafficTier = TrafficTier.GB_1000,
        bare_metal: bool = False,
    ) -> float:
        """Monthly price of an overlay deployment of ``node_count`` VMs."""
        if node_count <= 0:
            raise BillingError(f"node count must be positive, got {node_count}")
        return node_count * self.vm_monthly_usd(port_speed, traffic, bare_metal)


#: Leased-line pricing: MPLS/private-line bandwidth historically ran
#: in the $30-80 per Mbps per month range for mid-haul distances
#: (vs well under $1/Mbps for Internet transit), plus a fixed local
#: loop.  We model $/Mbps growing with distance.
LEASED_LINE_BASE_USD = 500.0
LEASED_LINE_USD_PER_MBPS = 30.0
LEASED_LINE_DISTANCE_FACTOR_PER_1000KM = 0.35


def leased_line_monthly_usd(
    bandwidth_mbps: float, endpoint_a: GeoPoint, endpoint_b: GeoPoint
) -> float:
    """Monthly price of a private line of ``bandwidth_mbps`` between
    two sites (distance-sensitive per-Mbps rate plus local loops)."""
    if bandwidth_mbps <= 0:
        raise BillingError(f"bandwidth must be positive, got {bandwidth_mbps}")
    distance_km = haversine_km(endpoint_a, endpoint_b)
    per_mbps = LEASED_LINE_USD_PER_MBPS * (
        1.0 + LEASED_LINE_DISTANCE_FACTOR_PER_1000KM * distance_km / 1_000.0
    )
    return LEASED_LINE_BASE_USD + bandwidth_mbps * per_mbps


@dataclass(frozen=True, slots=True)
class CostComparison:
    """Result of an overlay-vs-leased-line comparison."""

    overlay_monthly_usd: float
    leased_line_monthly_usd: float

    @property
    def cost_ratio(self) -> float:
        """Overlay cost as a fraction of the leased line's."""
        return self.overlay_monthly_usd / self.leased_line_monthly_usd


def overlay_vs_leased_line(
    achieved_throughput_mbps: float,
    node_count: int,
    endpoint_a: GeoPoint,
    endpoint_b: GeoPoint,
    pricing: PricingModel | None = None,
    traffic: TrafficTier = TrafficTier.GB_5000,
) -> CostComparison:
    """Compare an overlay deployment against a private line of
    *comparable performance* (the abstract's tenth-of-the-cost claim).
    """
    model = pricing or PricingModel()
    overlay = model.overlay_monthly_usd(node_count, traffic=traffic)
    line = leased_line_monthly_usd(achieved_throughput_mbps, endpoint_a, endpoint_b)
    return CostComparison(overlay_monthly_usd=overlay, leased_line_monthly_usd=line)
