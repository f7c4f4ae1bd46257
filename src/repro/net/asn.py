"""Autonomous-system model.

ASes come in the kinds the CRONets measurement touches: Tier-1
backbones (the congested core), transit/regional providers, stub access
networks, academic networks (where PlanetLab clients live), content
networks (where the Eclipse mirror servers live), the cloud provider's
own AS and single-facility colocation ASes attached at IXP hub cities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TopologyError, check


class ASKind(enum.Enum):
    """Business role of an autonomous system."""

    TIER1 = "tier1"
    TRANSIT = "transit"
    STUB = "stub"
    ACADEMIC = "academic"
    CONTENT = "content"
    CLOUD = "cloud"
    #: A colocation facility's AS: one PoP at an IXP hub city, no
    #: private backbone — inter-facility traffic rides the public mesh.
    COLO = "colo"

    @property
    def is_stub_like(self) -> bool:
        """True for ASes that originate/terminate traffic but never transit."""
        return self in (ASKind.STUB, ASKind.ACADEMIC, ASKind.CONTENT)


@dataclass(frozen=True, slots=True)
class AutonomousSystem:
    """An AS with its point-of-presence cities.

    ``pop_cities`` is an ordered tuple of city names (see
    :mod:`repro.geo.cities`); each PoP becomes one router in the
    router-level expansion.
    """

    asn: int
    name: str
    kind: ASKind
    pop_cities: tuple[str, ...]

    def __post_init__(self) -> None:
        check(self.asn, "asn", gt=0, error=TopologyError)
        if not self.pop_cities:
            raise TopologyError(f"AS {self.name} must have at least one PoP city")
        if len(set(self.pop_cities)) != len(self.pop_cities):
            raise TopologyError(f"AS {self.name} has duplicate PoP cities: {self.pop_cities}")

    def has_pop(self, city_name: str) -> bool:
        """True if this AS has a point of presence in ``city_name``."""
        return city_name in self.pop_cities
