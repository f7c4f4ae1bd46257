"""Colocation facilities: rackspace at an Internet exchange point.

A facility is a building in one of the IXP hub cities
(:data:`repro.net.topology.HUB_CITIES`).  Tenants rack servers there,
buy a port on the exchange fabric, and cross-connect to the networks
that also have a presence in the building — which is exactly why the
facility must sit at a hub city: that is where the peers are.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ColoError
from repro.geo import city as lookup_city
from repro.net.topology import HUB_CITIES

#: Default facility placement for the colo experiments: three major
#: exchanges spread across the paper's client regions (North America,
#: Europe, Asia) so colo relays compete with cloud DCs on geography.
DEFAULT_COLO_CITIES: tuple[str, ...] = ("new_york", "london", "tokyo")


@dataclass(frozen=True, slots=True)
class ColoFacility:
    """One colocation facility at an IXP hub city."""

    name: str
    city_name: str

    def __post_init__(self) -> None:
        if self.city_name not in HUB_CITIES:
            raise ColoError(
                f"colo facility {self.name!r} must be at an IXP hub city; "
                f"{self.city_name!r} is not one of {HUB_CITIES}"
            )
        lookup_city(self.city_name)  # raises on unknown cities


def validate_colo_cities(cities: tuple[str, ...]) -> None:
    """Reject empty or duplicated facility city lists."""
    if not cities:
        raise ColoError("a colo deployment needs at least one facility city")
    if len(set(cities)) != len(cities):
        raise ColoError(f"duplicate colo facility cities in {cities}")
    for city_name in cities:
        if city_name not in HUB_CITIES:
            raise ColoError(
                f"colo facilities must be at IXP hub cities; {city_name!r} "
                f"is not one of {HUB_CITIES}"
            )
