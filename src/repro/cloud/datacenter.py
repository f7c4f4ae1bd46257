"""Data centers and VM port speeds."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CloudError
from repro.geo import City, city as lookup_city


class PortSpeed(enum.Enum):
    """Virtual NIC tiers offered by the provider (Sec. VII-C/D)."""

    MBPS_100 = 100
    GBPS_1 = 1_000
    GBPS_10 = 10_000

    @property
    def mbps(self) -> float:
        return float(self.value)


@dataclass(frozen=True, slots=True)
class DataCenter:
    """One provider data center, named after its city."""

    name: str
    city_name: str

    def __post_init__(self) -> None:
        lookup_city(self.city_name)  # validate

    @property
    def city(self) -> City:
        return lookup_city(self.city_name)


#: The five Softlayer locations the paper rents for its main
#: experiments (Sec. II-A).
PAPER_DC_CITIES: tuple[str, ...] = (
    "washington_dc",
    "san_jose",
    "dallas",
    "amsterdam",
    "tokyo",
)


def validate_dc_cities(cities: tuple[str, ...]) -> tuple[str, ...]:
    """Validate a DC city list: known cities, no duplicates."""
    if not cities:
        raise CloudError("a cloud provider needs at least one data center")
    if len(set(cities)) != len(cities):
        raise CloudError(f"duplicate data-center cities in {cities}")
    for name in cities:
        lookup_city(name)
    return cities
