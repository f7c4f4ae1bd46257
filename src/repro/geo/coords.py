"""Great-circle geometry and speed-of-light propagation delay."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError, check

EARTH_RADIUS_KM = 6_371.0

#: Speed of light in fiber is roughly 2/3 of c; expressed in km/ms.
FIBER_KM_PER_MS = 200.0

#: Real fiber paths are not great circles; published measurements put
#: the typical inflation of fiber distance over geodesic distance at
#: 1.5–2x.  We use a single default and let topology layers override.
DEFAULT_PATH_INFLATION = 1.7


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the Earth's surface (degrees)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        check(self.lat, "lat", ge=-90, le=90)
        check(self.lon, "lon", ge=-180, le=180)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometers."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def propagation_delay_ms(
    a: GeoPoint,
    b: GeoPoint,
    inflation: float = DEFAULT_PATH_INFLATION,
) -> float:
    """One-way propagation delay between two points over inflated fiber.

    ``inflation`` scales the geodesic distance to account for real cable
    routes; it must be >= 1 (fiber cannot be shorter than the geodesic).
    """
    if inflation < 1.0:
        raise ConfigError(f"path inflation must be >= 1, got {inflation}")
    return haversine_km(a, b) * inflation / FIBER_KM_PER_MS


def rtt_floor_ms(a: GeoPoint, b: GeoPoint, inflation: float = DEFAULT_PATH_INFLATION) -> float:
    """Lower bound on round-trip time between two points (2x one-way)."""
    return 2.0 * propagation_delay_ms(a, b, inflation)
