"""Geography: city database, great-circle distance, propagation delay."""

from repro.geo.coords import (
    GeoPoint,
    haversine_km,
    propagation_delay_ms,
    rtt_floor_ms,
)
from repro.geo.cities import CITIES, City, city, cities_in_region, city_distance_km

__all__ = [
    "GeoPoint",
    "haversine_km",
    "propagation_delay_ms",
    "rtt_floor_ms",
    "CITIES",
    "City",
    "city",
    "cities_in_region",
    "city_distance_km",
]
