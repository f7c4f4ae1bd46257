"""A small city database covering the paper's geography.

The CRONets experiments span five continents: PlanetLab clients in
Europe/America/Asia/Australia, Eclipse mirror servers in Canada, USA,
Germany, Switzerland, Japan, Korea and China, and Softlayer data centers
at Washington DC, San Jose, Dallas, Amsterdam and Tokyo (plus more for
the 9-server MPTCP study).  Coordinates are approximate city centers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.geo.coords import GeoPoint, haversine_km


@dataclass(frozen=True, slots=True)
class City:
    """A named location with coordinates and a coarse region tag."""

    name: str
    point: GeoPoint
    region: str  # "na", "sa", "eu", "as", "oc"
    country: str


def _c(name: str, lat: float, lon: float, region: str, country: str) -> City:
    return City(name=name, point=GeoPoint(lat, lon), region=region, country=country)


#: All known cities, keyed by name.
CITIES: dict[str, City] = {
    c.name: c
    for c in [
        # --- North America ---
        _c("new_york", 40.71, -74.01, "na", "US"),
        _c("washington_dc", 38.91, -77.04, "na", "US"),
        _c("san_jose", 37.34, -121.89, "na", "US"),
        _c("dallas", 32.78, -96.80, "na", "US"),
        _c("seattle", 47.61, -122.33, "na", "US"),
        _c("portland", 45.52, -122.68, "na", "US"),
        _c("chicago", 41.88, -87.63, "na", "US"),
        _c("atlanta", 33.75, -84.39, "na", "US"),
        _c("miami", 25.76, -80.19, "na", "US"),
        _c("los_angeles", 34.05, -118.24, "na", "US"),
        _c("denver", 39.74, -104.99, "na", "US"),
        _c("boston", 42.36, -71.06, "na", "US"),
        _c("houston", 29.76, -95.37, "na", "US"),
        _c("toronto", 43.65, -79.38, "na", "CA"),
        _c("montreal", 45.50, -73.57, "na", "CA"),
        _c("vancouver", 49.28, -123.12, "na", "CA"),
        _c("mexico_city", 19.43, -99.13, "na", "MX"),
        # --- South America ---
        _c("sao_paulo", -23.55, -46.63, "sa", "BR"),
        _c("rio_de_janeiro", -22.91, -43.17, "sa", "BR"),
        _c("buenos_aires", -34.60, -58.38, "sa", "AR"),
        _c("santiago", -33.45, -70.67, "sa", "CL"),
        _c("bogota", 4.71, -74.07, "sa", "CO"),
        # --- Europe ---
        _c("amsterdam", 52.37, 4.90, "eu", "NL"),
        _c("london", 51.51, -0.13, "eu", "GB"),
        _c("paris", 48.86, 2.35, "eu", "FR"),
        _c("frankfurt", 50.11, 8.68, "eu", "DE"),
        _c("berlin", 52.52, 13.41, "eu", "DE"),
        _c("munich", 48.14, 11.58, "eu", "DE"),
        _c("zurich", 47.37, 8.54, "eu", "CH"),
        _c("geneva", 46.20, 6.14, "eu", "CH"),
        _c("madrid", 40.42, -3.70, "eu", "ES"),
        _c("milan", 45.46, 9.19, "eu", "IT"),
        _c("rome", 41.90, 12.50, "eu", "IT"),
        _c("stockholm", 59.33, 18.07, "eu", "SE"),
        _c("oslo", 59.91, 10.75, "eu", "NO"),
        _c("helsinki", 60.17, 24.94, "eu", "FI"),
        _c("warsaw", 52.23, 21.01, "eu", "PL"),
        _c("prague", 50.08, 14.44, "eu", "CZ"),
        _c("vienna", 48.21, 16.37, "eu", "AT"),
        _c("dublin", 53.35, -6.26, "eu", "IE"),
        _c("brussels", 50.85, 4.35, "eu", "BE"),
        _c("lisbon", 38.72, -9.14, "eu", "PT"),
        _c("athens", 37.98, 23.73, "eu", "GR"),
        _c("budapest", 47.50, 19.04, "eu", "HU"),
        _c("copenhagen", 55.68, 12.57, "eu", "DK"),
        # --- Asia ---
        _c("tokyo", 35.68, 139.69, "as", "JP"),
        _c("osaka", 34.69, 135.50, "as", "JP"),
        _c("seoul", 37.57, 126.98, "as", "KR"),
        _c("beijing", 39.90, 116.41, "as", "CN"),
        _c("shanghai", 31.23, 121.47, "as", "CN"),
        _c("hong_kong", 22.32, 114.17, "as", "HK"),
        _c("singapore", 1.35, 103.82, "as", "SG"),
        _c("taipei", 25.03, 121.57, "as", "TW"),
        _c("mumbai", 19.08, 72.88, "as", "IN"),
        _c("bangalore", 12.97, 77.59, "as", "IN"),
        _c("tel_aviv", 32.09, 34.78, "as", "IL"),
        # --- Oceania ---
        _c("sydney", -33.87, 151.21, "oc", "AU"),
        _c("melbourne", -37.81, 144.96, "oc", "AU"),
        _c("brisbane", -27.47, 153.03, "oc", "AU"),
        _c("auckland", -36.85, 174.76, "oc", "NZ"),
    ]
}

#: Region tags recognized by :func:`cities_in_region`.
REGIONS = ("na", "sa", "eu", "as", "oc")


def city(name: str) -> City:
    """Look up a city by name, raising :class:`ConfigError` if unknown."""
    try:
        return CITIES[name]
    except KeyError:
        raise ConfigError(f"unknown city {name!r}; known: {sorted(CITIES)}") from None


@functools.cache
def city_distance_km(a: str, b: str) -> float:
    """Great-circle distance between two known cities, in kilometers.

    Memoised per ordered name pair: topology generation and interconnect
    choice ask for the same few thousand pairs tens of thousands of
    times, and the database is fixed, so each pair is computed once.
    """
    return haversine_km(city(a).point, city(b).point)


def cities_in_region(region: str) -> list[City]:
    """All cities in a region tag, sorted by name for determinism."""
    if region not in REGIONS:
        raise ConfigError(f"unknown region {region!r}; known: {REGIONS}")
    return sorted((c for c in CITIES.values() if c.region == region), key=lambda c: c.name)
