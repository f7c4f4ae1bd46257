"""Unit helpers and conversions used across the library.

Conventions (documented once here, relied on everywhere):

* bandwidth/throughput — megabits per second (``float`` Mbps)
* time — milliseconds for delays/RTTs, seconds for durations
* data sizes — bytes (``int``) unless a name says otherwise
* loss/utilization — dimensionless fractions in ``[0, 1]``
"""

from __future__ import annotations

from repro.errors import ConfigError

BITS_PER_BYTE = 8
BYTES_PER_MB = 1_000_000
SECONDS_PER_HOUR = 3_600.0

#: Default Ethernet MTU in bytes.
DEFAULT_MTU = 1_500
#: IPv4 header (no options) in bytes.
IPV4_HEADER = 20
#: TCP header (no options) in bytes.
TCP_HEADER = 20
#: Default MSS for a plain (untunneled) path.
DEFAULT_MSS = DEFAULT_MTU - IPV4_HEADER - TCP_HEADER


def mbps_to_bytes_per_sec(mbps: float) -> float:
    """Convert a rate in Mbps to bytes/second."""
    return mbps * BYTES_PER_MB / BITS_PER_BYTE


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` is a fraction in [0, 1] and return it."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value}")
    return value
