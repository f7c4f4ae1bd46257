"""Unit helpers and conversions used across the library.

Conventions (documented once here, relied on everywhere):

* bandwidth/throughput — megabits per second (``float`` Mbps)
* time — milliseconds for delays/RTTs, seconds for durations
* data sizes — bytes (``int``) unless a name says otherwise
* loss/utilization — dimensionless fractions in ``[0, 1]``
"""

from __future__ import annotations

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

