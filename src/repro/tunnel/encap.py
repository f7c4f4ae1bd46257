"""Tunnel encapsulation: header overhead and MSS arithmetic.

Encapsulating IP-in-IP shrinks the payload a single MTU-sized packet
can carry; the effective MSS reduction feeds straight into the Mathis
model, which is why the *plain overlay* measurements carry a small
penalty the *discrete overlay* (no tunnel) measurements do not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TunnelError, check
from repro.units import DEFAULT_MTU, IPV4_HEADER, TCP_HEADER


class TunnelType(enum.Enum):
    """Supported tunnel encapsulations (the two the paper deploys)."""

    GRE = "gre"
    IPSEC_ESP = "ipsec_esp"

    @property
    def overhead_bytes(self) -> int:
        """Extra per-packet bytes added by the encapsulation.

        GRE: outer IPv4 (20) + GRE header (4).  IPsec ESP in tunnel
        mode: outer IPv4 (20) + SPI/seq (8) + IV (16) + padding/trailer
        (~10) + ICV (12) — a representative 66 bytes for AES-CBC/SHA1.
        """
        if self is TunnelType.GRE:
            return IPV4_HEADER + 4
        return IPV4_HEADER + 8 + 16 + 10 + 12


@dataclass(frozen=True, slots=True)
class TunnelSpec:
    """One configured tunnel between an endpoint and an overlay node."""

    tunnel_type: TunnelType
    mtu_bytes: int = DEFAULT_MTU

    def __post_init__(self) -> None:
        check(self.mtu_bytes, f"mtu_bytes of a {self.tunnel_type.value} tunnel",
              gt=self.tunnel_type.overhead_bytes + IPV4_HEADER + TCP_HEADER,
              error=TunnelError)

    @property
    def inner_mss_bytes(self) -> int:
        """MSS available to TCP inside the tunnel."""
        return self.mtu_bytes - self.tunnel_type.overhead_bytes - IPV4_HEADER - TCP_HEADER

    @property
    def efficiency(self) -> float:
        """Fraction of raw link rate left for tunneled TCP payload."""
        return self.inner_mss_bytes / (self.mtu_bytes - IPV4_HEADER - TCP_HEADER)

