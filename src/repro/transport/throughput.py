"""Steady-state TCP throughput estimation and flow statistics.

A TCP connection's achievable rate is the minimum of three limits:

* the bottleneck's available bandwidth,
* the receive-window limit ``rwnd / RTT`` (PlanetLab-era hosts had
  heterogeneous, often small, buffers — this is what makes zero-loss
  but high-RTT paths improvable by an RTT-cutting overlay, the polarity
  Sec. V-B observes),
* the Mathis loss limit ``(MSS/RTT)·sqrt(3/2)/sqrt(p)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError, check
from repro.net.path import LegMetrics, PathMetrics
from repro.transport.mathis import MATHIS_CONSTANT, mathis_throughput_mbps
from repro.units import DEFAULT_MSS, mbps_to_bytes_per_sec

#: Throughput floor: a connection that completes at all delivers
#: something, and ratios against zero are undefined.
MIN_THROUGHPUT_MBPS = 1e-3


@dataclass(frozen=True, slots=True)
class TcpParams:
    """Endpoint/tunnel parameters of one TCP connection."""

    mss_bytes: int = DEFAULT_MSS
    rwnd_bytes: int = 1_048_576
    #: Multiplicative efficiency (tunnel/proxy processing overhead).
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        check(self.mss_bytes, "mss_bytes", gt=0, error=TransportError)
        # The window must hold at least one segment.
        check(self.rwnd_bytes, "rwnd_bytes", ge=self.mss_bytes, error=TransportError)
        check(self.efficiency, "efficiency", gt=0, le=1, error=TransportError)

    def with_mss(self, mss_bytes: int) -> "TcpParams":
        """Copy with a different MSS (tunnel encapsulation shrinks it)."""
        return TcpParams(
            mss_bytes=mss_bytes, rwnd_bytes=self.rwnd_bytes, efficiency=self.efficiency
        )


def steady_state_throughput_mbps(metrics: PathMetrics, params: TcpParams) -> float:
    """Steady-state throughput of one TCP flow over a path snapshot.

    Data segments pay ``metrics.bulk_loss`` (equal to the ping-visible
    ``metrics.loss`` except under a bulk-only gray failure), so a link
    that answers pings while silently dropping bulk traffic collapses
    the Mathis limit without moving the ping metrics at all.
    """
    loss = metrics.bulk_loss if metrics.bulk_loss is not None else metrics.loss
    if loss >= 1.0:
        return 0.0
    rtt_s = metrics.rtt_ms / 1_000.0
    if rtt_s <= 0:
        raise TransportError(f"RTT must be positive, got {metrics.rtt_ms} ms")
    rwnd_limit = params.rwnd_bytes * 8 / rtt_s / 1e6
    limits = [metrics.available_bw_mbps, metrics.capacity_mbps, rwnd_limit]
    if loss > 0.0:
        limits.append(mathis_throughput_mbps(params.mss_bytes, metrics.rtt_ms, loss))
    return max(min(limits) * params.efficiency, MIN_THROUGHPUT_MBPS)


def steady_state_rates(
    metrics: LegMetrics,
    mss_bytes: np.ndarray,
    rwnd_bytes: np.ndarray,
    efficiency: np.ndarray,
) -> np.ndarray:
    """:func:`steady_state_throughput_mbps` over a batch of legs.

    Leg ``i`` runs with ``mss_bytes[i]``, ``rwnd_bytes[i]`` and
    ``efficiency[i]``.  Every operation has the scalar's operands in
    the scalar's order (the Mathis limit inlined from
    :func:`~repro.transport.mathis.mathis_throughput_mbps`, whose
    ``sqrt`` is correctly rounded in both), so each rate is
    bit-identical to the per-leg call, dead legs included; an RTT that
    is not positive on a live leg raises the same :class:`TransportError`.
    """
    loss = metrics.bulk_loss
    rtt_ms = metrics.rtt_ms
    live = ~(loss >= 1.0)
    rtt_s = rtt_ms / 1_000.0
    bad = live & (rtt_s <= 0)
    if bad.any():
        raise TransportError(
            f"RTT must be positive, got {float(rtt_ms[bad.argmax()])} ms"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        rwnd_limit = rwnd_bytes * 8 / rtt_s / 1e6
        limit = np.minimum(
            np.minimum(metrics.available_bw_mbps, metrics.capacity_mbps), rwnd_limit
        )
        mathis = (mss_bytes / rtt_s) * MATHIS_CONSTANT / np.sqrt(loss) * 8 / 1e6
        limit = np.where(live & (loss > 0.0), np.minimum(limit, mathis), limit)
    return np.where(live, np.maximum(limit * efficiency, MIN_THROUGHPUT_MBPS), 0.0)


@dataclass(frozen=True, slots=True)
class FlowStats:
    """What a finished (or sampled) transfer reports.

    These are the quantities the paper's toolchain extracts: iperf
    reads ``throughput_mbps``; tstat derives the retransmission rate
    (``bytes_retransmitted / bytes_acked``) and the average RTT.
    """

    duration_s: float
    bytes_acked: int
    bytes_retransmitted: int
    avg_rtt_ms: float
    throughput_mbps: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise TransportError(f"duration must be positive, got {self.duration_s}")
        if self.bytes_acked < 0 or self.bytes_retransmitted < 0:
            raise TransportError("byte counters must be non-negative")

    @classmethod
    def from_samples(
        cls,
        duration_s: float,
        rates: Sequence[float],
        rtts: Sequence[float],
        losses: Sequence[float],
    ) -> "FlowStats":
        """A transfer's stats from its per-instant samples.

        The rate, RTT and retransmitted-segment loss are each the plain
        mean of the samples — how a long transfer rides through load
        variation.
        """
        samples = len(rates)
        rate = sum(rates) / samples
        bytes_acked = int(mbps_to_bytes_per_sec(rate) * duration_s)
        return cls(
            duration_s=duration_s,
            bytes_acked=bytes_acked,
            bytes_retransmitted=int(bytes_acked * (sum(losses) / samples)),
            avg_rtt_ms=sum(rtts) / samples,
            throughput_mbps=rate,
        )

    @property
    def retransmission_rate(self) -> float:
        """Retransmitted bytes over acked bytes (tstat's loss proxy)."""
        if self.bytes_acked == 0:
            return 0.0
        return self.bytes_retransmitted / self.bytes_acked
