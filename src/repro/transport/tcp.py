"""A single-path TCP connection in model mode.

``TcpConnection`` evaluates a resolved path over a measurement window:
it samples the path's time-varying metrics at several instants,
computes the steady-state rate at each, and reports averaged
:class:`~repro.transport.throughput.FlowStats`.  This is the engine
behind the iperf/file-download measurements of Secs. II–V.
"""

from __future__ import annotations

import math

from repro.errors import TransportError
from repro.net.path import RouterPath
from repro.transport.throughput import (
    FlowStats,
    TcpParams,
    steady_state_throughput_mbps,
)
from repro.units import mbps_to_bytes_per_sec

#: Initial congestion window (RFC 6928) used for the slow-start ramp
#: estimate on finite transfers.
INITIAL_CWND_SEGMENTS = 10


class TcpConnection:
    """One TCP flow over a fixed router-level path."""

    def __init__(self, path: RouterPath, params: TcpParams | None = None) -> None:
        self.path = path
        self.params = params or TcpParams()

    def throughput_at(self, t: float) -> float:
        """Instantaneous steady-state throughput (Mbps) at time ``t``."""
        return steady_state_throughput_mbps(self.path.metrics(t), self.params)

    def run(self, start_time: float, duration_s: float, samples: int = 5) -> FlowStats:
        """Transfer for ``duration_s`` starting at ``start_time``.

        Path metrics are sampled at ``samples`` evenly spaced instants
        and averaged — long transfers ride through load variation, the
        way a 30-second iperf run does.
        """
        if duration_s <= 0:
            raise TransportError(f"duration must be positive, got {duration_s}")
        if samples < 1:
            raise TransportError(f"need at least one sample, got {samples}")
        rates = []
        rtts = []
        losses = []
        for i in range(samples):
            t = start_time + duration_s * (i + 0.5) / samples
            metrics = self.path.metrics(t)
            rates.append(steady_state_throughput_mbps(metrics, self.params))
            rtts.append(metrics.rtt_ms)
            # Retransmissions are data segments: they pay the bulk loss.
            losses.append(metrics.bulk_loss)
        return FlowStats.from_samples(duration_s, rates, rtts, losses)

    def transfer(self, start_time: float, size_bytes: int) -> FlowStats:
        """Download ``size_bytes`` (e.g. the paper's 100 MB file).

        Adds a slow-start ramp penalty: roughly
        ``RTT * log2(target_window / initial_window)`` before the flow
        reaches its steady rate, which matters for small files on long
        paths.
        """
        if size_bytes <= 0:
            raise TransportError(f"size must be positive, got {size_bytes}")
        metrics = self.path.metrics(start_time)
        rate = steady_state_throughput_mbps(metrics, self.params)
        rtt_s = metrics.rtt_ms / 1_000.0
        target_window_segments = max(
            mbps_to_bytes_per_sec(rate) * rtt_s / self.params.mss_bytes, 1.0
        )
        ramp_rounds = max(math.log2(target_window_segments / INITIAL_CWND_SEGMENTS), 0.0)
        ramp_s = ramp_rounds * rtt_s
        steady_s = size_bytes / mbps_to_bytes_per_sec(rate)
        duration = ramp_s + steady_s
        effective_rate = size_bytes * 8 / duration / 1e6
        return FlowStats(
            duration_s=duration,
            bytes_acked=size_bytes,
            bytes_retransmitted=int(size_bytes * metrics.bulk_loss),
            avg_rtt_ms=metrics.rtt_ms,
            throughput_mbps=effective_rate,
        )
