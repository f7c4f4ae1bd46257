"""A single-path TCP connection in model mode.

``TcpConnection`` evaluates a resolved path over a measurement window:
it samples the path's time-varying metrics at several instants,
computes the steady-state rate at each, and reports averaged
:class:`~repro.transport.throughput.FlowStats`.  This is the engine
behind the iperf/file-download measurements of Secs. II–V.
"""

from __future__ import annotations

from repro.errors import TransportError, check
from repro.net.path import RouterPath
from repro.transport.throughput import (
    FlowStats,
    TcpParams,
    steady_state_throughput_mbps,
)


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
        check(duration_s, "duration_s", gt=0, error=TransportError)
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
