"""Split-TCP: breaking one connection into per-segment connections.

The paper's key accelerator (Sec. II): an overlay node terminates the
TCP connection and opens a second one toward the destination.  Each
segment then runs its *own* congestion control over its *own* (shorter)
RTT, so by the Mathis relation each segment can sustain a higher rate
than one end-to-end connection over the concatenated path.  The chain's
throughput is the minimum across segments, shaved by a small proxy
relay efficiency — the paper's "discrete overlay" measurement is
exactly this minimum without the shave, and Sec. III-B finds the two
nearly identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransportError, check
from repro.net.path import PathMetrics, RouterPath
from repro.transport.throughput import FlowStats, TcpParams, steady_state_throughput_mbps

#: Relay efficiency of a userspace split-TCP proxy.
DEFAULT_PROXY_EFFICIENCY = 0.98


@dataclass(frozen=True)
class SplitTcpChain:
    """A chain of TCP segments relayed by split-TCP prox(ies).

    ``segments`` are the per-hop router paths (A→O, O→B for a one-hop
    overlay; more for multi-hop).  ``params`` applies to every segment;
    the proxy efficiency is applied once per intermediate relay.
    """

    segments: tuple[RouterPath, ...]
    params: TcpParams = TcpParams()
    proxy_efficiency: float = DEFAULT_PROXY_EFFICIENCY

    def __post_init__(self) -> None:
        if len(self.segments) < 2:
            raise TransportError(
                f"a split chain needs at least 2 segments, got {len(self.segments)}"
            )
        check(self.proxy_efficiency, "proxy_efficiency", gt=0, le=1, error=TransportError)

    @property
    def relay_count(self) -> int:
        """Number of intermediate split points."""
        return len(self.segments) - 1

    def segment_throughputs(self, t: float) -> list[float]:
        """Steady-state throughput of each segment independently."""
        return self._segment_rates([segment.metrics(t) for segment in self.segments])

    def _segment_rates(self, metrics: list[PathMetrics]) -> list[float]:
        """Each segment's steady-state rate from its metrics at one instant."""
        return [steady_state_throughput_mbps(m, self.params) for m in metrics]

    def throughput_at(self, t: float) -> float:
        """End-to-end rate: min over segments, shaved per relay."""
        return self._rate(self.segment_throughputs(t))

    @property
    def relay_shave(self) -> float:
        """Rate factor of the relays: the proxy efficiency once per relay."""
        return self.proxy_efficiency**self.relay_count

    def _rate(self, segment_rates: list[float]) -> float:
        """End-to-end rate from the per-segment rates."""
        return min(segment_rates) * self.relay_shave

    def discrete_bound_at(self, t: float) -> float:
        """The paper's *discrete overlay* upper bound (no relay shave)."""
        return min(self.segment_throughputs(t))

    def run(self, start_time: float, duration_s: float, samples: int = 5) -> FlowStats:
        """Relay data for ``duration_s``; reports end-to-end stats.

        The reported RTT is the sum of segment RTTs (what an end-to-end
        ping through the relays would see); the retransmission rate is
        the client-visible first-segment rate, since the proxy absorbs
        downstream losses — one reason split-TCP looks so clean from
        the sender's viewpoint.
        """
        if duration_s <= 0:
            raise TransportError(f"duration must be positive, got {duration_s}")
        rates = []
        rtt_sums = []
        first_losses = []
        for i in range(samples):
            t = start_time + duration_s * (i + 0.5) / samples
            metrics = [segment.metrics(t) for segment in self.segments]
            rates.append(self._rate(self._segment_rates(metrics)))
            rtt_sums.append(sum(m.rtt_ms for m in metrics))
            first_losses.append(metrics[0].loss)
        return FlowStats.from_samples(duration_s, rates, rtt_sums, first_losses)
