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
from repro.net.path import RouterPath
from repro.transport.throughput import TcpParams, steady_state_throughput_mbps

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
        return [
            steady_state_throughput_mbps(segment.metrics(t), self.params)
            for segment in self.segments
        ]

    def throughput_at(self, t: float) -> float:
        """End-to-end rate: min over segments, shaved per relay."""
        return min(self.segment_throughputs(t)) * self.relay_shave

    @property
    def relay_shave(self) -> float:
        """Rate factor of the relays: the proxy efficiency once per relay."""
        return self.proxy_efficiency**self.relay_count

    def discrete_bound_at(self, t: float) -> float:
        """The paper's *discrete overlay* upper bound (no relay shave)."""
        return min(self.segment_throughputs(t))
