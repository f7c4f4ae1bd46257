"""Multi-hop overlay paths (Sec. VII-B, implemented future work).

The paper asks: "Can multi-hop overlay paths provide further
performance, and if so, how many times and where should we split the
TCP connections?"  A two-hop path A→O₁→O₂→B rides the cloud's private
backbone between O₁ and O₂ — clean, uncongested — and exits the cloud
near B.  With split-TCP at *both* relays, each of the three segments
runs its own congestion control over a short RTT.

This module enumerates multi-hop options over a CRONet, builds their
split chains, and answers the paper's question quantitatively (see
``benchmarks/test_bench_multihop.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.net.path import RouterPath
from repro.net.world import Internet
from repro.transport.split import SplitTcpChain
from repro.transport.throughput import TcpParams
from repro.tunnel.node import OverlayNode, SPLIT_EFFICIENCY
from repro.units import DEFAULT_MSS


@dataclass(frozen=True)
class MultiHopOption:
    """One ordered relay sequence between a fixed (A, B) pair."""

    nodes: tuple[OverlayNode, ...]
    segments: tuple[RouterPath, ...]

    @property
    def hop_count(self) -> int:
        """Number of overlay relays traversed."""
        return len(self.nodes)

    @property
    def name(self) -> str:
        """Human-readable relay sequence."""
        return " -> ".join(node.name for node in self.nodes)

    @property
    def concatenated(self) -> RouterPath:
        """The full router-level path through every relay."""
        path = self.segments[0]
        for segment in self.segments[1:]:
            path = path.concatenate(segment)
        return path


@dataclass(frozen=True)
class MultiHopPathSet:
    """All ≤ ``max_hops``-relay options between one endpoint pair."""

    internet: Internet
    src_name: str
    dst_name: str
    options: tuple[MultiHopOption, ...]

    @classmethod
    def build(
        cls,
        internet: Internet,
        src_name: str,
        dst_name: str,
        nodes: list[OverlayNode],
        max_hops: int = 2,
    ) -> "MultiHopPathSet":
        """Enumerate every ordered relay sequence of length 1..max_hops."""
        if max_hops < 1:
            raise ConfigError(f"max_hops must be >= 1, got {max_hops}")
        if not nodes:
            raise ConfigError("multi-hop path set needs at least one overlay node")
        options: list[MultiHopOption] = []
        for hop_count in range(1, max_hops + 1):
            for sequence in itertools.permutations(nodes, hop_count):
                waypoints = [src_name, *(n.host.name for n in sequence), dst_name]
                segments = tuple(
                    internet.resolve_path(a, b) for a, b in zip(waypoints, waypoints[1:])
                )
                options.append(MultiHopOption(nodes=sequence, segments=segments))
        return cls(
            internet=internet, src_name=src_name, dst_name=dst_name, options=tuple(options)
        )

    def _params(self) -> TcpParams:
        return TcpParams(
            mss_bytes=DEFAULT_MSS - 24,  # GRE on the client-side segment
            rwnd_bytes=self.internet.host(self.dst_name).rwnd_bytes,
        )

    def split_chain(self, option: MultiHopOption) -> SplitTcpChain:
        """Split-TCP at every relay of the option."""
        return SplitTcpChain(
            segments=option.segments,
            params=self._params(),
            proxy_efficiency=SPLIT_EFFICIENCY,
        )

    def best_by_hop_count(self, at_time: float) -> dict[int, tuple[str, float]]:
        """Best split-chain throughput per relay count.

        The answer to Sec. VII-B: compare ``result[1]`` and
        ``result[2]`` to see whether the second hop pays for itself.
        """
        best: dict[int, tuple[str, float]] = {}
        for option in self.options:
            value = self.split_chain(option).throughput_at(at_time)
            current = best.get(option.hop_count)
            if current is None or value > current[1]:
                best[option.hop_count] = (option.name, value)
        return best

    def uses_backbone(self, option: MultiHopOption) -> bool:
        """True when a relay-to-relay segment rides the cloud backbone."""
        from repro.net.links import LinkClass

        middle_segments = option.segments[1:-1]
        return any(
            link.link_class is LinkClass.CLOUD_BACKBONE
            for segment in middle_segments
            for link in segment.links
        )
