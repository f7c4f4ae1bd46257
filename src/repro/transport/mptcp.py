"""MPTCP connections: N+1 subflows, coupled or uncoupled control.

This is the machinery of Sec. VI.  An MPTCP connection between two
proxies opens one subflow on the direct path and one reflected off
each overlay node.  Connection-level sequencing reassembles whatever
arrives, so the aggregate goodput is the sum of subflow goodputs.

Two operating regimes, matching the paper's Figs. 12 and 13:

* coupled (OLIA or LIA): aggregate ≈ single-path TCP on the best path
  — the path-selection property CRONets exploits;
* uncoupled CUBIC: each subflow competes independently; the aggregate
  is the sum of paths, saturating the endpoint NIC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError
from repro.net.path import RouterPath
from repro.transport.cc import CubicCC, LiaCoupler, OliaCoupler
from repro.transport.fluid import FluidFlow, FluidSimulator
from repro.transport.throughput import FlowStats


class MptcpScheme(enum.Enum):
    """Congestion-control scheme across subflows."""

    OLIA = "olia"
    LIA = "lia"
    UNCOUPLED_CUBIC = "cubic"


@dataclass(frozen=True, slots=True)
class MptcpStats:
    """Result of one MPTCP run: aggregate plus per-subflow stats."""

    total: FlowStats
    subflows: tuple[FlowStats, ...]
    subflow_labels: tuple[str, ...]

    @property
    def throughput_mbps(self) -> float:
        """Aggregate goodput of the MPTCP connection."""
        return self.total.throughput_mbps


class MptcpConnection:
    """An MPTCP connection over a set of candidate paths."""

    def __init__(
        self,
        paths: list[RouterPath],
        scheme: MptcpScheme = MptcpScheme.OLIA,
        rwnd_bytes: int = 4_194_304,
        labels: list[str] | None = None,
    ) -> None:
        if not paths:
            raise TransportError("MPTCP connection needs at least one path")
        if labels is not None and len(labels) != len(paths):
            raise TransportError(
                f"got {len(labels)} labels for {len(paths)} paths"
            )
        self.paths = list(paths)
        self.scheme = scheme
        self.rwnd_bytes = rwnd_bytes
        self.labels = labels

    def _controllers(self):
        """One congestion controller per subflow, per the scheme."""
        if self.scheme is MptcpScheme.UNCOUPLED_CUBIC:
            return [CubicCC() for _ in self.paths]
        coupler = OliaCoupler() if self.scheme is MptcpScheme.OLIA else LiaCoupler()
        return [coupler.new_subflow() for _ in self.paths]

    def run(
        self,
        at_time: float,
        duration_s: float,
        rng: np.random.Generator,
        tick_s: float = 0.005,
        on_tick=None,
    ) -> MptcpStats:
        """Simulate the connection for ``duration_s`` at ``at_time``."""
        sim = FluidSimulator(at_time=at_time, rng=rng, tick_s=tick_s, on_tick=on_tick)
        flows: list[FluidFlow] = []
        labels: list[str] = []
        for i, (path, cc) in enumerate(zip(self.paths, self._controllers())):
            label = (
                self.labels[i]
                if self.labels is not None
                else f"{path.src_name}->{path.dst_name}"
            )
            flows.append(sim.add_flow(path, cc, rwnd_bytes=self.rwnd_bytes, label=label))
            labels.append(label)
        per_flow = sim.run(duration_s)

        subflow_stats = tuple(per_flow[flow.flow_id] for flow in flows)
        total_bytes = sum(stats.bytes_acked for stats in subflow_stats)
        total_retx = sum(stats.bytes_retransmitted for stats in subflow_stats)
        weighted_rtt = (
            sum(stats.avg_rtt_ms * stats.bytes_acked for stats in subflow_stats) / total_bytes
            if total_bytes
            else subflow_stats[0].avg_rtt_ms
        )
        total = FlowStats(
            duration_s=duration_s,
            bytes_acked=total_bytes,
            bytes_retransmitted=total_retx,
            avg_rtt_ms=weighted_rtt,
            throughput_mbps=total_bytes * 8 / duration_s / 1e6,
        )
        return MptcpStats(total=total, subflows=subflow_stats, subflow_labels=tuple(labels))
