"""Round-based fluid simulation of TCP/MPTCP flows sharing links.

The simulator advances a global tick; each flow injects at rate
``cwnd * MSS / RTT``.  Links are full duplex: demand is aggregated per
*(link, direction)*, and when demand (flows + background) exceeds
capacity, the excess fraction becomes a drop probability for every
flow crossing in that direction.  Once a flow's elapsed time covers one
RTT, the round closes: the flow's congestion controller receives a
Bernoulli loss-event outcome (Poisson-approximated from the packets
the round carried) and updates its window.

The per-tick increments change only when a round closes (a window
moves), the background is re-sampled or an ``on_tick`` hook runs (it
may fail a link), so they are cached in a loss table rebuilt only
after one of those events, with the arithmetic of a per-tick rebuild.

This is deliberately a *fluid* model — no per-packet queues — which is
the right fidelity for the paper's MPTCP questions: does coupled
congestion control track the best path (Fig. 12) and does uncoupled
CUBIC aggregate to NIC line rate (Fig. 13)?
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TransportError, check
from repro.net.links import Link
from repro.net.path import RouterPath
from repro.transport.cc.base import CongestionControl
from repro.transport.throughput import FlowStats
from repro.units import DEFAULT_MSS

#: How often (simulated seconds) background utilization is re-sampled.
BACKGROUND_REFRESH_S = 1.0

#: Per flow: the ``(acked, retransmitted, expected losses, dead)`` of one tick.
_LossTable = list[tuple[float, float, float, bool]]


@dataclass(slots=True)
class _DirectedHop:
    """One traversal of a link in a specific direction."""

    link: Link
    #: ``(link id, forward)``; forward is True when traversed router_a -> router_b.
    key: tuple[int, bool]


@dataclass(slots=True)
class FluidFlow:
    """One simulated flow (a TCP connection or an MPTCP subflow)."""

    flow_id: int
    label: str
    hops: list[_DirectedHop]
    cc: CongestionControl
    rwnd_bytes: int
    mss_bytes: int
    base_rtt_s: float
    elapsed_in_round_s: float = 0.0
    round_expected_losses: float = 0.0
    bytes_acked: float = 0.0
    bytes_retransmitted: float = 0.0
    rtt_samples: list[float] = field(default_factory=list)

    @property
    def max_cwnd_segments(self) -> float:
        """Receive-window cap on the congestion window, in segments."""
        return self.rwnd_bytes / self.mss_bytes

    def rate_mbps(self) -> float:
        """Current injection rate from the window and base RTT."""
        return self.cc.cwnd * self.mss_bytes * 8 / self.base_rtt_s / 1e6


class FluidSimulator:
    """Shared-link fluid simulation at a frozen world-time snapshot.

    ``at_time`` anchors background utilization and path delays; the
    background is refreshed every simulated second so diurnal drift and
    episodes inside the run are honoured.  ``on_tick`` (if given) is
    called once per tick with ``(simulator, elapsed_s)`` — the hook the
    failure-injection tests use.
    """

    def __init__(
        self,
        at_time: float,
        rng: np.random.Generator,
        tick_s: float = 0.005,
        mss_bytes: int = DEFAULT_MSS,
        on_tick=None,
    ) -> None:
        self.at_time = at_time
        self.rng = rng
        self.tick_s = check(tick_s, "tick_s", gt=0, error=TransportError)
        self.mss_bytes = mss_bytes
        self.on_tick = on_tick
        self.flows: list[FluidFlow] = []
        self._next_flow_id = 1

    # ------------------------------------------------------------------
    def add_flow(
        self,
        path: RouterPath,
        cc: CongestionControl,
        rwnd_bytes: int = 4_194_304,
        label: str | None = None,
        mss_bytes: int | None = None,
    ) -> FluidFlow:
        """Register a flow over a resolved path.

        Traversal direction per link is derived from the path's router
        sequence, so opposite-direction flows on a full-duplex link do
        not contend.
        """
        if len(path.links) != len(path.router_ids) - 1:
            raise TransportError(
                f"path {path.src_name}->{path.dst_name} has inconsistent "
                f"router/link counts ({len(path.router_ids)}/{len(path.links)})"
            )
        hops = []
        for i, link in enumerate(path.links):
            forward = path.router_ids[i] == link.router_a
            hops.append(_DirectedHop(link=link, key=(link.link_id, forward)))
        base_rtt_s = path.metrics(self.at_time).rtt_ms / 1_000.0
        if base_rtt_s <= 0:
            raise TransportError("path has zero RTT; cannot simulate")
        flow = FluidFlow(
            flow_id=self._next_flow_id,
            label=label or f"flow-{self._next_flow_id}",
            hops=hops,
            cc=cc,
            rwnd_bytes=rwnd_bytes,
            mss_bytes=mss_bytes if mss_bytes is not None else self.mss_bytes,
            base_rtt_s=base_rtt_s,
        )
        self._next_flow_id += 1
        self.flows.append(flow)
        return flow

    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> dict[int, FlowStats]:
        """Simulate ``duration_s`` and report per-flow statistics."""
        check(duration_s, "duration_s", gt=0, error=TransportError)
        if not self.flows:
            raise TransportError("no flows registered")

        background: dict[tuple[int, bool], float] = {}
        capacity: dict[tuple[int, bool], float] = {}
        exo_loss: dict[tuple[int, bool], float] = {}
        last_refresh = -1e9
        table: _LossTable | None = None

        # Count the ticks up front: summing tick_s accumulates float error
        # and can run one tick too many (751 of 0.02 s in 15 s).
        for i in range(math.ceil(duration_s / self.tick_s - 1e-9)):
            elapsed = i * self.tick_s
            if elapsed - last_refresh >= BACKGROUND_REFRESH_S:
                background, capacity, exo_loss = self._sample_background(
                    self.at_time + elapsed
                )
                last_refresh = elapsed
                table = None
            if table is None:
                table = self._loss_table(background, capacity, exo_loss)
            if self._advance(table):
                table = None  # a window moved
            if self.on_tick is not None:
                self.on_tick(self, elapsed)
                table = None  # the hook may have failed a link

        results: dict[int, FlowStats] = {}
        for flow in self.flows:
            avg_rtt = (
                sum(flow.rtt_samples) / len(flow.rtt_samples)
                if flow.rtt_samples
                else flow.base_rtt_s
            )
            results[flow.flow_id] = FlowStats(
                duration_s=duration_s,
                bytes_acked=int(flow.bytes_acked),
                bytes_retransmitted=int(flow.bytes_retransmitted),
                avg_rtt_ms=avg_rtt * 1_000.0,
                throughput_mbps=flow.bytes_acked * 8 / duration_s / 1e6,
            )
        return results

    # ------------------------------------------------------------------
    def _sample_background(self, t: float):
        """Background load (Mbps), capacity and exogenous loss per hop.

        Exogenous loss is the link's utilization-driven loss (base plus
        congestion from *background* traffic); the fluid flows' own
        over-demand loss is computed per tick on top of it.
        """
        background: dict[tuple[int, bool], float] = {}
        capacity: dict[tuple[int, bool], float] = {}
        exo_loss: dict[tuple[int, bool], float] = {}
        for flow in self.flows:
            for hop in flow.hops:
                if hop.key in background:
                    continue
                util = hop.link.utilization(t)
                background[hop.key] = util * hop.link.capacity_mbps
                capacity[hop.key] = hop.link.capacity_mbps
                # Fluid flows model bulk data: they pay any silent bulk drop.
                exo_loss[hop.key] = hop.link.bulk_loss(t)
        return background, capacity, exo_loss

    def _loss_table(self, background, capacity, exo_loss) -> _LossTable:
        """Each flow's one-tick increments at the current windows and links."""
        # 1. demand per directed hop
        rates = [flow.rate_mbps() for flow in self.flows]
        demand = dict(background)
        for flow, rate in zip(self.flows, rates):
            for hop in flow.hops:
                demand[hop.key] += rate

        # 2. per-hop drop fraction from over-demand
        over: dict[tuple[int, bool], float] = {}
        for key, total in demand.items():
            cap = capacity[key]
            over[key] = max(0.0, (total - cap) / total) if total > 0 else 0.0

        # 3. per-flow packet loss probability and byte accounting
        table = []
        for flow, rate in zip(self.flows, rates):
            survive = 1.0
            dead = False
            for hop in flow.hops:
                if hop.link.failed:
                    dead = True
                    break
                survive *= (1.0 - exo_loss[hop.key]) * (1.0 - over[hop.key])
            p_pkt = 1.0 if dead else 1.0 - survive
            rate_bytes = rate * 1e6 / 8 * self.tick_s
            packets = rate_bytes / flow.mss_bytes
            table.append(
                (rate_bytes * (1.0 - p_pkt), rate_bytes * p_pkt, packets * p_pkt, dead)
            )
        return table

    def _advance(self, table: _LossTable) -> bool:
        """Add one tick of ``table`` to every flow; True if a round closed."""
        closed = False
        for flow, (acked, retransmitted, losses, dead) in zip(self.flows, table):
            flow.bytes_acked += acked
            flow.bytes_retransmitted += retransmitted
            flow.round_expected_losses += losses

            # 4. close the round after one RTT
            flow.elapsed_in_round_s += self.tick_s
            if flow.elapsed_in_round_s >= flow.base_rtt_s:
                lost = bool(
                    dead or self.rng.random() < 1.0 - np.exp(-flow.round_expected_losses)
                )
                flow.cc.on_round(lost, flow.base_rtt_s)
                flow.cc.clamp(flow.max_cwnd_segments)
                flow.rtt_samples.append(flow.base_rtt_s)
                flow.elapsed_in_round_s = 0.0
                flow.round_expected_losses = 0.0
                closed = True
        return closed
