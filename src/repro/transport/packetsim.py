"""Packet-level discrete-event TCP simulation.

A third, highest-fidelity transport engine used to *validate* the
other two on small scenarios: real segments flow through per-link FIFO
queues with tail drop, the sender runs NewReno-style congestion
control (slow start, AIMD congestion avoidance, fast retransmit on
three duplicate ACKs, RTO fallback), and the receiver generates
cumulative ACKs.

It is far too slow for 6,600-path campaigns — that is the point of the
model/fluid engines — but on a single path it confirms that their
throughput predictions have the right Mathis-like dependence on RTT
and loss (see ``tests/test_transport_packetsim.py``), and the chaos
replay (``repro chaos --engine packet``) re-validates the gray-failure
loss-compounding story segment by segment.

**A batched engine with a scalar reference.**  The engine batches its
work: sequence-tagged numpy ring buffers sized to the receive window
replace every per-segment dict/set; loss-free hop chains are
burst-processed, so a segment traverses the whole chain in one pass
instead of one heap round-trip per hop (drop draws only happen at
chain-entry hops, so the RNG consumption order is unchanged); and the
retransmission timer re-arms lazily — the one outstanding
``rto_check`` event reschedules itself instead of every ACK pushing a
fresh event.

It must compute exactly what the per-event engine frozen in
``tests/reference/packetsim_scalar.py`` computes: the *same*
floating-point operations in the same order on the same values, with
only the bookkeeping and the number of no-op heap events changed.  The
identity tests in ``tests/test_transport_packetsim.py`` and the
property in ``tests/test_twin_properties.py`` assert equal
:class:`FlowStats` and packet traces across seeds and link shapes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError, check
from repro.net.path import PathMetrics, RouterPath
from repro.transport.throughput import FlowStats
from repro.units import DEFAULT_MSS

#: Initial congestion window (segments), RFC 6928.
INITIAL_CWND = 10.0
#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3
#: Minimum retransmission timeout (seconds).
MIN_RTO_S = 0.2


@dataclass(frozen=True, slots=True)
class SimLink:
    """One hop of the simulated path.

    ``shaper_burst_packets`` turns the hop into a software rate
    limiter (token bucket): packets within the burst allowance pass at
    the *line* rate of ``line_rate_mbps`` and only sustained traffic is
    clocked at ``capacity_mbps`` — exactly how a cloud VM's virtual
    NIC is enforced, and exactly what fools packet-dispersion
    bandwidth estimators (Sec. II-B).
    """

    capacity_mbps: float
    prop_delay_ms: float
    loss_prob: float = 0.0
    queue_packets: int = 128
    shaper_burst_packets: int = 0
    line_rate_mbps: float = 10_000.0
    #: Drop probability for full-size data segments; ``None`` means the
    #: hop treats all traffic alike (``loss_prob``).  A value above
    #: ``loss_prob`` models the differential-observability gray failure
    #: of a link's ``bulk_extra_loss`` — pings survive, bulk data pays
    #: extra.
    bulk_loss_prob: float | None = None

    def __post_init__(self) -> None:
        error = TransportError
        check(self.capacity_mbps, "capacity_mbps", gt=0, error=error)
        check(self.prop_delay_ms, "prop_delay_ms", ge=0, error=error)
        check(self.loss_prob, "loss_prob", ge=0, lt=1, error=error)
        if self.bulk_loss_prob is not None:
            check(self.bulk_loss_prob, "bulk_loss_prob", ge=0, lt=1, error=error)
        check(self.queue_packets, "queue_packets", ge=1, error=error)
        check(self.shaper_burst_packets, "shaper_burst_packets", ge=0, error=error)
        # The line rate cannot be below the shaped rate.
        check(self.line_rate_mbps, "line_rate_mbps", ge=self.capacity_mbps, error=error)

    @property
    def data_loss_prob(self) -> float:
        """The drop probability the simulated data segments draw against."""
        return self.loss_prob if self.bulk_loss_prob is None else self.bulk_loss_prob

    def service_time_s(self, packet_bytes: int) -> float:
        """Sustained per-packet transmission time on this link."""
        return packet_bytes * 8 / (self.capacity_mbps * 1e6)

    def line_time_s(self, packet_bytes: int) -> float:
        """Per-packet time at the underlying line rate (shaped links)."""
        return packet_bytes * 8 / (self.line_rate_mbps * 1e6)


def sim_links_at(path: RouterPath, t: float, queue_packets: int = 128) -> list[SimLink]:
    """Snapshot a router path's links at time ``t``, in link order.

    Threads each link's time-varying state into the packet engine:
    ping-visible loss becomes ``loss_prob``, the bulk-only loss becomes
    the per-segment drop draw, and queuing and impairment delay fold
    into the hop's propagation delay.  With a
    :class:`~repro.faults.injector.FaultInjector` installed, sampling
    mid-episode picks up the impaired state — the chaos replay's way of
    running packets through a gray hop.
    """
    hops = path.hop_metrics(t)
    return [
        SimLink(
            capacity_mbps=capacity,
            prop_delay_ms=one_way,
            loss_prob=loss,
            bulk_loss_prob=bulk_loss,
            queue_packets=queue_packets,
            line_rate_mbps=max(capacity, 10_000.0),
        )
        for one_way, loss, bulk_loss, capacity in zip(
            hops.one_way_ms, hops.loss, hops.bulk_loss, hops.available_bw_mbps
        )
    ]


def sim_path_metrics(links: list[SimLink]) -> PathMetrics:
    """Fold a :class:`SimLink` chain into one :class:`PathMetrics`.

    The model-engine view of exactly what the packet engine simulates:
    propagation RTT, independent per-hop loss composition (ping-visible
    and bulk), and the bottleneck capacity.  Feeding this to
    :func:`~repro.transport.throughput.steady_state_throughput_mbps`
    gives the apples-to-apples model prediction for a packet replay.
    """
    if not links:
        raise TransportError("need at least one link")
    one_way_ms = 0.0
    survive = 1.0
    survive_bulk = 1.0
    capacity = float("inf")
    for link in links:
        one_way_ms += link.prop_delay_ms
        survive *= 1.0 - link.loss_prob
        survive_bulk *= 1.0 - link.data_loss_prob
        capacity = min(capacity, link.capacity_mbps)
    return PathMetrics(
        rtt_ms=2.0 * one_way_ms,
        loss=1.0 - survive,
        available_bw_mbps=capacity,
        capacity_mbps=capacity,
        bulk_loss=1.0 - survive_bulk,
    )


class _DrawPlane:
    """Block-buffered uniform draws over a ``numpy.Generator``.

    The per-segment drop draw is one ``rng.random()`` per lossy hop
    entry — millions of Generator round-trips per long transfer.
    ``Generator.random(n)`` produces the *same* value stream as ``n``
    scalar calls (it is prefix-stable in ``n``), so buffering a block
    of 8,192 and serving it sequentially is bit-identical for every
    value actually consumed; it only advances the underlying bit
    stream further ahead.  Callers construct one fresh seeded
    generator per flow (nothing else draws from it), so the read-ahead
    is unobservable.
    """

    __slots__ = ("_rng", "_buf", "_pos")

    BLOCK = 8_192

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buf = None
        self._pos = 0

    def random(self) -> float:
        """The next uniform draw (identical to ``rng.random()``)."""
        buf = self._buf
        if buf is None or self._pos >= len(buf):
            buf = self._buf = self._rng.random(self.BLOCK)
            self._pos = 0
        value = buf[self._pos]
        self._pos += 1
        return value


class PacketLevelTcp:
    """One TCP flow over a chain of :class:`SimLink` hops.

    ``limit_segments`` bounds the transfer (``None`` = greedy for the
    whole run); a bounded flow that completes early reports the time it
    actually went idle, not the requested horizon.
    """

    def __init__(
        self,
        links: list[SimLink],
        rng: np.random.Generator,
        mss_bytes: int = DEFAULT_MSS,
        rwnd_bytes: int = 1_048_576,
        limit_segments: int | None = None,
    ) -> None:
        if not links:
            raise TransportError("need at least one link")
        check(mss_bytes, "mss_bytes", gt=0, error=TransportError)
        if limit_segments is not None:
            check(limit_segments, "limit_segments", ge=1, error=TransportError)
        self.links = list(links)
        self._rand = _DrawPlane(rng)
        self.mss = mss_bytes
        self.rwnd_segments = max(rwnd_bytes // mss_bytes, 2)
        self.limit_segments = limit_segments

        # Sender state.
        self.cwnd = INITIAL_CWND
        self.ssthresh = float("inf")
        self.next_seq = 0  # next new segment to send
        self.highest_acked = -1  # last cumulatively ACKed segment
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = -1
        self.srtt_s: float | None = None
        self.rttvar_s = 0.0
        self.min_rtt_s: float | None = None
        self.rto_s = 1.0
        self.rto_deadline: float | None = None

        # Receiver state.
        self.expected_seq = 0
        self._max_received = -1

        # Sequence-tagged ring buffers, sized so no two live
        # sequence numbers can share a slot: the live span of every
        # lookup (send times, Karn flags, SACK scoreboard, epoch
        # repairs) is bounded by the flight, itself bounded by the
        # receive window.  A slot whose tag mismatches reads as
        # "absent" — exactly the scalar reference's pruned-dict answer.
        ring = 1
        while ring < 4 * self.rwnd_segments + 64:
            ring <<= 1
        self._mask = ring - 1
        self._sent_seq = np.full(ring, -1, dtype=np.int64)
        self._sent_time = np.zeros(ring, dtype=np.float64)
        self._retx_seq = np.full(ring, -1, dtype=np.int64)
        self._er_seq = np.full(ring, -1, dtype=np.int64)
        self._er_epoch = np.zeros(ring, dtype=np.int64)
        self._rcv_seq = np.full(ring, -1, dtype=np.int64)
        #: Current recovery epoch; bumping it forgets every repair of
        #: the previous epoch at once.
        self._retx_epoch = 0
        # Hot-path link constants, gathered once per flow.
        mss = mss_bytes
        self._drop_p = [l.data_loss_prob for l in self.links]
        self._service_s = [l.service_time_s(mss) for l in self.links]
        self._line_s = [l.line_time_s(mss) for l in self.links]
        self._prop_s = [l.prop_delay_ms / 1_000.0 for l in self.links]
        self._queue_cap = [float(l.queue_packets) for l in self.links]
        self._burst = [l.shaper_burst_packets for l in self.links]
        self._last_hop = len(self.links) - 1
        # Cumulative ACKs travel back over the aggregate prop delay
        # (ACKs are small; queuing on the reverse path is ignored).
        self._ack_delay_s = sum(l.prop_delay_ms for l in self.links) / 1_000.0
        #: Times of outstanding ``rto_check`` events (at most a
        #: couple): the lazy re-arm only pushes when no event sits
        #: at or before the new deadline.
        self._rto_times: list[float] = []

        # Link state: when each link's transmitter frees up, and the
        # token buckets of shaped links, kept GCRA-style as the virtual
        # time at which each bucket would be empty (tokens(t) =
        # (t - empty_at) / service, capped at the burst size).
        self._link_free_at = [0.0] * len(self.links)
        self._shaper_empty_at = [
            -l.shaper_burst_packets * l.service_time_s(mss_bytes) for l in self.links
        ]

        #: Optional packet trace: (time, event, seq) tuples, where
        #: event is "data" (sender), "retx", "deliver" or "ack".
        self.trace: list[tuple[float, str, int]] | None = None

        # Statistics.
        self.delivered_segments = 0
        self.retransmissions = 0
        self.rtt_samples: list[float] = []

        self._queue: list[tuple[float, str, int, int]] = []
        self._now = 0.0

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, seq: int = 0, hop: int = 0) -> None:
        # Events at the same instant pop in (kind, seq, hop) order, not
        # in push order: the burst traversal pushes a chain's exit
        # event earlier than a per-hop walk would, so a push counter
        # would break exact time ties differently from the reference.
        heapq.heappush(self._queue, (time, kind, seq, hop))

    # ------------------------------------------------------------------
    # sender
    # ------------------------------------------------------------------
    def _flight_size(self) -> int:
        return self.next_seq - (self.highest_acked + 1)

    def _window(self) -> float:
        return min(self.cwnd, float(self.rwnd_segments))

    def _try_send_new(self) -> None:
        limit = self.limit_segments
        while self._flight_size() < int(self._window()):
            if limit is not None and self.next_seq >= limit:
                return
            seq = self.next_seq
            self.next_seq += 1
            self._transmit(seq, retransmission=False)

    def _transmit(self, seq: int, retransmission: bool) -> None:
        if retransmission:
            self.retransmissions += 1
            self._retx_seq[seq & self._mask] = seq
        else:
            slot = seq & self._mask
            self._sent_seq[slot] = seq
            self._sent_time[slot] = self._now
        if self.trace is not None:
            self.trace.append((self._now, "retx" if retransmission else "data", seq))
        self._push(self._now, "enter_hop", seq=seq, hop=0)
        if self.rto_deadline is None:
            self._arm_rto()

    def _arm_rto(self) -> None:
        """(Re)arm the retransmission timer, lazily.

        The one outstanding ``rto_check`` reschedules itself when it
        pops early — a push only happens when no outstanding event sits
        at or before the new deadline, so the timer still fires at
        exactly the instant a push per re-arm would give.
        """
        self.rto_deadline = self._now + self.rto_s
        if not self._rto_times or min(self._rto_times) > self.rto_deadline:
            self._rto_times.append(self.rto_deadline)
            self._push(self.rto_deadline, "rto_check")

    def _update_rtt(self, seq: int) -> None:
        # Karn's algorithm: never sample retransmitted segments.
        slot = seq & self._mask
        if self._retx_seq[slot] == seq:
            return
        if self._sent_seq[slot] != seq:
            return
        sent = float(self._sent_time[slot])
        sample = self._now - sent
        if self.srtt_s is None:
            self.srtt_s = sample
            self.rttvar_s = sample / 2
        else:
            self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * abs(self.srtt_s - sample)
            self.srtt_s = 0.875 * self.srtt_s + 0.125 * sample
        self.rto_s = max(self.srtt_s + 4 * self.rttvar_s, 2.0 * self.srtt_s, MIN_RTO_S)
        self.rtt_samples.append(sample)
        # HyStart-style delay detection: leave slow start as soon as
        # the RTT inflates noticeably — queues are building, and a
        # burst overflow without SACK would take one RTT per hole to
        # repair.
        if self.min_rtt_s is None or sample < self.min_rtt_s:
            self.min_rtt_s = sample
        if (
            self.cwnd < self.ssthresh
            and sample > self.min_rtt_s * 1.5 + 0.002
        ):
            self.ssthresh = self.cwnd

    def _on_ack(self, ack_seq: int, trigger_seq: int) -> None:
        """Cumulative ACK; ``trigger_seq`` echoes the segment whose
        arrival generated it (RFC 7323 timestamp semantics), which is
        what makes RTT samples immune to head-of-line holes."""
        if self.trace is not None:
            self.trace.append((self._now, "ack", ack_seq))
        self._update_rtt(trigger_seq)
        if ack_seq > self.highest_acked:
            newly = ack_seq - self.highest_acked
            self.highest_acked = ack_seq
            # Forward progress cancels any exponential RTO backoff
            # (RFC 6298 §5.7: recompute from srtt once ACKs flow again).
            if self.srtt_s is not None:
                self.rto_s = max(
                    self.srtt_s + 4 * self.rttvar_s, 2.0 * self.srtt_s, MIN_RTO_S
                )
            self.dupacks = 0
            if self.in_recovery:
                if ack_seq >= self.recovery_point:
                    # Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # SACK-style partial ACK: repair a window's worth
                    # of known holes, not just the first one — the
                    # behaviour every 2015-era stack has.
                    self._retransmit_holes(max(int(self.cwnd / 2), 1))
            else:
                # Window growth outside recovery.
                for _ in range(newly):
                    if self.cwnd < self.ssthresh:
                        self.cwnd += 1.0  # slow start
                    else:
                        self.cwnd += 1.0 / self.cwnd  # congestion avoidance
            if self._flight_size() > 0:
                self._arm_rto()
            else:
                self.rto_deadline = None
        else:
            self.dupacks += 1
            if self.dupacks == DUPACK_THRESHOLD and not self.in_recovery:
                # Fast retransmit + fast recovery entry.
                self.ssthresh = max(self._flight_size() / 2.0, 2.0)
                self.cwnd = self.ssthresh + DUPACK_THRESHOLD
                self.in_recovery = True
                self.recovery_point = self.next_seq - 1
                self._reset_epoch()
                self._retransmit_holes(max(int(self.cwnd / 2), 1))
            elif self.in_recovery or self.dupacks > DUPACK_THRESHOLD:
                # Window inflation: each dupack signals a departure.
                self.cwnd += 1.0
        self._try_send_new()

    def _reset_epoch(self) -> None:
        """Start a fresh recovery epoch (forget this epoch's repairs)."""
        self._retx_epoch += 1

    def _retransmit_holes(self, budget: int, force_first: bool = False) -> None:
        """Repair up to ``budget`` holes below the recovery point.

        Uses the receiver's out-of-order buffer as the SACK scoreboard
        (the simulation shortcut for the SACK blocks a real receiver
        would advertise).  A hole only counts as *lost* — not merely
        in flight — once at least three later segments have been
        received (the standard SACK loss inference; exact on FIFO
        links).  ``force_first`` overrides the evidence requirement for
        the first hole (an expired RTO is its own proof of loss).
        Each hole is repaired once per recovery epoch.
        """
        lo = self.highest_acked + 1
        if self.recovery_point < lo:
            return
        # One vectorized sweep of the scoreboard instead of a
        # Python loop over every in-window sequence number; the
        # result is the same ascending list of unrepaired holes.
        span = np.arange(lo, self.recovery_point + 1, dtype=np.int64)
        slots = span & self._mask
        held = (span < self.expected_seq) | (self._rcv_seq[slots] == span)
        repaired = (self._er_seq[slots] == span) & (
            self._er_epoch[slots] == self._retx_epoch
        )
        sent = 0
        for rank, offset in enumerate(np.nonzero(~held & ~repaired)[0]):
            if sent >= budget:
                break
            seq = lo + int(offset)
            evidenced = self._max_received >= seq + DUPACK_THRESHOLD
            if evidenced or (rank == 0 and force_first):
                slot = seq & self._mask
                self._er_seq[slot] = seq
                self._er_epoch[slot] = self._retx_epoch
                self._transmit(seq, retransmission=True)
                sent += 1

    def _on_rto_check(self) -> bool:
        """Handle a timer event; returns True when the timeout fired."""
        self._rto_times.remove(self._now)
        if self.rto_deadline is None:
            return False
        if self._now < self.rto_deadline:
            # Popped early (the deadline moved on): reschedule at
            # the current deadline — the lazy re-arm's other half.
            # The compare is exact: a timer that fired a few ulps
            # early would move every later instant.
            self._rto_times.append(self.rto_deadline)
            self._push(self.rto_deadline, "rto_check")
            return False
        if self._flight_size() == 0:
            self.rto_deadline = None
            return False
        # Timeout: collapse the window and resend the missing segment.
        # Stay in (or enter) recovery up to the current high-water mark
        # so subsequent cumulative ACKs keep clocking out hole repairs
        # — without this, every remaining hole would cost a full RTO
        # because the shrunken window blocks the dupack stream.
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = INITIAL_CWND / 2
        self.in_recovery = True
        self.recovery_point = self.next_seq - 1
        self.dupacks = 0
        self.rto_s = min(self.rto_s * 2.0, 60.0)
        self._reset_epoch()  # a lost repair may be resent now
        self._retransmit_holes(1, force_first=True)
        self._arm_rto()
        return True

    # ------------------------------------------------------------------
    # path traversal
    # ------------------------------------------------------------------
    def _on_enter_hop(self, seq: int, hop: int) -> None:
        """Burst traversal: one pass down every loss-free hop chain.

        The chain-entry hop's drop draw stays a real heap event (so the
        RNG consumption order matches the per-hop reference exactly);
        after it, the segment rides ``max``/``+`` arithmetic through
        consecutive zero-drop hops without touching the heap.  Safe
        because links are FIFO with uniform service times — segments
        never overtake, so per-hop transmitter state mutates in the
        same order a per-hop event walk would produce, on the same
        values.
        """
        now = self._now
        drop = self._drop_p[hop]
        if drop > 0.0 and self._rand.random() < drop:
            return
        free = self._link_free_at
        drop_p = self._drop_p
        last = self._last_hop
        while True:
            # Tail drop counts occupancy as backlog over the per-packet
            # time of whatever drains the transmitter.  A shaped hop
            # with a token ready serializes at the *line* rate, so a
            # burst deeper than the queue overflows it however many
            # tokens remain; once token-limited, departures space out
            # at the shaped service time, so a full queue really holds
            # ``queue_packets`` packets.  Unshaped hops always drain at
            # their service rate, which *is* their line rate.
            free_at = free[hop]
            backlog = free_at - now
            burst = self._burst[hop]
            if burst:
                service = self._service_s[hop]
                empty_at = self._shaper_empty_at[hop]
                floor = now - burst * service
                if empty_at < floor:
                    empty_at = floor
                token_ready = empty_at + service
                if token_ready < now:
                    token_ready = now
                drain_s = self._line_s[hop] if token_ready <= now else service
                if backlog > 0.0 and backlog / drain_s >= self._queue_cap[hop]:
                    return
                self._shaper_empty_at[hop] = empty_at + service
                head = token_ready if token_ready > free_at else free_at
                departure = head + self._line_s[hop]
            else:
                if (
                    backlog > 0.0
                    and backlog / self._service_s[hop] >= self._queue_cap[hop]
                ):
                    return
                head = now if now > free_at else free_at
                departure = head + self._service_s[hop]
            free[hop] = departure
            arrival = departure + self._prop_s[hop]
            if hop == last:
                self._push(arrival, "deliver", seq=seq)
                return
            hop += 1
            if drop_p[hop] > 0.0:
                # The next hop draws against loss: cut the burst here
                # so the draw happens at its own event, in time order.
                self._push(arrival, "enter_hop", seq=seq, hop=hop)
                return
            now = arrival

    def _on_deliver(self, seq: int) -> None:
        if self.trace is not None:
            self.trace.append((self._now, "deliver", seq))
        if seq > self._max_received:
            self._max_received = seq
        slot = seq & self._mask
        if not (seq < self.expected_seq or self._rcv_seq[slot] == seq):
            self._rcv_seq[slot] = seq
            if seq >= self.expected_seq:
                rcv = self._rcv_seq
                mask = self._mask
                expected = self.expected_seq
                while rcv[expected & mask] == expected:
                    expected += 1
                    self.delivered_segments += 1
                self.expected_seq = expected
        # ``hop`` carries the echoed trigger segment.
        self._push(
            self._now + self._ack_delay_s, "ack", seq=self.expected_seq - 1, hop=seq
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> FlowStats:
        """Simulate a transfer for up to ``duration_s`` simulated seconds.

        An unbounded (greedy) flow always runs the full horizon.  A
        ``limit_segments``-bounded flow that completes early reports
        the time of its last real activity — delivery, ACK or fired
        timeout — as ``FlowStats.duration_s``, and the throughput
        denominator matches, so the two never disagree about how much
        simulated time the transfer actually used.
        """
        check(duration_s, "duration_s", gt=0, error=TransportError)
        self._try_send_new()
        last_active = 0.0
        queue = self._queue
        on_enter_hop = self._on_enter_hop
        while queue:
            time, kind, seq, hop = heapq.heappop(queue)
            if time > duration_s:
                # Horizon reached mid-flight: clamp the clock so
                # the reported duration equals the simulated span.
                # A finished bounded flow has no timer armed; the
                # events left are stale timers, not activity.
                self._now = duration_s
                if self.rto_deadline is not None:
                    last_active = duration_s
                break
            self._now = time
            if kind == "enter_hop":
                on_enter_hop(seq, hop)
                last_active = time
            elif kind == "deliver":
                self._on_deliver(seq)
                last_active = time
            elif kind == "ack":
                self._on_ack(seq, hop)
                last_active = time
            elif self._on_rto_check():
                last_active = time

        end_s = last_active if last_active > 0.0 else duration_s
        bytes_acked = self.delivered_segments * self.mss
        avg_rtt_ms = (
            1_000.0 * sum(self.rtt_samples) / len(self.rtt_samples)
            if self.rtt_samples
            else 2.0 * sum(l.prop_delay_ms for l in self.links)
        )
        return FlowStats(
            duration_s=end_s,
            bytes_acked=bytes_acked,
            bytes_retransmitted=self.retransmissions * self.mss,
            avg_rtt_ms=avg_rtt_ms,
            throughput_mbps=bytes_acked * 8 / end_s / 1e6,
        )
