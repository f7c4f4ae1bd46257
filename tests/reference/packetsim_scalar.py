"""The scalar packet engine: a frozen, test-only reference.

:class:`repro.transport.packetsim.PacketLevelTcp` batches its work
(ring-buffer bookkeeping, burst hop traversal, a widened draw plane,
lazy RTO re-arm) and must still compute exactly what this per-event
engine computes: one heap event per hop entry, dict/set sender
bookkeeping pruned to a two-window margin, and block-buffered scalar
drop draws.  The identity tests in ``tests/test_transport_packetsim.py``
and ``tests/test_experiments_chaos.py``, the property in
``tests/test_twin_properties.py`` and the 5x speed gate
(``benchmarks/test_bench_packet.py``, ``scripts/bench_record.py
--area packet``) compare against it.

Do not optimise or refactor this module: it is the definition of the
batched engine's behaviour.  Only :class:`SimLink`, the protocol
constants and :class:`FlowStats` are shared with ``src/``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import TransportError, check
from repro.transport.packetsim import DUPACK_THRESHOLD, INITIAL_CWND, MIN_RTO_S, SimLink
from repro.transport.throughput import FlowStats
from repro.units import DEFAULT_MSS

#: How many newly ACKed segments accumulate between bookkeeping prunes.
PRUNE_INTERVAL = 4_096


class _ScalarLink(SimLink):
    """A :class:`SimLink` with the two helpers only the per-hop walk uses."""

    __slots__ = ()

    @property
    def is_shaped(self) -> bool:
        """True when this hop is a token-bucket rate limiter."""
        return self.shaper_burst_packets > 0

    def drain_time_s(self, packet_bytes: int, token_ready: bool = False) -> float:
        """Per-packet time at the rate that actually drains the transmitter.

        While a shaped hop's token bucket has a token ready, its
        transmitter serializes at the *line* rate — backlog seconds
        over the line time is the true queue depth, and a burst larger
        than the queue overflows it no matter how many tokens remain.
        Once token-limited, departures space out at the shaped service
        time, so occupancy is counted at that rate instead (a full
        queue really holds ``queue_packets`` packets, not
        ``queue_packets`` line-times' worth).  Unshaped hops always
        drain at their service rate, which *is* their line rate.
        """
        return (
            self.line_time_s(packet_bytes)
            if self.is_shaped and token_ready
            else self.service_time_s(packet_bytes)
        )


@dataclass(order=True)
class _Event:
    time: float
    kind: str
    seq: int = 0
    hop: int = 0


class _BlockRandom:
    """Block-buffered uniform draws over a ``numpy.Generator``.

    The per-segment drop draw is one scalar ``rng.random()`` per hop
    entry — millions of Generator round-trips per long transfer.
    ``Generator.random(n)`` produces the *same* value stream as ``n``
    scalar calls, so buffering a block and serving it sequentially is
    bit-identical for every value actually consumed; it only advances
    the underlying bit stream further ahead.  Callers construct one
    fresh seeded generator per flow (nothing else draws from it), so
    the read-ahead is unobservable.
    """

    __slots__ = ("_rng", "_buf", "_pos")

    BLOCK = 256

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
    """One TCP flow over a chain of :class:`SimLink` hops, one event per hop.

    Same constructor, attributes and :meth:`run` contract as the
    batched engine in ``src/``.
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
        self.links = [
            _ScalarLink(**{f.name: getattr(link, f.name) for f in fields(link)})
            for link in links
        ]
        self.rng = rng
        self._rand = _BlockRandom(rng)
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
        self._rto_token = 0

        # Receiver state.
        self.expected_seq = 0
        self._max_received = -1

        self._send_times: dict[int, float] = {}
        self._retransmitted: set[int] = set()
        #: Holes already repaired in the current recovery epoch
        #: (SACK scoreboard) — cleared on RTO so lost repairs can
        #: be resent.
        self._epoch_retx: set[int] = set()
        self._received: set[int] = set()
        #: Everything below this has been pruned from the dicts and
        #: sets above (memory stays O(window), not O(segments)).
        self._prune_floor = 0

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

        self._queue: list[_Event] = []
        self._now = 0.0

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, seq: int = 0, hop: int = 0) -> None:
        heapq.heappush(self._queue, _Event(time=time, kind=kind, seq=seq, hop=hop))

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _prune(self) -> None:
        """Drop bookkeeping for long-ACKed segments.

        Keeps a two-window margin below ``highest_acked``: no live
        lookup (Karn check, RTT sample, hole scan) can reach further
        back, so pruned state is unobservable — only the memory
        footprint changes, from O(segments) to O(window).
        """
        floor = self.highest_acked - 2 * self.rwnd_segments
        if floor <= self._prune_floor:
            return
        self._send_times = {s: t for s, t in self._send_times.items() if s >= floor}
        self._retransmitted = {s for s in self._retransmitted if s >= floor}
        self._epoch_retx = {s for s in self._epoch_retx if s >= floor}
        self._received = {s for s in self._received if s >= self.expected_seq}
        self._prune_floor = floor

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
            self._retransmitted.add(seq)
        else:
            self._send_times[seq] = self._now
        if self.trace is not None:
            self.trace.append((self._now, "retx" if retransmission else "data", seq))
        self._push(self._now, "enter_hop", seq=seq, hop=0)
        if self.rto_deadline is None:
            self._arm_rto()

    def _arm_rto(self) -> None:
        """(Re)arm the retransmission timer.

        Pushes one event per re-arm; a token invalidates the
        superseded ones.
        """
        self.rto_deadline = self._now + self.rto_s
        self._rto_token += 1
        self._push(self.rto_deadline, "rto_check", seq=self._rto_token)

    def _update_rtt(self, seq: int) -> None:
        # Karn's algorithm: never sample retransmitted segments.
        if seq in self._retransmitted:
            return
        sent = self._send_times.get(seq)
        if sent is None:
            return
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
            if (
                # _prune_floor trails highest_acked by the two-window
                # margin, so require the margin *plus* a full interval
                # of fresh ACKs before sweeping again.
                ack_seq - self._prune_floor
                >= 2 * self.rwnd_segments + PRUNE_INTERVAL
            ):
                self._prune()
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
        self._epoch_retx = set()

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
        sent = 0
        seq = self.highest_acked + 1
        first = True
        while sent < budget and seq <= self.recovery_point:
            missing = seq not in self._received and seq not in self._epoch_retx
            if missing:
                evidenced = self._max_received >= seq + DUPACK_THRESHOLD
                if evidenced or (first and force_first):
                    self._epoch_retx.add(seq)
                    self._transmit(seq, retransmission=True)
                    sent += 1
                first = False
            seq += 1

    def _on_rto_check(self, token: int) -> bool:
        """Handle a timer event; returns True when the timeout fired."""
        if token != self._rto_token or self.rto_deadline is None:
            return False  # superseded by a later re-arm
        if self._now < self.rto_deadline - 1e-12:  # pragma: no cover
            self._push(self.rto_deadline, "rto_check", seq=token)
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
        link = self.links[hop]
        # Random loss on the wire.  Data segments are bulk traffic, so
        # they pay the bulk drop probability — on a gray hop that is
        # more than the ping-visible ``loss_prob``.
        drop = link.data_loss_prob
        if drop > 0 and self._rand.random() < drop:
            return
        service = link.service_time_s(self.mss)
        if link.is_shaped:
            # GCRA token bucket: the bucket refills continuously at the
            # shaped rate; each packet consumes one token (advancing
            # the virtual empty-time by one service interval) and, if
            # the bucket had less than a full token, waits for its
            # token to accrue.  Within the burst allowance packets ride
            # the line rate.
            empty_at = max(
                self._shaper_empty_at[hop],
                self._now - link.shaper_burst_packets * service,
            )
            token_ready = max(self._now, empty_at + service)
        else:
            empty_at = 0.0
            token_ready = self._now
        # Tail drop when the queue is full.  Occupancy is backlog over
        # the per-packet time of whatever currently drains the
        # transmitter: the line rate while the shaper has a token
        # ready, the shaped service rate once token-limited.
        drain_s = link.drain_time_s(self.mss, token_ready <= self._now)
        backlog = max(self._link_free_at[hop] - self._now, 0.0)
        if backlog / drain_s >= link.queue_packets:
            return
        if link.is_shaped:
            self._shaper_empty_at[hop] = empty_at + service
            # Token wait and transmitter wait overlap in time.
            departure = max(token_ready, self._link_free_at[hop]) + link.line_time_s(
                self.mss
            )
        else:
            departure = max(self._now, self._link_free_at[hop]) + service
        self._link_free_at[hop] = departure
        arrival = departure + link.prop_delay_ms / 1_000.0
        if hop + 1 < len(self.links):
            self._push(arrival, "enter_hop", seq=seq, hop=hop + 1)
        else:
            self._push(arrival, "deliver", seq=seq)

    def _on_deliver(self, seq: int) -> None:
        if self.trace is not None:
            self.trace.append((self._now, "deliver", seq))
        if seq > self._max_received:
            self._max_received = seq
        if seq not in self._received and seq >= self.expected_seq:
            self._received.add(seq)
            while self.expected_seq in self._received:
                self.expected_seq += 1
                self.delivered_segments += 1
        # Cumulative ACK travels back over the aggregate prop delay
        # (ACKs are small; queuing on the reverse path is ignored).
        ack_delay = sum(l.prop_delay_ms for l in self.links) / 1_000.0
        # ``hop`` carries the echoed trigger segment.
        self._push(self._now + ack_delay, "ack", seq=self.expected_seq - 1, hop=seq)

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
        while queue:
            event = heapq.heappop(queue)
            time = event.time
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
            kind = event.kind
            if kind == "enter_hop":
                self._on_enter_hop(event.seq, event.hop)
                last_active = time
            elif kind == "deliver":
                self._on_deliver(event.seq)
                last_active = time
            elif kind == "ack":
                self._on_ack(event.seq, event.hop)
                last_active = time
            elif self._on_rto_check(event.seq):
                # Superseded timer events are no-ops and do not
                # count as activity (this engine and the batched one
                # hold different numbers of them, so counting them
                # would skew the idle tail).
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
