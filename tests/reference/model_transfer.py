"""The per-path timed transfers: a frozen, test-only reference.

:func:`repro.core.measure_plan.measure_four_ways_batch` measures every
leg of many path sets at once and must still report exactly what one
timed transfer per path reports.  The two functions below are the
former ``TcpConnection.run`` and ``SplitTcpChain.run``, verbatim but
for two things: each takes its connection as the first argument, and
the chain's per-instant rate is spelled out from public pieces (each
segment's steady-state rate, their minimum, the relay shave), which is
the expression its private helpers evaluated.

``tests/test_measure_batch.py`` compares the batched four-way
measurement against it.

Do not optimise or refactor this module: it is the definition of the
batched transfers' behaviour.  Only the connection objects, the
steady-state formula and the sample averaging are shared with ``src/``.
"""

from __future__ import annotations

from repro.errors import TransportError, check
from repro.transport.split import SplitTcpChain
from repro.transport.tcp import TcpConnection
from repro.transport.throughput import FlowStats, steady_state_throughput_mbps


def tcp_run(
    conn: TcpConnection, start_time: float, duration_s: float, samples: int = 5
) -> FlowStats:
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
        metrics = conn.path.metrics(t)
        rates.append(steady_state_throughput_mbps(metrics, conn.params))
        rtts.append(metrics.rtt_ms)
        # Retransmissions are data segments: they pay the bulk loss.
        losses.append(metrics.bulk_loss)
    return FlowStats.from_samples(duration_s, rates, rtts, losses)


def split_run(
    chain: SplitTcpChain, start_time: float, duration_s: float, samples: int = 5
) -> FlowStats:
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
        metrics = [segment.metrics(t) for segment in chain.segments]
        segment_rates = [steady_state_throughput_mbps(m, chain.params) for m in metrics]
        rates.append(min(segment_rates) * chain.relay_shave)
        rtt_sums.append(sum(m.rtt_ms for m in metrics))
        first_losses.append(metrics[0].loss)
    return FlowStats.from_samples(duration_s, rates, rtt_sums, first_losses)
