"""The four-way measurement plan of Sec. II.

For each (sender, receiver) pair the paper measures Direct, Overlay,
Split-Overlay and Discrete-Overlay.  ``measure_four_ways`` runs all
four against a :class:`~repro.core.pathset.PathSet` and reports the
flow statistics the downstream analyses (Figs. 2–5) consume.

The studies measure many path sets at the same instants, so the plan
is batched: a :class:`PathSetBatch` folds every leg of its path sets
at one instant in one pass (:class:`~repro.net.fastpath.LegBatch`) and
turns them into rates with one vectorised steady-state pass.  This is
the only timed transfer in ``src/``.  Every value is bit-identical to
the per-path timed transfer it replaced, which is frozen as a test
reference (``tests/reference/model_transfer.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.pathset import PathSet
from repro.errors import MeasurementError, TransportError, check
from repro.net.fastpath import LegBatch
from repro.transport.throughput import FlowStats, steady_state_rates


@dataclass(frozen=True, slots=True)
class FourWayMeasurement:
    """One pair's measurements across the four path types.

    Per-overlay-node dictionaries are keyed by node name.  ``discrete``
    holds the min-of-segments upper bound in Mbps (it is a derived
    bound, not a transfer, so it has no FlowStats).
    """

    src_name: str
    dst_name: str
    at_time: float
    direct: FlowStats
    overlay: dict[str, FlowStats]
    split_overlay: dict[str, FlowStats]
    discrete_mbps: dict[str, float]

    def best_overlay_mbps(self) -> float:
        """Max plain-overlay throughput across nodes."""
        return max(stats.throughput_mbps for stats in self.overlay.values())

    def best_split_mbps(self) -> float:
        """Max split-overlay throughput across nodes."""
        return max(stats.throughput_mbps for stats in self.split_overlay.values())

    def best_discrete_mbps(self) -> float:
        """Max discrete-overlay bound across nodes."""
        return max(self.discrete_mbps.values())

    def improvement_ratio(self, overlay_mbps: float) -> float:
        """Overlay-to-direct throughput ratio (Figs. 2 and 3's x-axis)."""
        if self.direct.throughput_mbps <= 0:
            raise MeasurementError(
                f"direct path {self.src_name}->{self.dst_name} reported zero throughput"
            )
        return overlay_mbps / self.direct.throughput_mbps

    def min_overlay_rtt_ms(self) -> float:
        """Lowest average RTT across overlay tunnels (Fig. 5's numerator)."""
        return min(stats.avg_rtt_ms for stats in self.overlay.values())


#: Instants each timed transfer averages.
_SAMPLES = 5


class LegSample(NamedTuple):
    """One connection's sample at one instant.

    ``retx_loss`` is the loss its retransmissions pay: the bulk loss of
    a TCP connection, the first segment's loss for a split chain (the
    proxy absorbs downstream losses).
    """

    rate_mbps: float
    rtt_ms: float
    retx_loss: float


class PathSetSample(NamedTuple):
    """A path set's connections at one instant, keyed by overlay node."""

    direct: LegSample
    overlay: dict[str, LegSample]
    split: dict[str, LegSample]
    #: The discrete-overlay bound: min of the split segments' rates.
    discrete: dict[str, float]


class PathSetBatch:
    """Every connection of a batch of path sets, measured per instant.

    Per path set the legs are the direct path, then per overlay option
    the tunnel (to-node and from-node legs end to end) and the two
    split segments, each with its connection's TCP parameters.
    """

    def __init__(self, pathsets: Sequence[PathSet]) -> None:
        self.pathsets = list(pathsets)
        legs = []
        params = []
        shaves = []
        direct = []
        tunnel = []
        self._names = []
        self._bounds = [0]
        for pathset in self.pathsets:
            direct.append(len(legs))
            legs.append((pathset.direct,))
            params.append(pathset.direct_connection().params)
            for option in pathset.options:
                chain = pathset.split_chain(option)
                tunnel.append(len(legs))
                legs += [
                    (option.leg_to_node, option.leg_from_node),
                    (option.leg_to_node,),
                    (option.leg_from_node,),
                ]
                params += [pathset.overlay_params(option), chain.params, chain.params]
                shaves.append(chain.relay_shave)
            self._names.append([option.name for option in pathset.options])
            self._bounds.append(len(tunnel))
        self._legs = LegBatch(legs)
        self._mss = np.array([p.mss_bytes for p in params], dtype=np.float64)
        self._rwnd = np.array([p.rwnd_bytes for p in params], dtype=np.float64)
        self._efficiency = np.array([p.efficiency for p in params], dtype=np.float64)
        self._shave = np.array(shaves, dtype=np.float64)
        # Leg indices: each path set's direct leg and each option's tunnel
        # (its split segments follow it); _bounds slices the options.
        self._direct = np.array(direct, dtype=np.intp)
        self._tunnel = np.array(tunnel, dtype=np.intp)

    def sample(self, t: float) -> list[PathSetSample]:
        """Each path set's connections at ``t``, in batch order."""
        metrics = self._legs.metrics(t)
        rate = steady_state_rates(metrics, self._mss, self._rwnd, self._efficiency)
        rtt, loss, bulk = metrics.rtt_ms, metrics.loss, metrics.bulk_loss
        direct, tunnel = self._direct, self._tunnel
        first, second = tunnel + 1, tunnel + 2
        # A split chain's rate is the slower segment's, shaved by its
        # relays (SplitTcpChain); the discrete bound skips the shave.
        slower = np.minimum(rate[first], rate[second])
        columns = [
            values.tolist()
            for values in (
                rate[tunnel],
                rtt[tunnel],
                bulk[tunnel],
                slower * self._shave,
                rtt[first] + rtt[second],
                loss[first],
                slower,
            )
        ]
        directs = map(
            LegSample, rate[direct].tolist(), rtt[direct].tolist(), bulk[direct].tolist()
        )
        samples = []
        bounds = self._bounds
        for k, (names, direct_sample) in enumerate(zip(self._names, directs)):
            lo, hi = bounds[k], bounds[k + 1]
            t_rate, t_rtt, t_bulk, s_rate, s_rtt, s_loss, discrete = (
                column[lo:hi] for column in columns
            )
            samples.append(
                PathSetSample(
                    direct=direct_sample,
                    overlay=dict(zip(names, map(LegSample, t_rate, t_rtt, t_bulk))),
                    split=dict(zip(names, map(LegSample, s_rate, s_rtt, s_loss))),
                    discrete=dict(zip(names, discrete)),
                )
            )
        return samples


def measure_four_ways_batch(
    pathsets: Sequence[PathSet], at_time: float, duration_s: float = 30.0
) -> list[FourWayMeasurement]:
    """Measure every pair in all four modes over one window.

    Each transfer averages five instants, evenly spaced over
    ``[at_time, at_time + duration_s]``; the discrete bound is read at
    the window's midpoint.  All path sets are measured together at each
    instant.
    """
    check(at_time, "at_time", ge=0, error=TransportError)
    check(duration_s, "duration_s", gt=0, error=TransportError)
    for pathset in pathsets:
        if not pathset.options:
            raise MeasurementError(
                f"pair {pathset.src_name}->{pathset.dst_name} has no overlay options"
            )
    batch = PathSetBatch(pathsets)
    instants = [at_time + duration_s * (i + 0.5) / _SAMPLES for i in range(_SAMPLES)]
    midpoint = at_time + duration_s / 2
    taken = {t: batch.sample(t) for t in instants}
    at_midpoint = taken[midpoint] if midpoint in taken else batch.sample(midpoint)

    def stats(legs) -> FlowStats:
        return FlowStats.from_samples(duration_s, *zip(*legs))

    measurements = []
    for k, pathset in enumerate(pathsets):
        window = [taken[t][k] for t in instants]
        names = [option.name for option in pathset.options]
        measurements.append(
            FourWayMeasurement(
                src_name=pathset.src_name,
                dst_name=pathset.dst_name,
                at_time=at_time,
                direct=stats(s.direct for s in window),
                overlay={name: stats(s.overlay[name] for s in window) for name in names},
                split_overlay={
                    name: stats(s.split[name] for s in window) for name in names
                },
                discrete_mbps=at_midpoint[k].discrete,
            )
        )
    return measurements


def measure_four_ways(
    pathset: PathSet, at_time: float, duration_s: float = 30.0
) -> FourWayMeasurement:
    """Measure one pair in all four modes at one instant."""
    return measure_four_ways_batch([pathset], at_time, duration_s)[0]
