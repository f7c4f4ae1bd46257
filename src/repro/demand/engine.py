"""The demand engine: epochs of population load through shared relays.

Ties the package together.  Per epoch the engine:

1. samples per-city concurrent flows from the
   :class:`~repro.demand.model.DemandModel` (Poisson, seeded per
   (city, epoch) so epochs shard freely),
2. splits each city's flows across its (client, server) pairs,
3. asks a :class:`~repro.control.policy.BatchPolicy` which relay(s)
   each pair should ride — iterating a few fixed-point rounds so
   load-aware policies see the load their own assignment creates.  The
   policy is bound to the pairs' probes once; each round is one call of
   the bound split function, from the relay loads to the (pairs x
   relays) split matrix,
4. solves the epoch with the aggregate layer
   (:func:`~repro.demand.aggregate.solve_rates`): relay capacities come
   from :class:`~repro.demand.relay.RelayCapacity` *at the assigned
   concurrency*, so CPU upkeep feedback is in the loop,
5. scores the paper's question per pair: would a fresh bulk transfer
   do better through the (loaded) overlay or direct?  The fraction of
   pairs where the overlay still wins is the epoch's win rate — the
   number that sits at ~78 % when relays are idle and inverts as they
   saturate.

Everything is a pure function of (static pair routes, config, epoch
index): no state carries across epochs, which is what lets
``repro demand --workers N`` partition the study across workers with
byte-identical results at any N.  It also lets :meth:`DemandEngine.run`
stack many epochs into one set of (epochs x pairs x relays) arrays:
each step above runs once per batch, not once per epoch, and every
epoch's numbers come out as if it had run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.control.health import PathHealth
from repro.control.policy import BatchPolicy
from repro.control.probes import ProbeResult
from repro.demand.aggregate import solve_rates
from repro.demand.model import DemandModel
from repro.demand.relay import RelayCapacity
from repro.errors import ConfigError, check

#: Fixed-point rounds of (decide -> load -> decide) inside one epoch.
#: The load signal is the running mean of the round snapshots
#: (fictitious play): synchronous best-response would make every pair
#: flee a hot relay at once and ring in a period-2 cycle, while the
#: 1/k-step average provably settles congestion games of this shape —
#: a dozen rounds lands within a few percent of the balanced point.
DEFAULT_ROUNDS = 12


@dataclass(frozen=True, slots=True)
class PairRoutes:
    """Static route quality for one (client, server) pair.

    Uncontended per-flow rates come from the paper's path machinery
    (split-overlay mode, the 78 %-winning configuration); the demand
    engine layers relay contention on top.
    """

    pair_id: int
    client: str
    server: str
    city: str
    direct_mbps: float
    #: (relay label, uncontended split-overlay Mbps), sorted by label.
    overlay_mbps: tuple[tuple[str, float], ...]
    #: (relay label, full overlay-path RTT ms), sorted by label.
    overlay_rtt_ms: tuple[tuple[str, float], ...]
    #: (relay label, client<->relay leg RTT ms), sorted by label.
    ingress_rtt_ms: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.overlay_mbps]
        if not labels:
            raise ConfigError(f"pair {self.client}->{self.server} has no overlay routes")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate relay labels for pair {self.pair_id}: {labels}")
        for field_name in ("overlay_rtt_ms", "ingress_rtt_ms"):
            rtt_labels = sorted(label for label, _ in getattr(self, field_name))
            if rtt_labels != sorted(labels):
                raise ConfigError(
                    f"pair {self.pair_id} {field_name} covers relays {rtt_labels}, "
                    f"but its routes use {sorted(labels)}"
                )


class DemandEngine:
    """Population demand through shared relays, many epochs per call."""

    def __init__(
        self,
        pairs: list[PairRoutes] | tuple[PairRoutes, ...],
        relays: list[RelayCapacity] | tuple[RelayCapacity, ...],
        model: DemandModel,
        policy: BatchPolicy,
        flow_rate_mbps: float = 0.02,
        mean_flow_s: float = 120.0,
        load_scale: float = 1.0,
        rounds: int = DEFAULT_ROUNDS,
    ) -> None:
        if not pairs:
            raise ConfigError("demand engine needs at least one pair")
        if not relays:
            raise ConfigError("demand engine needs at least one relay")
        check(flow_rate_mbps, "flow_rate_mbps", gt=0)
        check(mean_flow_s, "mean_flow_s", gt=0)
        check(load_scale, "load_scale", ge=0)
        check(rounds, "rounds", ge=1)
        self.pairs = tuple(sorted(pairs, key=lambda p: p.pair_id))
        self.relays = {r.label: r for r in relays}
        if len(self.relays) != len(relays):
            raise ConfigError("duplicate relay labels")
        self.relay_labels = tuple(sorted(self.relays))
        for pair in self.pairs:
            unknown = sorted({label for label, _ in pair.overlay_mbps} - set(self.relays))
            if unknown:
                raise ConfigError(
                    f"pair {pair.pair_id} routes via relays with no capacity model: {unknown}"
                )
        self.model = model
        self.flow_rate_mbps = flow_rate_mbps
        self.mean_flow_s = mean_flow_s
        self.load_scale = load_scale
        self.rounds = rounds

        # Health is static (every relay usable) and probes are static
        # (uncontended route quality); only the load varies, so the
        # policy packs them once and each round costs one
        # (epochs x pairs x relays) split stack.
        health = {label: PathHealth(label=label) for label in self.relay_labels}
        self._splits = policy.batch(health, [self._pair_probes(pair) for pair in self.pairs])
        column = {label: j for j, label in enumerate(self.relay_labels)}
        self._overlay_mbps = np.zeros((len(self.pairs), len(self.relay_labels)))
        self._direct_mbps = np.array([pair.direct_mbps for pair in self.pairs])
        self._city_rows: dict[str, list[int]] = {}
        for row, pair in enumerate(self.pairs):
            for label, mbps in pair.overlay_mbps:
                self._overlay_mbps[row, column[label]] = mbps
            self._city_rows.setdefault(pair.city, []).append(row)

    # ------------------------------------------------------------------
    @staticmethod
    def _pair_probes(pair: PairRoutes) -> dict[str, ProbeResult]:
        """Synthesized probe results carrying the pair's route quality."""
        rtts = dict(pair.overlay_rtt_ms)
        ingress = dict(pair.ingress_rtt_ms)
        return {
            label: ProbeResult(
                label=label,
                at_time=0.0,
                ok=True,
                rtt_ms=rtts[label],
                loss=0.0,
                throughput_mbps=mbps,
                bytes_cost=0,
                ingress_rtt_ms=ingress[label],
            )
            for label, mbps in pair.overlay_mbps
        }

    def _pair_flows(self, city_flows: dict[str, int]) -> np.ndarray:
        """Deterministic integer split of each city's flows across pairs.

        Floor division plus remainder to the lowest pair ids — a pure
        function of the counts, independent of iteration order.  One
        entry per pair, in pair-id order.
        """
        per_pair = np.zeros(len(self.pairs))
        for city, rows in self._city_rows.items():
            base, remainder = divmod(city_flows.get(city, 0), len(rows))
            for i, row in enumerate(rows):
                per_pair[row] = base + (1 if i < remainder else 0)
        return per_pair

    # ------------------------------------------------------------------
    def epoch_metrics(self, epoch_index: int, epoch_s: float) -> dict:
        """Run one epoch; returns a JSON-safe metrics dict.

        A one-epoch :meth:`run`: the same dict that epoch gets inside
        any batch.
        """
        return self.run([epoch_index], epoch_s)[0]

    def run(self, epoch_indices: Iterable[int], epoch_s: float) -> list[dict]:
        """Run a batch of epochs; one JSON-safe metrics dict per epoch.

        Each epoch is anchored at its midpoint.  State never crosses
        epochs: every epoch's load signal starts from zero and
        converges inside its own fixed-point rounds, so any worker can
        compute any epoch in isolation, and a batch is only a stack of
        independent epochs.  Every sum runs in the order a lone epoch
        would add it — the pair-axis cumsum, the aggregate scatters in
        (epoch, pair, relay) class order, ``sum()`` over each epoch's
        own classes — so the dicts do not depend on the batch.
        """
        if not math.isfinite(epoch_s) or epoch_s <= 0:
            raise ConfigError(f"epoch_s must be positive and finite, got {epoch_s}")
        epochs = list(epoch_indices)
        if any(index < 0 for index in epochs):
            raise ConfigError(f"epoch indices must be >= 0, got {epochs}")
        if not epochs:
            return []
        times = [(index + 0.5) * epoch_s for index in epochs]
        samples = [
            self.model.sample_concurrent(index, t, self.mean_flow_s, scale=self.load_scale)
            for index, t in zip(epochs, times)
        ]
        per_pair = np.array([self._pair_flows(city_flows) for city_flows in samples])
        relays = [self.relays[label] for label in self.relay_labels]

        # (epochs x relays) from here on, except where noted.
        signal = np.zeros((len(epochs), len(relays)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for round_index in range(self.rounds):
                split = self._splits(signal)
                counts = per_pair[:, :, None] * split  # (epochs x pairs x relays)
                # Per-relay flows add pair by pair in pair order: cumsum
                # is sequential (np.sum would add pairwise and round
                # differently).
                flows = np.cumsum(counts, axis=1)[:, -1]
                demand = flows * self.flow_rate_mbps
                capacity = np.array(
                    [
                        [relay.capacity_mbps(count) for relay, count in zip(relays, row)]
                        for row in flows.tolist()
                    ]
                )
                snapshot = np.where(capacity > 0, demand / capacity, np.inf)
                # Fictitious play: the signal is the running mean of
                # every round's snapshot, so synchronous re-decisions
                # cannot ring.
                signal = signal + (snapshot - signal) / (round_index + 1)

        # The aggregate solve: one resource per (epoch, relay) (capacity
        # at the assigned concurrency), one flow class per (epoch, pair,
        # relay) that carries flows, in that order.
        carries = counts > 0
        epoch_of, _, relay_of = np.nonzero(carries)
        class_counts = counts[carries]
        desired = class_counts * self.flow_rate_mbps
        resource_capacity = np.where(capacity < 1e-9, 1e-9, capacity)
        rate, offered, carried = solve_rates(
            desired,
            resource_capacity.ravel(),
            np.arange(len(desired)),
            epoch_of * len(relays) + relay_of,
        )
        offered = offered.reshape(capacity.shape)
        utilization = offered / resource_capacity
        with np.errstate(divide="ignore", invalid="ignore"):
            unserved = 1.0 - carried.reshape(capacity.shape) / offered
        loss = np.where((offered > 0.0) & (unserved > 0.0), unserved, 0.0)
        # Achieved rate as per-flow rate times count, rounded as
        # solve_epoch's per-flow rates are.
        achieved = (rate / class_counts * class_counts).tolist()
        desired = desired.tolist()
        bounds = np.searchsorted(epoch_of, np.arange(len(epochs) + 1)).tolist()

        # What a fresh bulk transfer would get through the overlay now:
        # the pair rides its largest-share relay (lowest label on ties)
        # at the route's uncontended rate, capped by that relay's
        # headroom — or, when it is saturated, by one fair flow share.
        relay = split.argmax(axis=2)  # (epochs x pairs)
        headroom = np.maximum(capacity - demand, 0.0)
        fair_share = capacity / np.maximum(flows, 1.0)
        overlay = np.minimum(
            self._overlay_mbps[np.arange(len(self.pairs)), relay],
            np.take_along_axis(np.maximum(headroom, fair_share), relay, axis=1),
        )
        wins = np.count_nonzero(split.any(axis=2) & (overlay > self._direct_mbps), axis=1)

        columns = zip(
            flows.tolist(), demand.tolist(), capacity.tolist(),
            utilization.tolist(), loss.tolist(),
        )
        metrics = []
        for e, (index, t, city_flows, column) in enumerate(zip(epochs, times, samples, columns)):
            relay_stats = {
                label: {
                    "flows": round(f, 3),
                    "demand_mbps": round(d, 6),
                    "capacity_mbps": round(c, 6),
                    "utilization": round(u, 6),
                    "loss": round(lost, 6),
                }
                for label, f, d, c, u, lost in zip(self.relay_labels, *column)
            }
            lo, hi = bounds[e], bounds[e + 1]
            offered_mbps = sum(desired[lo:hi])
            satisfied = 1.0 if offered_mbps <= 0.0 else sum(achieved[lo:hi]) / offered_mbps
            metrics.append(
                {
                    "epoch": index,
                    "t_s": t,
                    "flows": int(sum(city_flows.values())),
                    "win_rate": round(int(wins[e]) / len(self.pairs), 6),
                    "satisfied": round(satisfied, 6),
                    "peak_utilization": round(
                        max(stats["utilization"] for stats in relay_stats.values()), 6
                    ),
                    "relays": relay_stats,
                }
            )
        return metrics
