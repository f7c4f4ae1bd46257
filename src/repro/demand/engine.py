"""The demand engine: one epoch of population load through shared relays.

Ties the package together.  Per epoch the engine:

1. samples per-city concurrent flows from the
   :class:`~repro.demand.model.DemandModel` (Poisson, seeded per
   (city, epoch) so epochs shard freely),
2. splits each city's flows across its (client, server) pairs,
3. asks a :class:`~repro.control.policy.Policy` which relay(s) each
   pair should ride — iterating a few fixed-point rounds so load-aware
   policies see the load their own assignment creates.  Each round is
   one batched call (:meth:`~repro.control.policy.Policy.batch`) that
   returns the (pairs x relays) split matrix,
4. solves the epoch with the aggregate layer
   (:func:`~repro.demand.aggregate.solve_epoch`): relay capacities come
   from :class:`~repro.demand.relay.RelayCapacity` *at the assigned
   concurrency*, so CPU upkeep feedback is in the loop,
5. scores the paper's question per pair: would a fresh bulk transfer
   do better through the (loaded) overlay or direct?  The fraction of
   pairs where the overlay still wins is the epoch's win rate — the
   number that sits at ~78 % when relays are idle and inverts as they
   saturate.

Everything is a pure function of (static pair routes, config, epoch
index): no state carries across epochs, which is what lets
``repro demand --workers N`` partition epochs across workers with
byte-identical results at any N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.health import PathHealth
from repro.control.policy import Policy
from repro.control.probes import ProbeResult
from repro.demand.aggregate import FlowClass, Resource, solve_epoch
from repro.demand.model import DemandModel
from repro.demand.relay import RelayCapacity
from repro.errors import ConfigError

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


class RelayLoadTracker:
    """Mutable per-relay utilization, the engine's :class:`LoadSignal`.

    The engine writes utilization after each fixed-point round; the
    load-aware policies read it through
    :meth:`~repro.control.policy.LoadSignal.relay_load`.
    """

    def __init__(self) -> None:
        self._loads: dict[str, float] = {}

    def set_loads(self, loads: dict[str, float]) -> None:
        """Replace the current utilization snapshot."""
        self._loads = dict(loads)

    def reset(self) -> None:
        """Zero every relay (start of an epoch: no state crosses epochs)."""
        self._loads = {}

    def relay_load(self, label: str, now: float) -> float:
        """Utilization of ``label`` (0.0 when unknown)."""
        return self._loads.get(label, 0.0)


class DemandEngine:
    """Population demand through shared relays, one epoch at a time."""

    def __init__(
        self,
        pairs: list[PairRoutes] | tuple[PairRoutes, ...],
        relays: list[RelayCapacity] | tuple[RelayCapacity, ...],
        model: DemandModel,
        policy: Policy,
        tracker: RelayLoadTracker | None = None,
        flow_rate_mbps: float = 0.02,
        mean_flow_s: float = 120.0,
        load_scale: float = 1.0,
        rounds: int = DEFAULT_ROUNDS,
    ) -> None:
        if not pairs:
            raise ConfigError("demand engine needs at least one pair")
        if not relays:
            raise ConfigError("demand engine needs at least one relay")
        if flow_rate_mbps <= 0:
            raise ConfigError(f"flow_rate_mbps must be positive, got {flow_rate_mbps}")
        if mean_flow_s <= 0:
            raise ConfigError(f"mean_flow_s must be positive, got {mean_flow_s}")
        if load_scale < 0:
            raise ConfigError(f"load_scale must be >= 0, got {load_scale}")
        if rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {rounds}")
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
        self.policy = policy
        self.tracker = tracker if tracker is not None else RelayLoadTracker()
        self.flow_rate_mbps = flow_rate_mbps
        self.mean_flow_s = mean_flow_s
        self.load_scale = load_scale
        self.rounds = rounds

        # Health is static (every relay usable) and probes are static
        # (uncontended route quality); only the load signal varies, so
        # the policy packs them once and each round costs one
        # (pairs x relays) split matrix.
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

        The epoch is anchored at its midpoint.  State never crosses
        epochs: the load tracker starts from zero and converges inside
        the epoch's fixed-point rounds, so any worker can compute any
        epoch in isolation.
        """
        if epoch_s <= 0:
            raise ConfigError(f"epoch_s must be positive, got {epoch_s}")
        t = (epoch_index + 0.5) * epoch_s
        city_flows = self.model.sample_concurrent(
            epoch_index, t, self.mean_flow_s, scale=self.load_scale
        )
        per_pair = self._pair_flows(city_flows)[:, None]

        self.tracker.reset()
        signal = np.zeros(len(self.relay_labels))
        with np.errstate(divide="ignore", invalid="ignore"):
            for round_index in range(self.rounds):
                split = self._splits(t)
                # Per-relay flows add pair by pair in pair order: cumsum
                # is sequential (np.sum would add pairwise and round
                # differently).
                flows = np.cumsum(per_pair * split, axis=0)[-1]
                demand = flows * self.flow_rate_mbps
                capacity = np.array(
                    [
                        self.relays[label].capacity_mbps(count)
                        for label, count in zip(self.relay_labels, flows.tolist())
                    ]
                )
                snapshot = np.where(capacity > 0, demand / capacity, np.inf)
                # Fictitious play: the signal is the running mean of
                # every round's snapshot, so synchronous re-decisions
                # cannot ring.
                signal = signal + (snapshot - signal) / (round_index + 1)
                self.tracker.set_loads(dict(zip(self.relay_labels, signal.tolist())))

        # The aggregate solve: one resource per relay (capacity at the
        # assigned concurrency), one flow class per (pair, relay).
        resources = tuple(
            Resource(label=label, capacity_mbps=max(cap, 1e-9))
            for label, cap in zip(self.relay_labels, capacity.tolist())
        )
        counts = per_pair * split
        rows, cols = (axis.tolist() for axis in np.nonzero(counts > 0))
        classes = tuple(
            FlowClass(
                label=f"pair{self.pairs[row].pair_id}/{self.relay_labels[col]}",
                count=count,
                per_flow_mbps=self.flow_rate_mbps,
                resources=(col,),
            )
            for row, col, count in zip(rows, cols, counts[rows, cols].tolist())
        )
        allocation = solve_epoch(classes, resources)

        # What a fresh bulk transfer would get through the overlay now:
        # the pair rides its largest-share relay (lowest label on ties)
        # at the route's uncontended rate, capped by that relay's
        # headroom — or, when it is saturated, by one fair flow share.
        relay = split.argmax(axis=1)
        headroom = np.maximum(capacity - demand, 0.0)
        fair_share = capacity / np.maximum(flows, 1.0)
        overlay = np.minimum(
            self._overlay_mbps[np.arange(len(self.pairs)), relay],
            np.maximum(headroom, fair_share)[relay],
        )
        wins = np.count_nonzero(split.any(axis=1) & (overlay > self._direct_mbps))
        win_rate = int(wins) / len(self.pairs)

        relay_stats = {}
        for idx, label in enumerate(self.relay_labels):
            relay_stats[label] = {
                "flows": round(float(flows[idx]), 3),
                "demand_mbps": round(float(demand[idx]), 6),
                "capacity_mbps": round(float(capacity[idx]), 6),
                "utilization": round(allocation.utilization(idx), 6),
                "loss": round(allocation.loss_fraction(idx), 6),
            }
        return {
            "epoch": epoch_index,
            "t_s": t,
            "flows": int(sum(city_flows.values())),
            "win_rate": round(win_rate, 6),
            "satisfied": round(allocation.satisfied_fraction, 6),
            "peak_utilization": round(
                max(relay_stats[label]["utilization"] for label in self.relay_labels), 6
            ),
            "relays": relay_stats,
        }
