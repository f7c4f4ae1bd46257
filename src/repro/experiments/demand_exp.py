"""E16 — the demand study: population load vs the 78 % overlay win.

The paper's headline (Sec. III-A) — split-overlay beats direct for
78 % of pairs — is measured one bulk transfer at a time, on idle
relays.  This study asks what a *population* does to that number: every
client city offers open-loop session traffic (diurnal QPS, flash
crowds) through the same handful of rented relay VMs, and the win rate
is re-measured with the relays under that load.

Arms are (selection policy, load level).  Levels multiply the
population's offered load; policies are the load-blind best-path
herding baseline against the two load-aware policies
(:class:`~repro.control.policy.QpsWeightedPolicy`,
:class:`~repro.control.policy.AnycastIngressPolicy`).  Per arm the
study reports the epoch-averaged win rate, the load level where the
win rate inverts (drops below half), and how much of the inversion the
load-aware policies claw back.

Deterministic: epoch samples are seeded per (seed, city, epoch) and no
state crosses epochs, so ``run_demand`` shards the study one arm
per task with byte-identical results at any worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.tables import format_table
from repro.cloud.datacenter import PortSpeed
from repro.control.policy import (
    AnycastIngressPolicy,
    BestPathPolicy,
    Policy,
    QpsWeightedPolicy,
)
from repro.core.cronet import CRONet
from repro.core.pathset import PathType
from repro.demand.engine import DemandEngine, PairRoutes, RelayLoadTracker
from repro.demand.model import DemandModel
from repro.demand.relay import RelayCapacity
from repro.errors import ExperimentError
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.spec import TaskSpec
from repro.experiments.scenario import World, build_world

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.exec.runner import ExecRunner

#: Policies the study compares (load-blind baseline first).
POLICIES: tuple[str, ...] = ("best-path", "qps-weighted", "anycast")

#: Relay port speed for the demand study.  Unlike the per-pair
#: campaigns (100 Mbps suffices for one transfer), population load
#: needs headroom: at 10 G the single-core CPU budget (~1.4 Gbps of
#: MSS-sized packets) is the interesting ceiling, as in Sec. II.
RELAY_PORT_SPEED = PortSpeed.GBPS_10


@dataclass(frozen=True, slots=True)
class DemandConfig:
    """Knobs for the demand study."""

    seed: int = 7
    scale: str = "small"
    #: Offered-load multipliers; each is one arm per policy.  The
    #: default sweep brackets the interesting region: herding inverts
    #: near 8x, balancing holds to ~10x, and by 30x aggregate demand
    #: drowns every policy alike.
    levels: tuple[float, ...] = (1.0, 3.0, 6.0, 8.0, 10.0, 30.0, 100.0)
    #: Epochs per arm (one simulated day at the default hour epochs).
    epochs: int = 24
    epoch_s: float = 3_600.0
    policies: tuple[str, ...] = POLICIES
    rounds: int = 12
    #: Session arrivals per client per second at level 1.
    qps_per_client: float = 15.0
    #: Mean per-flow demand (population flows are light sessions).
    flow_rate_mbps: float = 0.02
    mean_flow_s: float = 120.0
    #: Hour of day the route snapshot is taken at.  Routes are frozen
    #: for the whole study so win-rate changes isolate relay
    #: contention, not background link congestion.
    at_hours: float = 6.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ExperimentError("demand study needs at least one load level")
        if any(not math.isfinite(level) or level <= 0 for level in self.levels):
            raise ExperimentError(f"levels must be positive and finite, got {self.levels}")
        if len(set(self.levels)) != len(self.levels):
            raise ExperimentError(f"duplicate levels: {self.levels}")
        if self.epochs < 1:
            raise ExperimentError(f"epochs must be >= 1, got {self.epochs}")
        if self.epoch_s <= 0:
            raise ExperimentError(f"epoch_s must be positive, got {self.epoch_s}")
        if not self.policies:
            raise ExperimentError("demand study needs at least one policy")
        unknown = [name for name in self.policies if name not in POLICIES]
        if unknown:
            raise ExperimentError(
                f"unknown demand policies {unknown}; choose from {list(POLICIES)}"
            )

    @property
    def arms(self) -> tuple[tuple[str, float], ...]:
        """Every (policy, level) combination the study runs."""
        return tuple(
            (policy, level) for policy in self.policies for level in self.levels
        )


def build_pair_routes(world: World, cronet: CRONet, at_time: float) -> list[PairRoutes]:
    """Snapshot every (client, server) pair's route quality.

    The sender is the server (clients download, as in E1), so path sets
    run server→client and the client-side leg is the relay's egress
    toward the user — which is also the user's *ingress* hop, the RTT
    anycast assignment ranks on.
    """
    pairs: list[PairRoutes] = []
    pair_id = 0
    for client in sorted(world.client_names()):
        city = world.internet.host(client).city_name
        for server in sorted(world.server_names):
            pathset = cronet.path_set(server, client)
            split = pathset.throughput(PathType.SPLIT_OVERLAY, at_time)
            pairs.append(
                PairRoutes(
                    pair_id=pair_id,
                    client=client,
                    server=server,
                    city=city,
                    direct_mbps=pathset.direct_connection().throughput_at(at_time),
                    overlay_mbps=tuple(sorted(split.items())),
                    overlay_rtt_ms=tuple(
                        sorted(
                            (o.name, o.concatenated.metrics(at_time).rtt_ms)
                            for o in pathset.options
                        )
                    ),
                    ingress_rtt_ms=tuple(
                        sorted(
                            (o.name, o.leg_from_node.metrics(at_time).rtt_ms)
                            for o in pathset.options
                        )
                    ),
                )
            )
            pair_id += 1
    if not pairs:
        raise ExperimentError("demand study found no (client, server) pairs")
    return pairs


def _build_relays(cronet: CRONet) -> list[RelayCapacity]:
    """Capacity models for the overlay's relays, by node name.

    Substrate-generic: overlays carrying :class:`~repro.colo.site.RelaySite`
    records (any CRONet built through the current constructors) are
    resolved through them — a mixed cloud/colo footprint just works,
    with each site's own pps budget.  Legacy site-less overlays fall
    back to the provider's rented-VM list.
    """
    if cronet.sites:
        by_name = {site.name: site for site in cronet.sites}
        relays = []
        for name in cronet.node_names:
            site = by_name.get(name)
            if site is None:
                raise ExperimentError(f"overlay node {name!r} has no relay site")
            relays.append(RelayCapacity.from_site(site))
        return relays
    if cronet.provider is None:
        raise ExperimentError("overlay has neither site records nor a provider")
    by_name = {vm.name: vm for vm in cronet.provider.servers}
    relays = []
    for name in cronet.node_names:
        vm = by_name.get(name)
        if vm is None:
            raise ExperimentError(f"overlay node {name!r} has no rented VM")
        relays.append(RelayCapacity.from_vm(vm))
    return relays


def _city_clients(world: World) -> dict[str, int]:
    """Client count per city — the demand model's population."""
    counts: dict[str, int] = {}
    for client in world.client_names():
        city = world.internet.host(client).city_name
        counts[city] = counts.get(city, 0) + 1
    return counts


def _policy_for(name: str, tracker: RelayLoadTracker) -> Policy:
    """Instantiate one study policy (load-aware ones get the tracker)."""
    if name == "best-path":
        return BestPathPolicy()
    if name == "qps-weighted":
        return QpsWeightedPolicy(load=tracker)
    if name == "anycast":
        return AnycastIngressPolicy(load=tracker)
    raise ExperimentError(f"unknown demand policy {name!r}")


def _build_engine(
    pairs: list[PairRoutes],
    relays: list[RelayCapacity],
    model: DemandModel,
    policy_name: str,
    level: float,
    config: DemandConfig,
) -> DemandEngine:
    """One arm's engine: its own tracker, policy, and load level."""
    tracker = RelayLoadTracker()
    return DemandEngine(
        pairs=pairs,
        relays=relays,
        model=model,
        policy=_policy_for(policy_name, tracker),
        tracker=tracker,
        flow_rate_mbps=config.flow_rate_mbps,
        mean_flow_s=config.mean_flow_s,
        load_scale=level,
        rounds=config.rounds,
    )


@dataclass
class ArmSeries:
    """One (policy, level) arm's per-epoch metric dicts."""

    policy: str
    level: float
    epochs: list[dict] = field(default_factory=list)

    @property
    def win_rate(self) -> float:
        """Epoch-averaged overlay win rate."""
        return sum(e["win_rate"] for e in self.epochs) / len(self.epochs)

    @property
    def mean_flows(self) -> float:
        """Epoch-averaged concurrent flow count."""
        return sum(e["flows"] for e in self.epochs) / len(self.epochs)

    @property
    def peak_utilization(self) -> float:
        """Worst relay utilization seen across the arm's epochs."""
        return max(e["peak_utilization"] for e in self.epochs)

    @property
    def satisfied(self) -> float:
        """Epoch-averaged achieved-over-offered fraction."""
        return sum(e["satisfied"] for e in self.epochs) / len(self.epochs)


@dataclass
class DemandResult:
    """Every arm's epoch series plus the study's headline statistics."""

    config: DemandConfig
    n_pairs: int
    arms: list[ArmSeries] = field(default_factory=list)

    def arm(self, policy: str, level: float) -> ArmSeries:
        """Look up one arm's series."""
        for candidate in self.arms:
            if candidate.policy == policy and candidate.level == level:
                return candidate
        raise ExperimentError(f"no arm for policy {policy!r} at level {level}")

    def inversion_level(self, policy: str) -> float | None:
        """Lowest load level where the win rate drops below half.

        ``None`` when the policy holds a majority win rate at every
        tested level.
        """
        for level in sorted(self.config.levels):
            if self.arm(policy, level).win_rate < 0.5:
                return level
        return None

    def recovery(self) -> float | None:
        """Win rate a load-aware policy recovers at the inversion point.

        Measured at the load-blind baseline's inversion level:
        qps-weighted win rate minus best-path win rate.  ``None`` when
        either policy is not in the study or best-path never inverts.
        """
        if "best-path" not in self.config.policies:
            return None
        if "qps-weighted" not in self.config.policies:
            return None
        level = self.inversion_level("best-path")
        if level is None:
            return None
        return self.arm("qps-weighted", level).win_rate - self.arm("best-path", level).win_rate

    def render(self) -> str:
        """The study as one table plus the inversion/recovery headline."""
        rows = []
        for level in sorted(self.config.levels):
            for policy in self.config.policies:
                arm = self.arm(policy, level)
                rows.append(
                    (
                        f"{level:g}",
                        policy,
                        f"{arm.mean_flows:,.0f}",
                        f"{arm.win_rate:.3f}",
                        f"{arm.peak_utilization:.2f}",
                        f"{arm.satisfied:.3f}",
                    )
                )
        table = format_table(
            ["level", "policy", "mean flows", "win rate", "peak util", "satisfied"],
            rows,
        )
        lines = [
            f"demand study: {self.n_pairs} pairs, {self.config.epochs} epochs "
            f"of {self.config.epoch_s:.0f} s, seed {self.config.seed}",
            table,
        ]
        for policy in self.config.policies:
            level = self.inversion_level(policy)
            where = f"level {level:g}" if level is not None else "not reached"
            lines.append(f"inversion ({policy}): {where}")
        recovered = self.recovery()
        if recovered is not None:
            lines.append(
                f"qps-weighted recovers {recovered:+.3f} win rate at "
                f"best-path's inversion level"
            )
        return "\n".join(lines)


def _study_inputs(
    config: DemandConfig,
) -> tuple[list[PairRoutes], list[RelayCapacity], DemandModel]:
    """Build the (routes, relays, population) every arm shares."""
    world = build_world(seed=config.seed, scale=config.scale)
    cronet = CRONet.build(
        world.internet,
        world.cloud,
        list(world.dc_cities),
        port_speed=RELAY_PORT_SPEED,
    )
    pairs = build_pair_routes(world, cronet, config.at_hours * 3_600.0)
    relays = _build_relays(cronet)
    model = DemandModel.build(
        _city_clients(world), seed=config.seed, qps_per_client=config.qps_per_client
    )
    return pairs, relays, model


def _run_arm(
    pairs: list[PairRoutes],
    relays: list[RelayCapacity],
    model: DemandModel,
    policy_name: str,
    level: float,
    config: DemandConfig,
) -> list[dict]:
    """One arm's per-epoch metrics, from one batched engine call."""
    engine = _build_engine(pairs, relays, model, policy_name, level, config)
    return engine.run(range(config.epochs), config.epoch_s)


def run_demand(
    config: DemandConfig = DemandConfig(), runner: "ExecRunner | None" = None
) -> DemandResult:
    """Run the demand study as one shard per (policy, level) arm.

    Every epoch is a pure function of (config, epoch index) — samples
    are seeded per (city, epoch) and the engine resets its load tracker
    at each epoch start — so shard order and worker count cannot change
    any metric: output is byte-identical in-process (``runner=None``)
    and at any worker count.  One shard per arm lets the arm's epochs
    share one engine, built inside the shard.

    Each payload carries the pair count next to the epochs, so a fully
    cached ``--resume`` builds no world.
    """
    inputs = functools.cache(lambda: _study_inputs(config))

    def shard_fn(policy_name: str, level: float):
        def compute() -> dict:
            pairs, relays, model = inputs()
            return {
                "n_pairs": len(pairs),
                "epochs": _run_arm(pairs, relays, model, policy_name, level, config),
            }

        return compute

    spec_params = {"experiment": "demand", "config": dataclasses.asdict(config)}
    tasks = [
        ExecTask(
            spec=TaskSpec(
                kind="demand.epochs",
                seed=config.seed,
                shard_index=i,
                shard_count=len(config.arms),
                params={**spec_params, "policy": policy_name, "level": level},
            ),
            fn=shard_fn(policy_name, level),
        )
        for i, (policy_name, level) in enumerate(config.arms)
    ]
    payloads = run_tasks(tasks, runner, stage="demand.epochs", prepare=inputs)
    result = DemandResult(config=config, n_pairs=payloads[0]["n_pairs"])
    for (policy_name, level), payload in zip(config.arms, payloads):
        result.arms.append(
            ArmSeries(policy=policy_name, level=level, epochs=payload["epochs"])
        )
    return result
