"""Extension — chaos study: policies under correlated faults.

The robustness question behind the deployment story (Sec. I): the
paper's overlay wins assume the control plane can *see* the network.
What happens when faults are correlated — a whole transit AS dies, a
route flaps, a path goes gray, the probe plane itself drops or caches
results?

Every named :mod:`~repro.faults.scenarios` scenario is replayed under
the four PR-1 policies, twice each:

* **baseline** — the PR-1 controller configuration: plain probes, no
  timeout, no retries, no degradation awareness,
* **hardened** — probe timeouts with bounded backoff retries, a
  last-known-good cache with a staleness bound, and the degradation
  ladder (hold on stale data, fall back to direct on probe blackout,
  quarantine flapping paths).

Per run the study reports downtime, decision churn (failovers),
wrong-path time against an omniscient oracle, and probe overhead.
Deterministic: a fixed seed replays identical chaos, so two runs
produce identical reports.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.tables import format_table
from repro.errors import ExperimentError, check
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.spec import TaskSpec
from repro.faults.events import GrayFailure
from repro.faults.scenarios import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    ChaosScenario,
    build_scenario,
)
from repro.io import to_jsonable

# The engines load on the compute path only: a fully cached
# ``--resume`` needs the config, the scenario names and ``render``.
if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.control.controller import ControllerReport
    from repro.control.degradation import DegradationConfig
    from repro.control.policy import Policy
    from repro.control.probes import ProbeConfig
    from repro.core.pathset import PathSet
    from repro.exec.runner import ExecRunner
    from repro.experiments.scenario import World
    from repro.faults.injector import FaultInjector
    from repro.net.path import RouterPath

#: The two controller configurations every scenario is replayed under.
#: ``ChaosConfig.adaptive`` appends a third arm (hardened + adaptive
#: cadence + gray detection + flap-aware margins).
ARMS: tuple[str, ...] = ("baseline", "hardened")


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Knobs for the chaos study."""

    seed: int = 7
    scale: str = "small"
    #: Scenario names to run (empty = the classic default suite).
    scenarios: tuple[str, ...] = ()
    duration_s: float = 3_600.0
    tick_s: float = 10.0
    probe_interval_s: float = 60.0
    #: Add the adaptive arm with *every* knob on: adaptive probe
    #: cadence, gray-failure detection, and fault-history-weighted path
    #: selection.  Off by default — the two classic arms,
    #: byte-identical to earlier runs.
    adaptive: bool = False
    #: Ablation knobs: each adds the adaptive arm with just that
    #: mechanism enabled (combine freely; ``adaptive`` is the bundle).
    adaptive_cadence: bool = False
    gray_detect: bool = False
    flap_margin: bool = False
    #: Adaptive cadence floor (None = probe_interval / 4).
    probe_floor_s: float | None = None
    #: Adaptive cadence ceiling (None = probe_interval).
    probe_ceiling_s: float | None = None
    #: Extra switch margin per recent failure of a challenger path.
    flap_margin_per_failure: float = 0.05

    def __post_init__(self) -> None:
        error = ExperimentError
        check(self.duration_s, "duration_s", gt=0, error=error)
        check(self.tick_s, "tick_s", gt=0, error=error)
        check(self.probe_interval_s, "probe_interval_s", gt=0, error=error)
        unknown = [name for name in self.scenarios if name not in SCENARIOS]
        if unknown:
            raise ExperimentError(
                f"unknown chaos scenarios {unknown}; choose from {sorted(SCENARIOS)}"
            )
        floor, ceiling = self.probe_floor_s, self.probe_ceiling_s
        if (floor is not None or ceiling is not None) and not self.use_adaptive_cadence:
            raise ExperimentError(
                "--probe-floor/--probe-ceiling bound the adaptive probe cadence; "
                "add --adaptive or --adaptive-cadence"
            )
        if floor is not None:
            check(floor, "probe_floor_s", gt=0, error=error)
        if ceiling is not None:
            check(ceiling, "probe_ceiling_s", gt=0, error=error)
        if floor is not None and ceiling is not None and floor > ceiling:
            raise ExperimentError(
                f"--probe-floor ({floor}) must not exceed --probe-ceiling ({ceiling})"
            )
        if floor is not None and ceiling is None and floor > self.probe_interval_s:
            raise ExperimentError(
                f"--probe-floor ({floor}) must not exceed --probe-interval "
                f"({self.probe_interval_s}), the cadence ceiling without --probe-ceiling"
            )
        if ceiling is not None and floor is None and ceiling < self.probe_interval_s / 4:
            raise ExperimentError(
                f"--probe-ceiling ({ceiling}) must not be below {self.probe_interval_s / 4}, "
                "a quarter of --probe-interval: the cadence floor without --probe-floor"
            )
        check(self.flap_margin_per_failure, "flap_margin_per_failure", ge=0, error=error)

    @property
    def scenario_names(self) -> tuple[str, ...]:
        """The scenarios this config actually runs."""
        return self.scenarios if self.scenarios else tuple(DEFAULT_SCENARIOS)

    @property
    def use_adaptive_cadence(self) -> bool:
        """Whether the adaptive arm adapts its probe cadence."""
        return self.adaptive or self.adaptive_cadence

    @property
    def use_gray_detect(self) -> bool:
        """Whether the adaptive arm runs gray-failure detection."""
        return self.adaptive or self.gray_detect

    @property
    def use_flap_margin(self) -> bool:
        """Whether the adaptive arm weights switching by fault history."""
        return self.adaptive or self.flap_margin

    @property
    def any_adaptive(self) -> bool:
        """True when any adaptive mechanism (hence the third arm) is on."""
        return self.use_adaptive_cadence or self.use_gray_detect or self.use_flap_margin

    @property
    def arms(self) -> tuple[str, ...]:
        """The controller arms every scenario is replayed under."""
        return (*ARMS, "adaptive") if self.any_adaptive else ARMS

    def hardened_probes(self) -> ProbeConfig:
        """The hardened arm's probe configuration."""
        from repro.control.probes import ProbeConfig

        return ProbeConfig(
            interval_s=self.probe_interval_s,
            timeout_ms=2_000.0,
            max_retries=2,
            retry_backoff_s=max(self.probe_interval_s / 6.0, 1.0),
        )

    def adaptive_probes(self) -> ProbeConfig:
        """The adaptive arm: hardened probing plus cadence adaptation."""
        from repro.control.probes import ProbeConfig

        return ProbeConfig(
            interval_s=self.probe_interval_s,
            timeout_ms=2_000.0,
            max_retries=2,
            retry_backoff_s=max(self.probe_interval_s / 6.0, 1.0),
            adaptive=True,
            min_interval_s=self.probe_floor_s,
            max_interval_s=self.probe_ceiling_s,
        )

    def degradation(self) -> DegradationConfig:
        """The hardened arm's degradation ladder, scaled to the cadence."""
        from repro.control.degradation import DegradationConfig

        return DegradationConfig(
            stale_after_s=2.5 * self.probe_interval_s,
            blackout_after_s=5.0 * self.probe_interval_s,
            flap_threshold=3,
            flap_window_s=self.duration_s / 2.0,
            quarantine_s=self.duration_s / 3.0,
        )


@dataclass(frozen=True, slots=True)
class ChaosOutcome:
    """Headline numbers for one (scenario, strategy, arm) run."""

    scenario: str
    strategy: str
    arm: str
    downtime_s: float
    wrong_path_s: float
    churn: int  # decision changes after the first activation
    mean_goodput_mbps: float
    probe_bytes: int
    probes_sent: int
    probes_lost: int
    probes_retried: int
    probes_stale_served: int
    probes_timed_out: int
    quarantines: int
    #: Mean seconds from a bulk-only gray onset to the first decision
    #: change (None when the scenario has no such episodes; undetected
    #: episodes are charged the time to end-of-run).
    detect_s: float | None = None


@dataclass
class ChaosResult:
    """All scenarios' outcomes plus the fault stories that produced them."""

    config: ChaosConfig
    pair: tuple[str, ...]
    descriptions: dict[str, str]
    outcomes: list[ChaosOutcome] = field(default_factory=list)

    def render(self) -> str:
        """One table per scenario: baseline vs hardened for each policy."""
        sections = [
            f"chaos study: {self.pair[0]} -> {self.pair[1]}, "
            f"{self.config.duration_s:.0f} s horizon, seed {self.config.seed}"
        ]
        # The detect column exists only on adaptive runs, so classic
        # (knobs-off) output stays byte-identical to historical runs.
        with_detect = self.config.any_adaptive
        for scenario in self.config.scenario_names:
            rows = []
            for outcome in self.outcomes:
                if outcome.scenario != scenario:
                    continue
                row = [
                    outcome.strategy,
                    outcome.arm,
                    f"{outcome.downtime_s:.0f} s",
                    f"{outcome.wrong_path_s:.0f} s",
                    f"{outcome.churn}",
                    f"{outcome.mean_goodput_mbps:.2f}",
                    f"{outcome.probe_bytes}",
                    f"{outcome.quarantines}",
                ]
                if with_detect:
                    row.append(
                        "-" if outcome.detect_s is None else f"{outcome.detect_s:.0f} s"
                    )
                rows.append(tuple(row))
            headers = [
                "strategy",
                "arm",
                "downtime",
                "wrong-path",
                "churn",
                "goodput Mbps",
                "probe bytes",
                "quarantines",
            ]
            if with_detect:
                headers.append("detect")
            table = format_table(headers, rows)
            sections.append(f"--- {self.descriptions[scenario]}\n{table}")
        return "\n\n".join(sections)


#: The strategies every arm replays, in output order.  Only
#: ``static-direct`` runs without a probe scheduler.
STRATEGIES: tuple[str, ...] = (
    "static-direct",
    "controller-best",
    "controller-c45",
    "mptcp-subflows",
)


def _policy_for(strategy: str, config: ChaosConfig, arm: str) -> tuple[Policy, bool]:
    """The strategy's policy, and whether it needs a probe scheduler."""
    from repro.control.policy import (
        BestPathPolicy,
        C45RulePolicy,
        MptcpSubflowPolicy,
        StaticPolicy,
    )

    if strategy == "static-direct":
        return StaticPolicy("direct"), False
    if strategy == "controller-best":
        if arm == "adaptive" and config.use_flap_margin:
            return (
                BestPathPolicy(flap_margin_per_failure=config.flap_margin_per_failure),
                True,
            )
        return BestPathPolicy(), True
    if strategy == "controller-c45":
        return C45RulePolicy(), True
    if strategy == "mptcp-subflows":
        return MptcpSubflowPolicy(), True
    raise ExperimentError(f"unknown strategy {strategy!r}")


def _pick_pathset(
    world: World, cronet, config: ChaosConfig
) -> tuple[PathSet, dict[str, ChaosScenario]]:
    """First pair every requested scenario can target, with its scenarios.

    The builders need isolatable links (direct-only, overlay-only) and
    an intermediate AS; pairs too entangled for any requested scenario
    are skipped.  The winning pair's scenarios are returned built, in
    ``config.scenario_names`` order, so no caller builds one twice.
    """
    for server in world.server_names:
        for client in world.client_names():
            pathset = cronet.path_set(server, client)
            try:
                scenarios = {
                    name: build_scenario(
                        name, world.internet, pathset, config.duration_s
                    )
                    for name in config.scenario_names
                }
            except ExperimentError:
                continue
            return pathset, scenarios
    raise ExperimentError("no pair admits every requested chaos scenario")


def _label_links(pathset: PathSet) -> dict[str, tuple[int, ...]]:
    """Candidate label -> the link ids its resolved path traverses."""
    mapping = {
        "direct": tuple(link.link_id for link in pathset.direct.links)
    }
    for option in pathset.options:
        mapping[option.name] = tuple(
            link.link_id for link in option.concatenated.links
        )
    return mapping


def _detection_latency(
    scenario: ChaosScenario, report: ControllerReport, duration_s: float
) -> float | None:
    """Mean time from each bulk-only gray onset to the next decision change.

    An episode no decision ever reacted to is charged the remaining
    run time — an undetected gray failure hurts until the run ends.
    """
    onsets = [
        event.window.start_s
        for event in scenario.events
        if isinstance(event, GrayFailure) and event.bulk_only
    ]
    if not onsets:
        return None
    change_times = [record.at_time for record in report.decisions.changes()]
    latencies = []
    for onset in onsets:
        reaction = next((t for t in change_times if t >= onset), None)
        latencies.append((reaction if reaction is not None else duration_s) - onset)
    return sum(latencies) / len(latencies)


def _run_one(
    world: World,
    pathset: PathSet,
    scenario: ChaosScenario,
    strategy: str,
    arm: str,
    config: ChaosConfig,
    injector: FaultInjector,
) -> ChaosOutcome:
    """One controller run from t=0 against an installed scenario."""
    from repro.control.controller import OverlayController
    from repro.control.health import HealthConfig
    from repro.control.metrics import MetricsRegistry
    from repro.control.probes import ProbeConfig, ProbeScheduler
    from repro.faults.injector import PathFaultHistory, ProbeFaultModel

    world.internet.set_time(0.0)
    policy, probed = _policy_for(strategy, config, arm)
    hardened = arm in ("hardened", "adaptive")
    adaptive = arm == "adaptive"
    scheduler = None
    if probed:
        if adaptive and config.use_adaptive_cadence:
            probe_config = config.adaptive_probes()
        elif hardened:
            probe_config = config.hardened_probes()
        else:
            probe_config = ProbeConfig(interval_s=config.probe_interval_s)
        # Stream names are unique per run: the memoized stream would
        # otherwise carry jitter state from one run into the next.
        stream = f"chaos.{scenario.name}.{arm}.{strategy}"
        fault_model = (
            ProbeFaultModel(
                scenario.probe_events, world.streams.stream(f"{stream}.probe-faults")
            )
            if scenario.probe_events
            else None
        )
        scheduler = ProbeScheduler(
            pathset, probe_config, world.streams.stream(stream), fault_model
        )
    health_config = HealthConfig(
        recovery_hold_s=2 * config.probe_interval_s,
        gray_detect=adaptive and config.use_gray_detect,
    )
    flap_history = (
        PathFaultHistory(
            injector,
            _label_links(pathset),
            window_s=config.degradation().flap_window_s,
        )
        if adaptive and config.use_flap_margin
        else None
    )
    controller = OverlayController(
        internet=world.internet,
        pathset=pathset,
        policy=policy,
        scheduler=scheduler,
        health_config=health_config,
        metrics=MetricsRegistry(),
        tick_s=config.tick_s,
        degradation=config.degradation() if hardened and probed else None,
        track_oracle=True,
        flap_history=flap_history,
    )
    report: ControllerReport = controller.run(config.duration_s)
    return ChaosOutcome(
        scenario=scenario.name,
        strategy=strategy,
        arm=arm,
        downtime_s=report.downtime_s,
        wrong_path_s=report.wrong_path_s,
        churn=report.failovers,
        mean_goodput_mbps=report.mean_goodput_mbps,
        probe_bytes=report.probe_bytes,
        probes_sent=report.probes_sent,
        probes_lost=report.probes_lost,
        probes_retried=report.probes_retried,
        probes_stale_served=report.probes_stale_served,
        probes_timed_out=report.probes_timed_out,
        quarantines=report.quarantines,
        detect_s=_detection_latency(scenario, report, config.duration_s),
    )


def _run_scenario(
    world: World, pathset: PathSet, scenario: ChaosScenario, config: ChaosConfig
) -> list[ChaosOutcome]:
    """Every (arm, strategy) run of one scenario under one fault injector.

    The runs replay one fault timeline, so the first fills the
    ``(t, state id)`` metric caches and the rest hit them (DESIGN §15).
    """
    from repro.faults.injector import FaultInjector

    injector = FaultInjector(world.internet)
    for event in scenario.events:
        injector.add(event)
    injector.install()
    try:
        return [
            _run_one(world, pathset, scenario, strategy, arm, config, injector)
            for arm in config.arms
            for strategy in STRATEGIES
        ]
    finally:
        injector.uninstall()
        world.internet.set_time(0.0)


def _study_inputs(config: ChaosConfig) -> tuple[World, PathSet, dict[str, ChaosScenario]]:
    """The world, the chaos pair and its built scenarios.

    This is the study's ``prepare``: it runs in the driver before any
    fork, so it also loads the engines the shards run, and forked
    shards inherit them instead of each importing its own.
    """
    import repro.control.controller  # noqa: F401
    import repro.faults.injector  # noqa: F401
    from repro.experiments.scenario import build_world

    world = build_world(seed=config.seed, scale=config.scale)
    pathset, scenarios = _pick_pathset(world, world.cronet(), config)
    return world, pathset, scenarios


def run_chaos(
    config: ChaosConfig = ChaosConfig(), runner: "ExecRunner | None" = None
) -> ChaosResult:
    """Run the chaos study as one shard per scenario.

    A shard is :func:`_run_scenario` on the scenario the driver built
    (inherited through fork on the pool), so its runs share one cache
    fill.  Scenario builders are RNG-free and each run's probe streams
    are memoized under a unique per-run name, so shard order and worker
    count cannot change any outcome: output is byte-identical in-process
    (``runner=None``) and at any worker count.

    Each payload carries the pair and its scenario's description next
    to the outcomes, so a fully cached ``--resume`` builds no world.
    """
    inputs = functools.cache(lambda: _study_inputs(config))

    def shard_fn(name: str):
        def compute() -> dict:
            world, pathset, scenarios = inputs()
            scenario = scenarios[name]
            return {
                "pair": [pathset.src_name, pathset.dst_name],
                "description": scenario.describe(),
                "outcomes": to_jsonable(_run_scenario(world, pathset, scenario, config)),
            }

        return compute

    names = config.scenario_names
    spec_params = {"experiment": "chaos", "config": dataclasses.asdict(config)}
    tasks = [
        ExecTask(
            spec=TaskSpec(
                kind="chaos.scenario",
                seed=config.seed,
                shard_index=i,
                shard_count=len(names),
                params={**spec_params, "scenario": name},
            ),
            fn=shard_fn(name),
        )
        for i, name in enumerate(names)
    ]
    payloads = run_tasks(tasks, runner, stage="chaos.runs", prepare=inputs)
    result = ChaosResult(
        config=config,
        pair=tuple(payloads[0]["pair"]),
        descriptions={
            name: payload["description"] for name, payload in zip(names, payloads)
        },
    )
    for payload in payloads:
        result.outcomes.extend(ChaosOutcome(**outcome) for outcome in payload["outcomes"])
    return result


# ----------------------------------------------------------------------
# packet-level replay (``repro chaos --engine packet``)
# ----------------------------------------------------------------------

#: Scenarios the packet replay runs by default: the two stories whose
#: verdicts hinge on per-packet dynamics — a probe blackout over a
#: gray direct path, and bulk-only gray episodes that pings cannot see.
PACKET_SCENARIOS: tuple[str, ...] = ("probe-blackout", "gray-detect")


@dataclass(frozen=True, slots=True)
class PacketReplayConfig:
    """Knobs for the packet-level chaos replay."""

    seed: int = 7
    scale: str = "small"
    #: Scenario names to replay (empty = :data:`PACKET_SCENARIOS`).
    scenarios: tuple[str, ...] = ()
    duration_s: float = 3_600.0
    #: Simulated seconds of bulk transfer per sampled instant.
    flow_s: float = 10.0
    rwnd_bytes: int = 1_048_576
    queue_packets: int = 128

    def __post_init__(self) -> None:
        check(self.duration_s, "duration_s", gt=0, error=ExperimentError)
        check(self.flow_s, "flow_s", gt=0, error=ExperimentError)
        check(self.rwnd_bytes, "rwnd_bytes", gt=0, error=ExperimentError)
        check(self.queue_packets, "queue_packets", ge=1, error=ExperimentError)
        unknown = [name for name in self.scenarios if name not in SCENARIOS]
        if unknown:
            raise ExperimentError(
                f"unknown chaos scenarios {unknown}; choose from {sorted(SCENARIOS)}"
            )

    @property
    def scenario_names(self) -> tuple[str, ...]:
        """The scenarios this config actually replays."""
        return self.scenarios if self.scenarios else PACKET_SCENARIOS


@dataclass(frozen=True, slots=True)
class PacketSample:
    """One packet-level flow at one sampled instant on one path."""

    scenario: str
    at_s: float
    path: str
    alive: bool
    model_mbps: float
    packet_mbps: float
    retx_rate: float
    segments: int


@dataclass
class PacketReplayResult:
    """Every sampled flow plus the fault stories that shaped them."""

    config: PacketReplayConfig
    pair: tuple[str, ...]
    descriptions: dict[str, str] = field(default_factory=dict)
    samples: list[PacketSample] = field(default_factory=list)

    def render(self) -> str:
        """One table per scenario: model vs packet engine, per instant."""
        sections = [
            f"packet-level chaos replay: {self.pair[0]} -> {self.pair[1]}, "
            f"{self.config.duration_s:.0f} s horizon, "
            f"{self.config.flow_s:g} s flows, seed {self.config.seed}"
        ]
        for scenario in self.config.scenario_names:
            rows = []
            for sample in self.samples:
                if sample.scenario != scenario:
                    continue
                if sample.alive:
                    rows.append(
                        (
                            f"{sample.at_s:.0f} s",
                            sample.path,
                            "up",
                            f"{sample.model_mbps:.2f}",
                            f"{sample.packet_mbps:.2f}",
                            f"{100.0 * sample.retx_rate:.2f}%",
                            f"{sample.segments}",
                        )
                    )
                else:
                    rows.append(
                        (f"{sample.at_s:.0f} s", sample.path, "down", "-", "-", "-", "-")
                    )
            table = format_table(
                ["t", "path", "state", "model Mbps", "packet Mbps", "retx", "segments"],
                rows,
            )
            sections.append(f"--- {self.descriptions[scenario]}\n{table}")
        return "\n\n".join(sections)


def run_chaos_packet(
    config: PacketReplayConfig = PacketReplayConfig(),
) -> PacketReplayResult:
    """Replay chaos scenarios through the packet-level engine.

    For each scenario, the fault injector is installed and the story is
    sampled at the instants :func:`~repro.faults.scenarios.
    replay_instants` picks (quiet start, every window midpoint, every
    recovery).  At each instant, every candidate path's link state is
    snapshotted via :func:`~repro.transport.packetsim.sim_links_at` and
    a short bulk flow is simulated segment by segment, next to the
    model engine's prediction for the identical snapshot — the
    gray-failure loss-compounding story, revalidated at packet level.

    Deterministic for a fixed config; ``tests/test_experiments_chaos.py``
    checks that the frozen per-hop reference engine gives the same
    samples, and CI diffs the output against a committed golden.
    """
    import numpy as np

    from repro.experiments.scenario import build_world
    from repro.faults.injector import FaultInjector
    from repro.faults.scenarios import replay_instants
    from repro.transport.packetsim import PacketLevelTcp, sim_links_at, sim_path_metrics
    from repro.transport.throughput import TcpParams, steady_state_throughput_mbps

    world = build_world(seed=config.seed, scale=config.scale)
    pathset, scenarios = _pick_pathset(world, world.cronet(), config)
    result = PacketReplayResult(
        config=config, pair=(pathset.src_name, pathset.dst_name)
    )
    labelled: list[tuple[str, RouterPath]] = [("direct", pathset.direct)]
    labelled += [(option.name, option.concatenated) for option in pathset.options]
    params = TcpParams(rwnd_bytes=config.rwnd_bytes)
    for scenario_index, (name, scenario) in enumerate(scenarios.items()):
        result.descriptions[name] = scenario.describe()
        injector = FaultInjector(world.internet)
        for event in scenario.events:
            injector.add(event)
        injector.install()
        try:
            for at_s in replay_instants(scenario, config.duration_s):
                world.internet.set_time(at_s)
                for path_index, (label, path) in enumerate(labelled):
                    if not path.is_alive():
                        result.samples.append(
                            PacketSample(
                                scenario=name,
                                at_s=at_s,
                                path=label,
                                alive=False,
                                model_mbps=0.0,
                                packet_mbps=0.0,
                                retx_rate=0.0,
                                segments=0,
                            )
                        )
                        continue
                    links = sim_links_at(path, at_s, queue_packets=config.queue_packets)
                    model = steady_state_throughput_mbps(
                        sim_path_metrics(links), params
                    )
                    rng = np.random.default_rng(
                        (config.seed, scenario_index, path_index, int(round(at_s)))
                    )
                    tcp = PacketLevelTcp(links, rng, rwnd_bytes=config.rwnd_bytes)
                    stats = tcp.run(config.flow_s)
                    result.samples.append(
                        PacketSample(
                            scenario=name,
                            at_s=at_s,
                            path=label,
                            alive=True,
                            model_mbps=model,
                            packet_mbps=stats.throughput_mbps,
                            retx_rate=stats.retransmission_rate,
                            segments=tcp.delivered_segments + tcp.retransmissions,
                        )
                    )
        finally:
            injector.uninstall()
            world.internet.set_time(0.0)
    return result
