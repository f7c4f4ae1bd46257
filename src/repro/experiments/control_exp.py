"""Extension — controller failover study under scheduled link failures.

The control-plane question the deployment story (Sec. I) implies but
the paper never measures: when a link on the default path dies
mid-transfer, how long is each strategy down?

Four strategies share one world, one sender/receiver pair, and one
scheduled outage on a link that only the *direct* path crosses:

* **static-direct** — no control plane; the pair stays on the direct
  path through the outage (the plain-BGP baseline),
* **controller-best** — probe-driven :class:`~repro.control.policy.
  BestPathPolicy`: downtime is bounded by detection (probe interval x
  hysteresis) plus one decision tick,
* **controller-c45** — the paper's Sec. V-B rule as a live policy:
  stays direct until direct fails, then falls back to an overlay,
* **mptcp-subflows** — Sec. VI: subflows on every usable path, so the
  aggregate rides an overlay the instant the direct subflow dies.

Reports per-strategy downtime, recovery time after the outage starts,
mean goodput, probe overhead, and failovers — plus the deterministic
:class:`~repro.control.metrics.MetricsRegistry` snapshot of the
controller run, which the acceptance test pins for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.control.controller import ControllerReport, OverlayController
from repro.control.health import HealthConfig
from repro.control.metrics import MetricsRegistry
from repro.control.policy import (
    BestPathPolicy,
    C45RulePolicy,
    MptcpSubflowPolicy,
    Policy,
    StaticPolicy,
)
from repro.control.probes import ProbeConfig, ProbeScheduler
from repro.core.pathset import PathSet, PathType
from repro.errors import ExperimentError, check
from repro.experiments.scenario import World, build_world
from repro.faults.events import LinkOutage, Window
from repro.faults.injector import FaultInjector
from repro.net.path import RouterPath


@dataclass(frozen=True, slots=True)
class ControlExpConfig:
    """Knobs for the failover study."""

    seed: int = 7
    scale: str = "small"
    duration_s: float = 3_600.0
    tick_s: float = 10.0
    probe_interval_s: float = 60.0
    outage_start_s: float = 900.0
    outage_duration_s: float = 1_200.0
    probe_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        error = ExperimentError
        check(self.duration_s, "duration_s", gt=0, error=error)
        check(self.tick_s, "tick_s", gt=0, error=error)
        check(self.probe_interval_s, "probe_interval_s", gt=0, error=error)
        check(self.outage_start_s, "outage_start_s", ge=0, error=error)
        check(self.outage_duration_s, "outage_duration_s", gt=0, error=error)
        # The outage must end within the experiment horizon.
        check(self.outage_start_s + self.outage_duration_s,
              "outage end (outage_start_s + outage_duration_s)", le=self.duration_s,
              error=error)
        if self.probe_budget_bytes is not None:
            check(self.probe_budget_bytes, "probe_budget_bytes", gt=0, error=error)


@dataclass(frozen=True, slots=True)
class StrategyOutcome:
    """Headline numbers for one strategy's run."""

    strategy: str
    downtime_s: float
    recovery_s: float | None  # time from outage start to goodput restored
    mean_goodput_mbps: float
    probe_bytes: int
    probes_sent: int
    failovers: int


@dataclass
class ControlExpResult:
    """All strategies' outcomes plus the controller metrics snapshot."""

    config: ControlExpConfig
    pair: tuple[str, ...]
    #: path label -> link id failed during the outage window.
    failed_links: dict[str, int]
    outcomes: list[StrategyOutcome]
    controller_metrics: dict[str, object] = field(default_factory=dict)
    decision_log: str = ""

    def render(self) -> str:
        rows = []
        for outcome in self.outcomes:
            recovery = "never" if outcome.recovery_s is None else f"{outcome.recovery_s:.0f} s"
            rows.append(
                (
                    outcome.strategy,
                    f"{outcome.downtime_s:.0f} s",
                    recovery,
                    f"{outcome.mean_goodput_mbps:.2f}",
                    f"{outcome.probe_bytes}",
                    f"{outcome.failovers}",
                )
            )
        outages = ", ".join(
            f"{label} (link {link_id})" for label, link_id in self.failed_links.items()
        )
        header = (
            f"failover study: {self.pair[0]} -> {self.pair[1]}; down "
            f"[{self.config.outage_start_s:.0f}, "
            f"{self.config.outage_start_s + self.config.outage_duration_s:.0f}) s "
            f"of a {self.config.duration_s:.0f} s run: {outages}"
        )
        table = format_table(
            ["strategy", "downtime", "recovery", "goodput Mbps", "probe bytes", "failovers"],
            rows,
        )
        sections = [header, table]
        if self.decision_log:
            sections.append("controller decisions:\n" + self.decision_log)
        return "\n\n".join(sections)


def pick_unique_link(target: RouterPath, others: list[RouterPath]) -> int:
    """A middle link ``target`` crosses but none of ``others`` does.

    Failing it takes down exactly one candidate path while every
    alternative stays alive — the surgical outage the failover study
    needs.  The shared last-mile access links at either end can never
    qualify.
    """
    shared = {link.link_id for other in others for link in other.links}
    unique = [link for link in target.links if link.link_id not in shared]
    if not unique:
        raise ExperimentError(
            f"path {target.src_name}->{target.dst_name} shares every link "
            f"with an alternative; no isolatable failure exists"
        )
    return unique[len(unique) // 2].link_id


def _outage_plan(pathset: PathSet) -> dict[str, int]:
    """Which link to fail per targeted path label.

    Two simultaneous outages make the study bite: one on a direct-only
    link (strands the static baseline) and one unique to the overlay
    option that is best at t=0 (forces the running controller off the
    path it actually chose).
    """
    overlay_paths = {option.name: option.concatenated for option in pathset.options}
    plan = {
        "direct": pick_unique_link(pathset.direct, list(overlay_paths.values()))
    }
    best_name, _ = pathset.best_overlay(PathType.SPLIT_OVERLAY, 0.0)
    others = [pathset.direct] + [
        path for name, path in overlay_paths.items() if name != best_name
    ]
    plan[best_name] = pick_unique_link(overlay_paths[best_name], others)
    return plan


def _pick_pair(world: World, cronet) -> tuple[PathSet, dict[str, int]]:
    """First (server, client) pair admitting the two surgical outages."""
    for server in world.server_names:
        for client in world.client_names():
            pathset = cronet.path_set(server, client)
            try:
                return pathset, _outage_plan(pathset)
            except ExperimentError:
                continue
    raise ExperimentError("no pair with isolatable direct and overlay links found")


def _recovery_time(
    report: ControllerReport, outage_start: float
) -> float | None:
    """Seconds from outage start until goodput was next above zero.

    ``None`` when goodput never recovered inside the run; 0 when the
    strategy never went down at all.
    """
    went_down = False
    for sample in report.samples:
        if sample.at_time < outage_start:
            continue
        if sample.goodput_mbps <= 0.0:
            went_down = True
        elif went_down:
            return sample.at_time - outage_start
    if went_down:
        return None
    return 0.0


def run_control(config: ControlExpConfig = ControlExpConfig()) -> ControlExpResult:
    """Run the failover study; deterministic for a fixed seed."""
    world = build_world(seed=config.seed, scale=config.scale)
    cronet = world.cronet()
    pathset, failed_links = _pick_pair(world, cronet)
    injector = FaultInjector(world.internet)
    window = Window(config.outage_start_s, config.outage_duration_s)
    injector.add(LinkOutage(link_ids=tuple(failed_links.values()), window=window))
    injector.install()

    def scheduler_for(strategy: str) -> ProbeScheduler:
        probe_config = ProbeConfig(
            interval_s=config.probe_interval_s,
            budget_bytes_per_interval=config.probe_budget_bytes,
        )
        # A named stream per strategy: jitter draws are reproducible
        # regardless of the order strategies run in.
        rng = world.streams.stream(f"control.{strategy}")
        return ProbeScheduler(pathset, probe_config, rng)

    health = HealthConfig(recovery_hold_s=2 * config.probe_interval_s)
    strategies: list[tuple[str, Policy, bool]] = [
        ("static-direct", StaticPolicy("direct"), False),
        ("controller-best", BestPathPolicy(), True),
        ("controller-c45", C45RulePolicy(), True),
        ("mptcp-subflows", MptcpSubflowPolicy(), True),
    ]

    outcomes: list[StrategyOutcome] = []
    controller_metrics: dict[str, object] = {}
    decision_log = ""
    for name, policy, probed in strategies:
        # Each strategy replays the same world from t=0: the clock
        # drives every stochastic process, so rewinding it (and letting
        # the injector re-apply) reproduces identical dynamics.
        world.internet.set_time(0.0)
        controller = OverlayController(
            internet=world.internet,
            pathset=pathset,
            policy=policy,
            scheduler=scheduler_for(name) if probed else None,
            health_config=health,
            metrics=MetricsRegistry(),
            tick_s=config.tick_s,
        )
        report = controller.run(config.duration_s)
        outcomes.append(
            StrategyOutcome(
                strategy=name,
                downtime_s=report.downtime_s,
                recovery_s=_recovery_time(report, config.outage_start_s),
                mean_goodput_mbps=report.mean_goodput_mbps,
                probe_bytes=report.probe_bytes,
                probes_sent=report.probes_sent,
                failovers=report.failovers,
            )
        )
        if name == "controller-best":
            controller_metrics = report.metrics
            decision_log = report.decisions.render()

    # Restore the failed links for any reuse of the world.
    injector.uninstall()
    return ControlExpResult(
        config=config,
        pair=(pathset.src_name, pathset.dst_name),
        failed_links=failed_links,
        outcomes=outcomes,
        controller_metrics=controller_metrics,
        decision_log=decision_log,
    )
