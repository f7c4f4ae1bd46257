"""Extension — availability under link failures.

Sec. VI-A's resilience claim ("if the default Internet path fails, the
two proxies can still continue their connections through the overlay
paths") made quantitative: inject random link outages over a simulated
day and compare three connectivity strategies for a set of endpoint
pairs:

* **direct-only** — the pair is down whenever its (re-converged) BGP
  path has no failure-free candidate,
* **cronet-static** — direct plus one fixed overlay path (the one that
  was best at deployment time),
* **cronet-mptcp** — direct plus *all* overlay paths (an MPTCP proxy
  pair is up if any subflow is up).

Reports per-strategy availability (fraction of pair-minutes up), the
RON-style headline CRONets inherits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.pathset import PathSet, PathType
from repro.errors import ExperimentError, check
from repro.experiments.scenario import World, build_world
from repro.faults.events import LinkOutage, Window
from repro.faults.injector import FaultInjector
from repro.net.links import LinkClass


@dataclass(frozen=True, slots=True)
class AvailabilityConfig:
    """Knobs for the failure-injection study."""

    seed: int = 7
    scale: str = "small"
    n_pairs: int = 8
    duration_hours: float = 24.0
    check_interval_s: float = 900.0
    outages: int = 40
    outage_duration_s: float = 1_800.0

    def __post_init__(self) -> None:
        check(self.n_pairs, "n_pairs", gt=0, error=ExperimentError)
        check(self.outages, "outages", ge=0, error=ExperimentError)
        # A zero or nan interval never ends (or never runs) the check
        # loop, and a nan horizon leaves no checks to divide by.
        for name in ("duration_hours", "check_interval_s", "outage_duration_s"):
            check(getattr(self, name), name, gt=0, error=ExperimentError)


@dataclass
class AvailabilityResult:
    """Availability per strategy, plus the outage schedule size."""

    config: AvailabilityConfig
    checks: int
    direct_up: int
    static_up: int
    mptcp_up: int
    outages_injected: int

    def availability(self) -> dict[str, float]:
        return {
            "direct-only": self.direct_up / self.checks,
            "cronet-static": self.static_up / self.checks,
            "cronet-mptcp": self.mptcp_up / self.checks,
        }

    def render(self) -> str:
        availability = self.availability()
        rows = [(name, f"{value:.3%}") for name, value in availability.items()]
        return "\n\n".join(
            [
                f"availability under {self.outages_injected} injected outages "
                f"({self.checks} pair-checks over "
                f"{self.config.duration_hours:.0f} h)",
                format_table(["strategy", "availability"], rows),
            ]
        )


def _install_outages(world: World, config: AvailabilityConfig) -> FaultInjector:
    """Install random outages on core, transit and access links."""
    rng = world.streams.stream("availability")
    candidates = [
        link
        for link_class in (
            LinkClass.T1_PEERING,
            LinkClass.T1_TRANSIT,
            LinkClass.TRANSIT_PEERING,
            LinkClass.ACCESS,
        )
        for link in world.internet.links_of_class(link_class)
    ]
    if not candidates:
        raise ExperimentError("no candidate links for outage injection")
    horizon = config.duration_hours * 3_600.0
    injector = FaultInjector(world.internet)
    for _ in range(config.outages):
        link = candidates[int(rng.integers(0, len(candidates)))]
        start = float(rng.uniform(0.0, horizon))
        window = Window(start, config.outage_duration_s)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=window))
    return injector.install()


def run_availability(config: AvailabilityConfig = AvailabilityConfig()) -> AvailabilityResult:
    """Run the failure-injection availability study."""
    world = build_world(seed=config.seed, scale=config.scale)
    cronet = world.cronet()
    clients = world.client_names()
    servers = world.server_names

    pairs: list[PathSet] = []
    static_choice: list[int] = []  # index of the fixed overlay option
    for i in range(config.n_pairs):
        server = servers[i % len(servers)]
        client = clients[i % len(clients)]
        pathset = cronet.path_set(server, client)
        pairs.append(pathset)
        best_name, _ = pathset.best_overlay(PathType.SPLIT_OVERLAY, 0.0)
        static_choice.append(
            next(j for j, o in enumerate(pathset.options) if o.name == best_name)
        )

    injector = _install_outages(world, config)

    checks = direct_up = static_up = mptcp_up = 0
    t = 0.0
    horizon = config.duration_hours * 3_600.0
    while t < horizon:
        world.internet.set_time(t)
        for pathset, fixed in zip(pairs, static_choice):
            checks += 1
            direct_alive = pathset.direct.is_alive()
            overlay_alive = [o.concatenated.is_alive() for o in pathset.options]
            if not direct_alive:
                # BGP re-convergence may still find a live direct route.
                try:
                    world.internet.resolve_live_path(pathset.src_name, pathset.dst_name)
                    direct_alive = True
                except Exception:
                    direct_alive = False
            direct_up += direct_alive
            static_up += direct_alive or overlay_alive[fixed]
            mptcp_up += direct_alive or any(overlay_alive)
        t += config.check_interval_s
    # Leave the world clean for any reuse.
    injector.uninstall()

    return AvailabilityResult(
        config=config,
        checks=checks,
        direct_up=direct_up,
        static_up=static_up,
        mptcp_up=mptcp_up,
        outages_injected=len(injector.events),
    )
