"""Named chaos scenarios: curated correlated-fault stories.

Each scenario targets one sender/receiver :class:`~repro.core.pathset.
PathSet` and composes data-plane events (outages, flaps, gray
failures, storms) with probe-plane faults into a reproducible story
the chaos experiment replays under every policy.  Windows are placed
at fixed fractions of the experiment horizon so the same scenario
scales from smoke runs to long studies.

The two *degradation showcases* are built so the hardened controller
has something to win:

* ``probe-blackout`` / ``stale-probes`` — the direct path is gray (slow
  but alive), the controller therefore rides an overlay, then that
  overlay dies exactly while the probe plane goes quiet (or serves
  cached results).  A PR-1 controller keeps trusting its rosy last
  probe and sits on the corpse; a degradation-aware one notices its
  data is stale and falls back to the gray-but-alive direct path.
* ``flapping-overlay`` — the preferred overlay blinks on a BGP flap
  cycle.  A PR-1 controller chases it through every cycle; quarantine
  parks it after a few failures.
* ``pop-outage`` — *partial* AS failure: the best overlay's transit AS
  loses one PoP repeatedly while its sibling PoPs keep forwarding, so
  the underlay re-converges (:mod:`repro.net.reroute`) and only the
  paths riding the dead city degrade.  The dead PoP swallows that
  overlay's probes too; per-path staleness detection decides the
  contest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExperimentError, RoutingError
from repro.faults.events import (
    AsOutage,
    CongestionStorm,
    FaultEvent,
    GrayFailure,
    LinkOutage,
    PopOutage,
    ProbeFaultEvent,
    ProbeFaultKind,
    RouteFlap,
    Window,
)

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.core.pathset import PathSet
    from repro.net.path import RouterPath
    from repro.net.world import Internet


@dataclass
class ChaosScenario:
    """One named fault story against one path set."""

    name: str
    description: str
    events: list[FaultEvent] = field(default_factory=list)
    probe_events: list[ProbeFaultEvent] = field(default_factory=list)

    def describe(self) -> str:
        """Header line plus one line per event."""
        lines = [f"{self.name}: {self.description}"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        lines.extend(f"  {event.describe()}" for event in self.probe_events)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# target-picking helpers
# ----------------------------------------------------------------------
def unique_middle_link(target: RouterPath, others: list[RouterPath]) -> int:
    """A middle link ``target`` crosses but none of ``others`` does."""
    shared = {link.link_id for other in others for link in other.links}
    unique = [link for link in target.links if link.link_id not in shared]
    if not unique:
        raise ExperimentError(
            f"path {target.src_name}->{target.dst_name} shares every link "
            f"with an alternative; no isolatable fault target exists"
        )
    return unique[len(unique) // 2].link_id


def direct_only_link(pathset: PathSet) -> int:
    """A link only the direct path crosses."""
    return unique_middle_link(
        pathset.direct, [option.concatenated for option in pathset.options]
    )


def overlay_only_link(pathset: PathSet, name: str) -> int:
    """A link only overlay option ``name`` crosses."""
    target = next(o.concatenated for o in pathset.options if o.name == name)
    others = [pathset.direct] + [
        option.concatenated for option in pathset.options if option.name != name
    ]
    return unique_middle_link(target, others)


def best_overlay_name(pathset: PathSet) -> str:
    """The overlay option with the best split-mode throughput at t=0."""
    from repro.core.pathset import PathType

    name, _ = pathset.best_overlay(PathType.SPLIT_OVERLAY, 0.0)
    return name


def middle_asn(internet: Internet, pathset: PathSet) -> int:
    """The AS owning the middle router of the direct path."""
    router_ids = pathset.direct.router_ids[1:-1]  # strip the two hosts
    if not router_ids:
        raise ExperimentError("direct path has no intermediate routers to fail")
    middle = router_ids[len(router_ids) // 2]
    return internet.routers.get(middle).asn


def pop_outage_target(internet: Internet, pathset: PathSet) -> tuple[int, str]:
    """The first multi-PoP transit PoP the best overlay rides.

    Walks the best overlay's routers in path order and returns the
    ``(asn, city)`` of the first PoP belonging to a Tier-1/transit AS
    with sibling PoPs — the AS can re-converge around losing it — whose
    link set leaves the direct path untouched (the safe harbour must
    survive a *partial* event).
    """
    from repro.net.world import HOST_ID_BASE

    best = best_overlay_name(pathset)
    target = next(o.concatenated for o in pathset.options if o.name == best)
    direct_links = {link.link_id for link in pathset.direct.links}
    for router_id in target.router_ids:
        if router_id >= HOST_ID_BASE:
            continue  # endpoints and overlay VMs, not routers
        router = internet.routers.get(router_id)
        if not internet.topology.is_multi_pop_transit(router.asn):
            continue
        incident = {
            link.link_id
            for link in internet.links_by_id.values()
            if router_id in (link.router_a, link.router_b)
        }
        if incident & direct_links:
            continue
        return router.asn, router.city_name
    raise ExperimentError(
        f"best overlay {best} crosses no multi-PoP transit PoP disjoint "
        f"from the direct path; no partial-outage target exists"
    )


def _reconvergence_note(
    internet: Internet, pathset: PathSet, outage: PopOutage
) -> str:
    """Measure what the sibling-PoP detour costs while the PoP is down.

    Temporarily fails the outage's links on the (clean) build-time
    world, resolves the affected overlay leg live, and restores —
    purely a read of the converged state, deterministic for a fixed
    world.
    """
    from repro.net.reroute import reconvergence_delta_ms

    affected = None
    for option in pathset.options:
        for leg in (option.leg_to_node, option.leg_from_node):
            if any(
                link.link_id in set(outage.link_ids) for link in leg.links
            ):
                affected = leg
                break
        if affected is not None:
            break
    if affected is None:
        return "no overlay leg crosses the PoP"
    links = [internet.links_by_id[link_id] for link_id in outage.link_ids]
    pre_failed = {link.link_id for link in links if link.failed}
    try:
        # Through the mutators (not raw ``link.failed`` writes), so the
        # global mutation epoch moves and every epoch-keyed cache — the
        # fastpath mirror, memoized live paths, dark-router sets — sees
        # the temporary outage instead of serving pre-outage state.
        for link in links:
            link.fail()
        delta = reconvergence_delta_ms(
            internet, affected.src_name, affected.dst_name
        )
    except RoutingError:
        return "no reroute survives the outage"
    finally:
        for link in links:
            if link.link_id in pre_failed:
                link.fail()
            else:
                link.restore()
    if delta is None:  # pragma: no cover - the leg crosses the PoP
        return "preferred leg unaffected"
    return f"re-convergence detour {delta:+.1f} ms RTT"


def core_links(path: RouterPath) -> tuple[int, ...]:
    """The path's non-last-mile links (storm targets)."""
    from repro.net.links import LinkClass

    return tuple(
        link.link_id
        for link in path.links
        if link.link_class is not LinkClass.HOST_ACCESS
    )


# ----------------------------------------------------------------------
# scenario builders (windows at fractions of the horizon)
# ----------------------------------------------------------------------
def _w(horizon_s: float, start_frac: float, duration_frac: float) -> Window:
    return Window(
        start_s=round(horizon_s * start_frac, 3),
        duration_s=round(horizon_s * duration_frac, 3),
    )


def build_as_outage(internet: Internet, pathset: PathSet, horizon_s: float) -> ChaosScenario:
    """A whole intermediate AS on the direct path goes dark."""
    asn = middle_asn(internet, pathset)
    event = AsOutage.for_as(internet, asn, _w(horizon_s, 0.30, 0.25))
    return ChaosScenario(
        name="as-outage",
        description=f"AS{asn} (mid-path transit of direct) fully down",
        events=[event],
    )


def build_route_flap(internet: Internet, pathset: PathSet, horizon_s: float) -> ChaosScenario:
    """The direct path's unique link blinks on a BGP flap cycle."""
    link_id = direct_only_link(pathset)
    window = _w(horizon_s, 0.25, 0.50)
    return ChaosScenario(
        name="route-flap",
        description=f"link {link_id} (direct-only) withdrawn/re-announced cyclically",
        events=[
            RouteFlap(
                link_ids=(link_id,),
                window=window,
                period_s=round(window.duration_s / 5.0, 3),
                duty=0.5,
            )
        ],
    )


def build_gray_direct(internet: Internet, pathset: PathSet, horizon_s: float) -> ChaosScenario:
    """The direct path silently drops a third of its traffic."""
    link_id = direct_only_link(pathset)
    return ChaosScenario(
        name="gray-direct",
        description=f"link {link_id} (direct-only) gray: 30% silent drop, +50 ms",
        events=[
            GrayFailure(
                link_ids=(link_id,),
                window=_w(horizon_s, 0.30, 0.50),
                drop_fraction=0.30,
                extra_delay_ms=50.0,
            )
        ],
    )


def build_storm(internet: Internet, pathset: PathSet, horizon_s: float) -> ChaosScenario:
    """A congestion storm sweeps the direct path's core links."""
    links = core_links(pathset.direct)
    return ChaosScenario(
        name="storm",
        description=f"utilization surge +0.35 across {len(links)} core links of direct",
        events=[
            CongestionStorm(
                link_ids=links, window=_w(horizon_s, 0.30, 0.40), surge=0.35
            )
        ],
    )


def _degradation_base(
    pathset: PathSet, horizon_s: float
) -> tuple[list[FaultEvent], str]:
    """Gray direct for the whole run + kill the preferred overlay mid-run.

    The gray failure parks the controller on an overlay (direct is
    DEGRADED but alive — the safe harbour); the outage then kills that
    overlay while the probe plane misbehaves.
    """
    gray = GrayFailure(
        link_ids=(direct_only_link(pathset),),
        window=Window(start_s=0.0, duration_s=horizon_s),
        drop_fraction=0.35,
        extra_delay_ms=40.0,
    )
    best = best_overlay_name(pathset)
    outage = LinkOutage(
        link_ids=(overlay_only_link(pathset, best),),
        window=_w(horizon_s, 0.45, 0.30),
    )
    return [gray, outage], best


def build_probe_blackout(
    internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """Preferred overlay dies while every probe is lost."""
    events, best = _degradation_base(pathset, horizon_s)
    blackout = ProbeFaultEvent(
        window=_w(horizon_s, 0.40, 0.40), fault=ProbeFaultKind.LOST
    )
    return ChaosScenario(
        name="probe-blackout",
        description=f"overlay {best} down during a total probe blackout; direct gray",
        events=events,
        probe_events=[blackout],
    )


def build_stale_probes(
    internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """Preferred overlay dies while the probe plane serves cached data."""
    events, best = _degradation_base(pathset, horizon_s)
    stale = ProbeFaultEvent(
        window=_w(horizon_s, 0.40, 0.40), fault=ProbeFaultKind.STALE
    )
    return ChaosScenario(
        name="stale-probes",
        description=f"overlay {best} down while probes answer from cache; direct gray",
        events=events,
        probe_events=[stale],
    )


def build_flapping_overlay(
    internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """The preferred overlay blinks; direct stays gray but alive."""
    gray = GrayFailure(
        link_ids=(direct_only_link(pathset),),
        window=Window(start_s=0.0, duration_s=horizon_s),
        drop_fraction=0.35,
        extra_delay_ms=40.0,
    )
    best = best_overlay_name(pathset)
    window = _w(horizon_s, 0.25, 0.60)
    flap = RouteFlap(
        link_ids=(overlay_only_link(pathset, best),),
        window=window,
        period_s=round(window.duration_s / 6.0, 3),
        duty=0.5,
    )
    return ChaosScenario(
        name="flapping-overlay",
        description=f"overlay {best} flapping on a BGP cycle; direct gray",
        events=[gray, flap],
    )


def build_probe_loss(
    internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """Half of all probes vanish while the direct path dies."""
    outage = LinkOutage(
        link_ids=(direct_only_link(pathset),), window=_w(horizon_s, 0.35, 0.30)
    )
    lossy = ProbeFaultEvent(
        window=Window(start_s=0.0, duration_s=horizon_s),
        fault=ProbeFaultKind.LOST,
        probability=0.5,
    )
    return ChaosScenario(
        name="probe-loss",
        description="50% probe loss for the whole run; direct-only link down mid-run",
        events=[outage],
        probe_events=[lossy],
    )


def build_gray_detect(
    internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """Episodic *bulk-only* gray failures on the preferred overlay.

    The direct path is visibly gray for the whole run (parking the
    controller on the best overlay and keeping at least one path
    unhealthy, so an adaptive prober stays at its cadence floor).
    Four times during the run the overlay's unique link silently drops
    70 % of bulk traffic while answering pings cleanly — invisible to
    a ping-only health check, obvious to the throughput/ping
    cross-check.  This is the showcase the ``--adaptive`` chaos arm is
    measured on.
    """
    gray = GrayFailure(
        link_ids=(direct_only_link(pathset),),
        window=Window(start_s=0.0, duration_s=horizon_s),
        drop_fraction=0.35,
        extra_delay_ms=40.0,
    )
    best = best_overlay_name(pathset)
    overlay_link = overlay_only_link(pathset, best)
    episodes = [
        GrayFailure(
            link_ids=(overlay_link,),
            window=_w(horizon_s, start_frac, 0.10),
            drop_fraction=0.70,
            bulk_only=True,
        )
        for start_frac in (0.20, 0.40, 0.60, 0.80)
    ]
    return ChaosScenario(
        name="gray-detect",
        description=(
            f"overlay {best} drops 70% of bulk traffic (pings clean) in four "
            f"episodes; direct visibly gray"
        ),
        events=[gray, *episodes],
    )


def build_pop_outage(
    internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """One transit PoP on the best overlay dies, repeatedly.

    The partial-outage showcase: the direct path is gray for the whole
    run (parking the controller on the best overlay), then the transit
    AS that overlay rides loses the *one PoP* on its path in four
    maintenance-gone-wrong episodes.  The AS itself keeps forwarding —
    sibling PoPs stay up and the underlay re-converges around the dead
    city (:mod:`repro.net.reroute`) — so every *other* path keeps
    answering probes and the event reads as partial degradation, never
    a probe blackout.  The probes of the affected overlay ride the
    same dead PoP as its traffic, so each episode swallows them whole:
    a PR-1 controller keeps trusting its last rosy measurement and
    sits on the corpse for the full episode, while the hardened
    controller ages the stale result out, drops the path from view,
    and moves off within its staleness bound.
    """
    gray = GrayFailure(
        link_ids=(direct_only_link(pathset),),
        window=Window(start_s=0.0, duration_s=horizon_s),
        drop_fraction=0.35,
        extra_delay_ms=40.0,
    )
    asn, city = pop_outage_target(internet, pathset)
    windows = [_w(horizon_s, start_frac, 0.10) for start_frac in (0.20, 0.38, 0.56, 0.74)]
    episodes = [
        PopOutage.for_pop(internet, asn, city, window) for window in windows
    ]
    best = best_overlay_name(pathset)
    shadows = [
        ProbeFaultEvent(window=window, fault=ProbeFaultKind.LOST, labels=(best,))
        for window in windows
    ]
    note = _reconvergence_note(internet, pathset, episodes[0])
    return ChaosScenario(
        name="pop-outage",
        description=(
            f"overlay {best}'s transit AS{asn} loses its {city} PoP in four "
            f"episodes, swallowing {best}'s probes ({note}); direct gray"
        ),
        events=[gray, *episodes],
        probe_events=shadows,
    )


#: The classic suite: scenario name -> builder(internet, pathset,
#: horizon_s).  ``repro chaos`` with no ``--scenario`` runs exactly
#: these, keeping historical outputs reproducible.
DEFAULT_SCENARIOS = {
    "as-outage": build_as_outage,
    "route-flap": build_route_flap,
    "gray-direct": build_gray_direct,
    "storm": build_storm,
    "probe-blackout": build_probe_blackout,
    "stale-probes": build_stale_probes,
    "flapping-overlay": build_flapping_overlay,
    "probe-loss": build_probe_loss,
}

#: Every known scenario, including the gray-failure detection
#: showcase (``--scenario gray-detect``) and the partial-AS-outage
#: showcase (``--scenario pop-outage``); ``--scenario all`` runs them
#: all.
SCENARIOS = {
    **DEFAULT_SCENARIOS,
    "gray-detect": build_gray_detect,
    "pop-outage": build_pop_outage,
}


def build_scenario(
    name: str, internet: Internet, pathset: PathSet, horizon_s: float
) -> ChaosScenario:
    """Build one named scenario; raises for unknown names."""
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ExperimentError(
            f"unknown chaos scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    return builder(internet, pathset, horizon_s)


def replay_instants(
    scenario: ChaosScenario, horizon_s: float, margin_frac: float = 0.02
) -> tuple[float, ...]:
    """Sample times bracketing every data-plane fault window.

    The packet-level chaos replay (``repro chaos --engine packet``)
    cannot afford to simulate the whole horizon segment by segment, so
    it samples the story instead: one quiet instant near the start,
    the midpoint of every event window (mid-episode, with the
    impairment fully applied), and a recovery instant shortly after
    each window ends.  Times are rounded to the millisecond and
    deduplicated so overlapping windows do not multiply samples.
    """
    margin = horizon_s * margin_frac
    instants = {round(margin, 3)}
    for event in scenario.events:
        window = event.window
        instants.add(round(window.start_s + window.duration_s / 2.0, 3))
        after = round(window.end_s + margin, 3)
        if after < horizon_s:
            instants.add(after)
    return tuple(sorted(instants))
