"""Correlated fault injection: deterministic chaos for the overlay.

The one way the reproduction schedules link outages, from a single
:class:`LinkOutage` (the availability and failover studies) to the
correlated scenarios the paper blames for the largest overlay wins
(Sec. IV): AS-level outages, BGP route flaps, gray failures,
congestion storms, and faults in the probe plane itself.  Every event
is a pure function of simulated time, so a fixed seed replays the same
chaos bit-for-bit.
"""

from repro.faults.events import (
    AsOutage,
    CongestionStorm,
    FaultEvent,
    GrayFailure,
    LinkEffect,
    LinkOutage,
    ProbeFaultEvent,
    ProbeFaultKind,
    RouteFlap,
    Window,
)
from repro.faults.injector import FaultInjector, PathFaultHistory, ProbeFaultModel
from repro.faults.scenarios import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    ChaosScenario,
    build_scenario,
)

__all__ = [
    "AsOutage",
    "ChaosScenario",
    "CongestionStorm",
    "DEFAULT_SCENARIOS",
    "FaultEvent",
    "FaultInjector",
    "GrayFailure",
    "LinkEffect",
    "LinkOutage",
    "PathFaultHistory",
    "ProbeFaultEvent",
    "ProbeFaultKind",
    "ProbeFaultModel",
    "RouteFlap",
    "SCENARIOS",
    "Window",
    "build_scenario",
]
