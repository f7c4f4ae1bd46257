"""Correlated fault injection: deterministic chaos for the overlay.

The one way the reproduction schedules link outages, from a single
:class:`LinkOutage` (the availability and failover studies) to the
correlated scenarios the paper blames for the largest overlay wins
(Sec. IV): AS-level outages, BGP route flaps, gray failures,
congestion storms, and faults in the probe plane itself.  Every event
is a pure function of simulated time, so a fixed seed replays the same
chaos bit-for-bit.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": (
            "AsOutage",
            "CongestionStorm",
            "FaultEvent",
            "GrayFailure",
            "LinkEffect",
            "LinkOutage",
            "ProbeFaultEvent",
            "ProbeFaultKind",
            "RouteFlap",
            "Window",
        ),
        "injector": ("FaultInjector", "PathFaultHistory", "ProbeFaultModel"),
        "scenarios": (
            "DEFAULT_SCENARIOS",
            "SCENARIOS",
            "ChaosScenario",
            "build_scenario",
        ),
    },
)
