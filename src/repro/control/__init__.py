"""Runtime overlay control plane: probing, path health, failover, metrics.

The subsystem that turns one-shot path selection into a *running*
overlay: a controller loop that probes candidate paths, tracks their
health through a hysteretic state machine, re-selects routes through
pluggable policies, and accounts for every byte and every failover in
an in-process metrics registry.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "controller": ("ControllerReport", "GoodputSample", "OverlayController"),
        "decisions": ("DecisionLog", "DecisionRecord"),
        "degradation": ("DegradationConfig", "DegradationGuard", "Quarantine"),
        "health": ("HealthConfig", "HealthTransition", "PathHealth", "PathState"),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "policy": (
            "BestPathPolicy",
            "C45RulePolicy",
            "MptcpSubflowPolicy",
            "Policy",
            "PolicyDecision",
            "StaticPolicy",
        ),
        "probes": ("ProbeConfig", "ProbeResult", "ProbeScheduler"),
    },
)
