"""Internet substrate: topology, BGP policy routing, links, paths.

This package simulates the part of the paper's infrastructure that a
reproduction cannot rent: the public Internet.  It builds a seeded
AS-level topology with Gao–Rexford business relationships, computes
valley-free BGP paths, expands them to router level with hot-potato
egress selection, and models per-link capacity, propagation delay,
queuing, loss and time-varying background congestion concentrated in
the Internet core (per Akella et al. and Kang & Gligor, the works the
paper builds its motivation on).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "asn": ("ASKind", "AutonomousSystem"),
        "links": ("Link", "LinkClass"),
        "topology": (
            "Relationship",
            "ASRelation",
            "Topology",
            "TopologyConfig",
            "generate_topology",
        ),
        "bgp": ("BgpRouting", "RouteKind"),
        "path": ("RouterPath", "PathMetrics"),
        "world": ("Host", "Internet"),
    },
)
