"""Extension — single-provider vs multi-provider overlays.

CRONets as proposed rents all its nodes from one provider.  A natural
deployment question the paper leaves open: does spreading the same
node budget across *two* providers (different ASes, different transit
contracts, different peering) buy additional path diversity and
improvement?  This experiment compares, for the same endpoint pairs
and the same node count:

* ``single`` — all nodes from provider A,
* ``multi`` — half the nodes from provider A, half from provider B.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.analysis.diversity import diversity_score
from repro.analysis.tables import format_table
from repro.core.pathset import PathSet, PathType
from repro.errors import ExperimentError
from repro.experiments.scenario import build_world
from repro.tunnel.node import OverlayNode

#: Provider B's footprint (disjoint from the paper's five DCs).
SECOND_PROVIDER_CITIES: tuple[str, ...] = ("london", "seattle", "singapore", "frankfurt")


@dataclass(frozen=True, slots=True)
class MultiCloudPair:
    """One pair's outcome under both deployments."""

    src_name: str
    dst_name: str
    direct_mbps: float
    single_best_mbps: float
    multi_best_mbps: float
    single_max_diversity: float
    multi_max_diversity: float


@dataclass
class MultiCloudResult:
    """The single-vs-multi comparison across a workload."""

    pairs: list[MultiCloudPair]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ExperimentError("no pairs compared")

    def median_gain(self) -> float:
        """Median multi/single best-throughput ratio."""
        return statistics.median(
            p.multi_best_mbps / p.single_best_mbps for p in self.pairs
        )

    def mean_diversity(self) -> tuple[float, float]:
        """(single, multi) mean of per-pair max diversity scores."""
        return (
            statistics.mean(p.single_max_diversity for p in self.pairs),
            statistics.mean(p.multi_max_diversity for p in self.pairs),
        )

    def render(self) -> str:
        rows = [
            (
                f"{p.src_name}->{p.dst_name}",
                p.direct_mbps,
                p.single_best_mbps,
                p.multi_best_mbps,
                p.single_max_diversity,
                p.multi_max_diversity,
            )
            for p in self.pairs
        ]
        single_div, multi_div = self.mean_diversity()
        return "\n\n".join(
            [
                "multi-cloud — same node budget, one provider vs two",
                format_table(
                    ["pair", "direct", "single best", "multi best", "div(1)", "div(2)"],
                    rows,
                ),
                f"median multi/single throughput ratio: {self.median_gain():.2f}; "
                f"mean max diversity {single_div:.2f} -> {multi_div:.2f}",
            ]
        )


def run_multicloud(
    seed: int = 7, scale: str = "small", n_pairs: int = 8, at_hours: float = 6.0
) -> MultiCloudResult:
    """Compare deployments over a server→client workload."""
    world = build_world(
        seed=seed,
        scale=scale,
        extra_providers={"othercloud": SECOND_PROVIDER_CITIES},
    )
    assert world.extra_clouds is not None
    provider_a = world.cloud
    provider_b = world.extra_clouds["othercloud"]
    at_time = at_hours * 3_600.0

    # Same node budget: 4 nodes each way.
    single_nodes = [
        OverlayNode(host=provider_a.rent_vm(world.internet, dc).host)
        for dc in list(world.dc_cities)[:4]
    ]
    multi_nodes = [
        OverlayNode(host=provider_a.rent_vm(world.internet, dc).host)
        for dc in list(world.dc_cities)[:2]
    ] + [
        OverlayNode(host=provider_b.rent_vm(world.internet, dc).host)
        for dc in SECOND_PROVIDER_CITIES[:2]
    ]

    pairs: list[MultiCloudPair] = []
    clients = world.client_names()
    servers = world.server_names
    seen: set[tuple[str, str]] = set()
    for i in range(n_pairs):
        server = servers[i % len(servers)]
        client = clients[i % len(clients)]
        if (server, client) in seen:
            continue
        seen.add((server, client))
        single = PathSet.build(world.internet, server, client, single_nodes)
        multi = PathSet.build(world.internet, server, client, multi_nodes)
        direct_mbps = single.rate(PathType.DIRECT, "direct", at_time)
        pairs.append(
            MultiCloudPair(
                src_name=server,
                dst_name=client,
                direct_mbps=direct_mbps,
                single_best_mbps=single.best_overlay(PathType.SPLIT_OVERLAY, at_time)[1],
                multi_best_mbps=multi.best_overlay(PathType.SPLIT_OVERLAY, at_time)[1],
                single_max_diversity=max(
                    diversity_score(single.direct, o.concatenated) for o in single.options
                ),
                multi_max_diversity=max(
                    diversity_score(multi.direct, o.concatenated) for o in multi.options
                ),
            )
        )
    return MultiCloudResult(pairs=pairs)
