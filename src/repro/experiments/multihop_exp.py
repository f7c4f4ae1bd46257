"""Extension — one-hop vs multi-hop overlay paths (answers Sec. VII-B).

For a set of endpoint pairs, compare the best one-hop split-overlay
path against the best two-hop path (whose middle segment rides the
cloud's private backbone, split at both relays).  Reports how often
the second hop pays for itself and by how much.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.multihop import MultiHopPathSet
from repro.errors import ExperimentError
from repro.experiments.scenario import World, build_world


@dataclass(frozen=True, slots=True)
class MultiHopRecord:
    """One pair's best throughput per relay count."""

    src_name: str
    dst_name: str
    direct_mbps: float
    best_one_hop_mbps: float
    best_two_hop_mbps: float
    two_hop_uses_backbone: bool

    @property
    def second_hop_gain(self) -> float:
        """Relative gain of allowing a second relay."""
        return self.best_two_hop_mbps / self.best_one_hop_mbps - 1.0


@dataclass
class MultiHopResult:
    """The Sec. VII-B comparison across a workload."""

    records: list[MultiHopRecord]

    def __post_init__(self) -> None:
        if not self.records:
            raise ExperimentError("no pairs compared")

    def fraction_two_hop_wins(self, min_gain: float = 0.05) -> float:
        """How often the second relay adds >= ``min_gain`` throughput."""
        wins = sum(1 for r in self.records if r.second_hop_gain >= min_gain)
        return wins / len(self.records)

    def median_second_hop_gain(self) -> float:
        return statistics.median(r.second_hop_gain for r in self.records)

    def render(self) -> str:
        rows = [
            (
                f"{r.src_name}->{r.dst_name}",
                r.direct_mbps,
                r.best_one_hop_mbps,
                r.best_two_hop_mbps,
                f"{r.second_hop_gain:+.1%}",
            )
            for r in self.records
        ]
        return "\n\n".join(
            [
                "Sec. VII-B — one-hop vs two-hop overlay paths (split-TCP everywhere)",
                format_table(
                    ["pair", "direct", "best 1-hop", "best 2-hop", "2nd-hop gain"], rows
                ),
                f"two-hop wins (>= 5% gain) on {self.fraction_two_hop_wins():.0%} "
                f"of pairs; median second-hop gain "
                f"{self.median_second_hop_gain():+.1%}",
            ]
        )


def run_multihop(
    seed: int = 7,
    scale: str = "small",
    n_pairs: int = 10,
    at_hours: float = 6.0,
    world: World | None = None,
) -> MultiHopResult:
    """Compare hop counts across a workload of server→client pairs.

    ``world`` shares an already-built ``(seed, scale)`` world; by
    default the study builds its own.
    """
    if world is None:
        world = build_world(seed=seed, scale=scale)
    cronet = world.cronet()
    at_time = at_hours * 3_600.0
    records: list[MultiHopRecord] = []
    clients = world.client_names()
    servers = world.server_names
    for i in range(n_pairs):
        server = servers[i % len(servers)]
        client = clients[i % len(clients)]
        if (server, client) in {(r.src_name, r.dst_name) for r in records}:
            continue
        multihop = MultiHopPathSet.build(
            world.internet, server, client, cronet.nodes, max_hops=2
        )
        best = multihop.best_by_hop_count(at_time)
        direct = world.internet.resolve_path(server, client)
        from repro.transport.tcp import TcpConnection
        from repro.transport.throughput import TcpParams

        direct_mbps = TcpConnection(
            direct,
            TcpParams(rwnd_bytes=world.internet.host(client).rwnd_bytes),
        ).throughput_at(at_time)
        two_hop_name = best[2][0]
        winning = next(
            o for o in multihop.options if o.hop_count == 2 and o.name == two_hop_name
        )
        records.append(
            MultiHopRecord(
                src_name=server,
                dst_name=client,
                direct_mbps=direct_mbps,
                best_one_hop_mbps=best[1][1],
                best_two_hop_mbps=best[2][1],
                two_hop_uses_backbone=multihop.uses_backbone(winning),
            )
        )
    return MultiHopResult(records=records)
