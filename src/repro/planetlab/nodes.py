"""PlanetLab nodes: client hosts in academic ASes."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanetLabError
from repro.geo import city as lookup_city
from repro.net.asn import ASKind
from repro.net.world import Host, Internet
from repro.rand import RandomStreams


@dataclass
class PlanetLabNode:
    """One PlanetLab client."""

    host: Host

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def region(self) -> str:
        """The node's continent tag."""
        return lookup_city(self.host.city_name).region


@dataclass
class PlanetLabDeployment:
    """A deployed set of PlanetLab nodes."""

    nodes: list[PlanetLabNode]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise PlanetLabError("deployment has no nodes")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def names(self) -> list[str]:
        """Host names of all nodes, in deployment order."""
        return [node.name for node in self.nodes]


def deploy_planetlab(
    internet: Internet,
    distribution: dict[str, int],
    streams: RandomStreams,
    name_prefix: str = "pl",
) -> PlanetLabDeployment:
    """Attach PlanetLab nodes to academic ASes per a regional plan.

    Each node lands in an academic stub AS in the right region (reusing
    ASes round-robin when a region has fewer academic ASes than nodes).
    Node NICs are 100 Mbps — PlanetLab sites of the era were well
    connected — but receive windows are heterogeneous, reflecting the
    mixed tuning the paper's clients exhibited.
    """
    rng = streams.stream("planetlab")
    academic = internet.topology.ases_of_kind(ASKind.ACADEMIC)
    if not academic:
        raise PlanetLabError("topology has no academic ASes to host PlanetLab nodes")
    by_region: dict[str, list] = {}
    for asys in academic:
        region = lookup_city(asys.pop_cities[0]).region
        by_region.setdefault(region, []).append(asys)

    nodes: list[PlanetLabNode] = []
    counter = 0
    for region, count in sorted(distribution.items()):
        candidates = by_region.get(region)
        if count > 0 and not candidates:
            # Fall back to any academic AS rather than failing the
            # whole deployment over one under-provisioned region.
            candidates = academic
        for i in range(count):
            asys = candidates[i % len(candidates)]
            # Log-uniform receive windows: 128 KB .. 4 MB.
            rwnd = int(2 ** rng.uniform(17.0, 22.0))
            host = internet.attach_host(
                f"{name_prefix}-{region}-{counter}",
                asys.asn,
                nic_mbps=100.0,
                rwnd_bytes=rwnd,
                kind="planetlab",
            )
            nodes.append(PlanetLabNode(host=host))
            counter += 1
    return PlanetLabDeployment(nodes=nodes)
