"""Canonical world construction for all experiments.

``build_world`` assembles, from one seed:

* the generated commercial Internet (:mod:`repro.net`),
* the cloud provider with its data centers and peering
  (:mod:`repro.cloud`),
* Eclipse-mirror-like content servers in the paper's seven countries
  (Canada, USA, Germany, Switzerland, Japan, Korea, China — Sec. II-A),
* a PlanetLab client population with the paper's regional distribution.

Two scale presets: ``"paper"`` (the full 110-client x 10-server
campaign) and ``"small"`` (a minutes-not-hours version with the same
qualitative behaviour, used by tests and quick benches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.datacenter import PAPER_DC_CITIES
from repro.cloud.provider import CloudProvider
from repro.colo.operator import ColoOperator
from repro.core.cronet import CRONet
from repro.errors import ConfigError
from repro.net.topology import TopologyConfig, generate_topology
from repro.net.world import Internet
from repro.planetlab.nodes import PlanetLabDeployment, deploy_planetlab
from repro.planetlab.sites import WEBLAB_DISTRIBUTION, scale_distribution
from repro.rand import RandomStreams
from repro.tunnel.node import NodeMode

#: Mirror-server placements covering the paper's seven countries.
MIRROR_CITIES: tuple[str, ...] = (
    "toronto",  # Canada
    "chicago",  # USA
    "atlanta",  # USA
    "frankfurt",  # Germany
    "munich",  # Germany
    "zurich",  # Switzerland
    "osaka",  # Japan
    "seoul",  # Korea
    "beijing",  # China
    "shanghai",  # China
)


@dataclass(frozen=True, slots=True)
class ScalePreset:
    """Sizing of one world preset."""

    topology: TopologyConfig
    n_clients: int
    n_servers: int
    dc_cities: tuple[str, ...]


def _paper_preset() -> ScalePreset:
    return ScalePreset(
        topology=TopologyConfig(),
        n_clients=110,
        n_servers=10,
        dc_cities=PAPER_DC_CITIES,
    )


def _small_preset() -> ScalePreset:
    return ScalePreset(
        topology=TopologyConfig.small(),
        n_clients=12,
        n_servers=4,
        dc_cities=("washington_dc", "dallas", "amsterdam"),
    )


SCALES = {"paper": _paper_preset, "small": _small_preset}


@dataclass
class World:
    """Everything an experiment needs, built from one seed."""

    seed: int
    scale: str
    streams: RandomStreams
    internet: Internet
    cloud: CloudProvider
    clients: PlanetLabDeployment
    server_names: list[str]
    dc_cities: tuple[str, ...]
    extra_clouds: dict[str, CloudProvider] | None = None
    #: The colo operator, when the world was built with facilities
    #: (``colo_cities``); ``None`` otherwise — and the construction is
    #: then bit-for-bit the historical cloud-only world.
    colo: ColoOperator | None = None

    #: The default overlay, built on first use so every study sharing
    #: this world sees the same VMs, rented in the order the first
    #: study asked for them.
    _cronet: CRONet | None = field(default=None, init=False, repr=False, compare=False)

    def cronet(self, dc_names: list[str] | None = None, mode: NodeMode = NodeMode.FORWARD) -> CRONet:
        """Build a CRONet on this world's provider.

        Defaults to one overlay node in every data center (the paper's
        five-node deployment).  That default overlay is rented once per
        world; later calls return it without renting more VMs.
        """
        if not dc_names and mode is NodeMode.FORWARD:
            if self._cronet is None:
                self._cronet = self.cronet(list(self.dc_cities))
            return self._cronet
        return CRONet.build(
            self.internet, self.cloud, dc_names or list(self.dc_cities), mode=mode
        )

    def client_names(self) -> list[str]:
        """Host names of the PlanetLab clients."""
        return self.clients.names()


def build_world(
    seed: int,
    scale: str = "paper",
    dc_cities: tuple[str, ...] | None = None,
    n_clients: int | None = None,
    n_servers: int | None = None,
    extra_providers: dict[str, tuple[str, ...]] | None = None,
    colo_cities: tuple[str, ...] | None = None,
) -> World:
    """Build a complete, deterministic experimental world.

    ``colo_cities`` adds one colocation facility (and its AS) per named
    IXP hub city.  Omitted or empty, no colo code path runs at all: the
    world is byte-identical to one built before the substrate existed.
    Facilities deploy *after* every other AS, drawing only from the
    dedicated ``"colo"`` stream, so the cloud/mirror/client draws are
    unchanged either way.
    """
    preset_factory = SCALES.get(scale)
    if preset_factory is None:
        raise ConfigError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    preset = preset_factory()
    if dc_cities is not None:
        preset = ScalePreset(
            topology=preset.topology,
            n_clients=preset.n_clients,
            n_servers=preset.n_servers,
            dc_cities=dc_cities,
        )
    clients_wanted = n_clients if n_clients is not None else preset.n_clients
    servers_wanted = n_servers if n_servers is not None else preset.n_servers
    if servers_wanted > len(MIRROR_CITIES):
        raise ConfigError(
            f"at most {len(MIRROR_CITIES)} mirror servers available, asked {servers_wanted}"
        )

    streams = RandomStreams(seed=seed)
    topology = generate_topology(preset.topology, streams)

    # Content ASes for the mirror servers, placed in the paper's
    # countries and multihomed like real content networks.
    rng = streams.stream("scenario")
    from repro.geo import city as lookup_city
    from repro.net.asn import ASKind

    transits = topology.ases_of_kind(ASKind.TRANSIT)
    mirror_asns = []
    for i, city_name in enumerate(MIRROR_CITIES[:servers_wanted]):
        region = lookup_city(city_name).region
        in_region = [t for t in transits if lookup_city(t.pop_cities[0]).region == region]
        candidates = in_region or transits
        count = min(2, len(candidates))
        chosen = rng.choice(len(candidates), size=count, replace=False)
        providers = sorted({candidates[int(j)].asn for j in chosen})
        stub = topology.add_stub_as(f"mirror-{city_name}", ASKind.CONTENT, city_name, providers)
        mirror_asns.append(stub.asn)

    cloud = CloudProvider.deploy(topology, preset.dc_cities, streams)
    extra_clouds: dict[str, CloudProvider] = {}
    for provider_name, provider_cities in (extra_providers or {}).items():
        extra_clouds[provider_name] = CloudProvider.deploy(
            topology, provider_cities, streams, name=provider_name
        )
    colo: ColoOperator | None = None
    if colo_cities:
        colo = ColoOperator.deploy(topology, tuple(colo_cities), streams)
    internet = Internet(topology, streams)

    server_names = []
    for i, (city_name, asn) in enumerate(zip(MIRROR_CITIES, mirror_asns)):
        name = f"mirror-{city_name}"
        internet.attach_host(
            name,
            asn,
            nic_mbps=100.0,
            rwnd_bytes=4_194_304,
            kind="server",
            access_base_util=float(rng.uniform(0.10, 0.25)),
        )
        server_names.append(name)

    distribution = scale_distribution(WEBLAB_DISTRIBUTION, clients_wanted)
    clients = deploy_planetlab(internet, distribution, streams)

    return World(
        seed=seed,
        scale=scale,
        streams=streams,
        internet=internet,
        cloud=cloud,
        clients=clients,
        server_names=server_names,
        dc_cities=preset.dc_cities,
        extra_clouds=extra_clouds or None,
        colo=colo,
    )
