"""The colo operator: deploys facility ASes, racks servers, bills.

Mirrors :class:`repro.cloud.provider.CloudProvider`'s deploy / rent /
release / bill API so experiment code can hold either operator — or
both — and only ever hand :class:`~repro.colo.site.RelaySite` objects
downstream.

The deployment differs from the cloud's in exactly the ways the colo
paper cares about: every facility is its *own* single-PoP AS at an IXP
hub city (there is no private backbone tying facilities together), it
buys a blended transit feed from Tier-1s, and it peers settlement-free
over the exchange fabric with the transit networks that share the
building — peers are required to have a PoP in the facility's city.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.datacenter import PortSpeed
from repro.colo.facility import ColoFacility, validate_colo_cities
from repro.colo.pricing import ColoPricingModel
from repro.errors import ColoError, check
from repro.net.asn import ASKind
from repro.net.topology import Topology
from repro.net.world import Host, Internet
from repro.rand import RandomStreams

#: Tier-1 transit feeds per facility (blended IP transit).
DEFAULT_TRANSIT_COUNT = 2
#: Fraction of in-building transit networks each facility peers with.
#: Higher than the cloud's 0.35: peering at an exchange you already sit
#: on is a cross-connect away, which is the whole point of colo.
DEFAULT_PEERING_FRACTION = 0.75
#: Default blended-transit commit per site (Mbps).
DEFAULT_TRANSIT_COMMIT_MBPS = 100.0
#: The access hop is an in-building cross-connect: meters of fiber.
COLO_ACCESS_DELAY_MS = 0.05
COLO_ACCESS_LOSS = 1e-7
COLO_ACCESS_UTIL = 0.01


@dataclass(frozen=True, slots=True)
class ColoServer:
    """One racked bare-metal server, attached as a relay host."""

    host: Host
    facility: ColoFacility
    port_speed: PortSpeed
    cross_connects: int
    monthly_cost_usd: float

    def __post_init__(self) -> None:
        if self.host.kind != "colo_relay":
            raise ColoError(
                f"ColoServer host kind must be colo_relay, got {self.host.kind!r}"
            )
        if self.host.nic_mbps != self.port_speed.mbps:
            raise ColoError(
                f"host NIC ({self.host.nic_mbps} Mbps) does not match "
                f"port speed {self.port_speed.mbps} Mbps"
            )
        check(self.cross_connects, "cross_connects", ge=1, error=ColoError)
        check(self.monthly_cost_usd, "monthly_cost_usd", ge=0, error=ColoError)

    @property
    def name(self) -> str:
        """The server's host name."""
        return self.host.name

    @property
    def rate_limit_mbps(self) -> float:
        """Line rate of the exchange port the server is wired to."""
        return self.port_speed.mbps


@dataclass
class ColoOperator:
    """A colo tenant footprint: facilities, racked servers, the bill."""

    name: str
    facilities: dict[str, ColoFacility]
    #: Facility city -> the facility's AS number.
    site_asns: dict[str, int]
    #: Facility city -> physical attachments (transit feeds + peers).
    attachments: dict[str, int]
    pricing: ColoPricingModel = field(default_factory=ColoPricingModel)
    servers: list[ColoServer] = field(default_factory=list)
    _server_counter: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def deploy(
        cls,
        topology: Topology,
        facility_cities: tuple[str, ...],
        streams: RandomStreams,
        name: str = "ixcolo",
        transit_count: int = DEFAULT_TRANSIT_COUNT,
        peering_fraction: float = DEFAULT_PEERING_FRACTION,
    ) -> "ColoOperator":
        """Add one AS per facility to a topology (before Internet build).

        Draws only from the dedicated ``"colo"`` random stream and
        appends its ASes/relations after everything already in the
        topology, so a deployment never perturbs any other subsystem's
        draws — worlds with and without colo share every pre-existing
        link parameter.
        """
        validate_colo_cities(facility_cities)
        rng = streams.stream("colo")
        tier1s = topology.ases_of_kind(ASKind.TIER1)
        if not tier1s:
            raise ColoError("topology has no Tier-1 core to buy transit from")
        transits = topology.ases_of_kind(ASKind.TRANSIT)
        facilities: dict[str, ColoFacility] = {}
        site_asns: dict[str, int] = {}
        attachments: dict[str, int] = {}
        for city_name in facility_cities:
            # Blended transit: prefer Tier-1s with a PoP in the building's
            # city (the feed is a cross-connect), topped up from the rest.
            in_city = [a.asn for a in tier1s if a.has_pop(city_name)]
            elsewhere = [a.asn for a in tier1s if not a.has_pop(city_name)]
            count = min(transit_count, len(tier1s))
            chosen_transits = [
                in_city[int(i)]
                for i in rng.choice(len(in_city), size=min(count, len(in_city)), replace=False)
            ] if in_city else []
            top_up = count - len(chosen_transits)
            if top_up > 0:
                chosen_transits += [
                    elsewhere[int(i)]
                    for i in rng.choice(len(elsewhere), size=top_up, replace=False)
                ]
            # Exchange peering: only networks physically in the building.
            in_building = [a.asn for a in transits if a.has_pop(city_name)]
            peer_count = int(round(peering_fraction * len(in_building)))
            peer_idx = (
                rng.choice(len(in_building), size=peer_count, replace=False)
                if peer_count
                else []
            )
            peers = sorted(in_building[int(i)] for i in peer_idx)
            facility = ColoFacility(name=f"{name}-{city_name}", city_name=city_name)
            colo_as = topology.add_colo_as(
                facility.name, city_name, sorted(chosen_transits), peers
            )
            facilities[city_name] = facility
            site_asns[city_name] = colo_as.asn
            attachments[city_name] = len(set(chosen_transits)) + len(peers)
        return cls(
            name=name,
            facilities=facilities,
            site_asns=site_asns,
            attachments=attachments,
        )

    # ------------------------------------------------------------------
    def facility(self, city_name: str) -> ColoFacility:
        """Look up a facility by its city."""
        facility = self.facilities.get(city_name)
        if facility is None:
            raise ColoError(
                f"{self.name} has no facility in {city_name!r}; "
                f"available: {sorted(self.facilities)}"
            )
        return facility

    def rent_server(
        self,
        internet: Internet,
        city_name: str,
        port_speed: PortSpeed = PortSpeed.GBPS_1,
        transit_commit_mbps: float = DEFAULT_TRANSIT_COMMIT_MBPS,
        server_name: str | None = None,
    ) -> ColoServer:
        """Rack a server in a facility and attach it to the Internet.

        The access hop is an in-building cross-connect into the
        facility AS's router — essentially free in delay and loss; the
        interesting part of the path starts at the exchange.  Attaches
        with explicit access parameters (no random draws), mirroring
        :meth:`repro.cloud.provider.CloudProvider.rent_vm`.
        """
        facility = self.facility(city_name)
        self._server_counter += 1
        name = server_name or f"{self.name}-{city_name}-srv{self._server_counter}"
        host = internet.attach_host(
            name,
            self.site_asns[city_name],
            nic_mbps=port_speed.mbps,
            rwnd_bytes=4_194_304,
            kind="colo_relay",
            access_delay_ms=COLO_ACCESS_DELAY_MS,
            access_base_loss=COLO_ACCESS_LOSS,
            access_base_util=COLO_ACCESS_UTIL,
            city_name=facility.city_name,
        )
        server = ColoServer(
            host=host,
            facility=facility,
            port_speed=port_speed,
            cross_connects=self.attachments[city_name],
            monthly_cost_usd=self.pricing.site_monthly_usd(
                port_speed,
                cross_connects=self.attachments[city_name],
                transit_commit_mbps=transit_commit_mbps,
            ),
        )
        self.servers.append(server)
        return server

