"""AS-level topology with Gao–Rexford business relationships.

The generator produces the three-tier commercial Internet the paper's
measurements traverse:

* a clique of Tier-1 backbones with global PoP footprints,
* regional transit providers, customers of a few Tier-1s and peering
  with each other at in-region IXP hub cities,
* stub access networks (commercial, academic — where PlanetLab clients
  sit — and content — where the Eclipse mirrors sit), customers of one
  or two regional transits.

The cloud provider's AS is added separately (see
:meth:`Topology.add_cloud_as`): multi-homed to several Tier-1s and
*aggressively peered* with transit providers at every IXP where it has
a data center — the property CRONets exploits for path diversity.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigError, TopologyError, check
from repro.geo import city as lookup_city, city_distance_km
from repro.net.asn import ASKind, AutonomousSystem
from repro.rand import RandomStreams

#: Cities hosting major Internet exchange points; interconnects prefer these.
HUB_CITIES: tuple[str, ...] = (
    "new_york",
    "washington_dc",
    "chicago",
    "dallas",
    "san_jose",
    "los_angeles",
    "seattle",
    "miami",
    "toronto",
    "amsterdam",
    "london",
    "frankfurt",
    "paris",
    "stockholm",
    "madrid",
    "tokyo",
    "hong_kong",
    "singapore",
    "seoul",
    "sydney",
    "sao_paulo",
)


class Relationship(enum.Enum):
    """Business relationship between two ASes."""

    CUSTOMER = "c2p"  # a pays b: a is customer, b is provider
    PEER = "p2p"  # settlement-free peering


@dataclass(frozen=True, slots=True)
class ASRelation:
    """A relationship edge with its physical interconnect cities.

    For ``Relationship.CUSTOMER``, ``a`` is the customer and ``b`` the
    provider.  ``interconnect_cities`` lists (city_in_a, city_in_b)
    pairs; each becomes one physical inter-AS link.
    """

    a: int
    b: int
    rel: Relationship
    interconnect_cities: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"AS{self.a} cannot relate to itself")
        if not self.interconnect_cities:
            raise TopologyError(f"relation AS{self.a}-AS{self.b} has no interconnects")


@dataclass(slots=True)
class TopologyConfig:
    """Knobs for :func:`generate_topology`.

    The defaults produce a paper-scale world (~250 ASes).  Tests use
    the ``small()`` preset.
    """

    n_tier1: int = 10
    n_transit: int = 30
    n_stub: int = 90
    n_academic: int = 60
    n_content: int = 12
    tier1_pop_count: tuple[int, int] = (10, 16)
    transit_pop_count: tuple[int, int] = (4, 8)
    transit_providers: tuple[int, int] = (1, 3)
    stub_providers: tuple[int, int] = (1, 3)
    transit_peer_prob: float = 0.45
    stub_region_weights: dict[str, float] = field(
        default_factory=lambda: {"na": 0.33, "eu": 0.34, "as": 0.18, "oc": 0.05, "sa": 0.10}
    )

    def __post_init__(self) -> None:
        # A core needs two Tier-1s; the transit mesh needs two carriers.
        check(self.n_tier1, "n_tier1", ge=2)
        check(self.n_transit, "n_transit", ge=2)
        for name in ("n_stub", "n_academic", "n_content"):
            check(getattr(self, name), name, ge=0)
        check(self.transit_peer_prob, "transit_peer_prob", ge=0, le=1)
        total = sum(self.stub_region_weights.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"stub region weights must sum to 1, got {total}")

    @classmethod
    def small(cls) -> "TopologyConfig":
        """A reduced world for unit/integration tests."""
        return cls(n_tier1=4, n_transit=10, n_stub=20, n_academic=14, n_content=6)


class Topology:
    """The AS graph: ASes, relationships, adjacency queries."""

    def __init__(self) -> None:
        self.ases: dict[int, AutonomousSystem] = {}
        self.relations: list[ASRelation] = []
        self._providers: dict[int, list[int]] = {}
        self._customers: dict[int, list[int]] = {}
        self._peers: dict[int, list[int]] = {}
        self._relation_index: dict[tuple[int, int], ASRelation] = {}
        self._next_asn = 100

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def allocate_asn(self) -> int:
        """Hand out the next unused AS number."""
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def add_as(self, autonomous_system: AutonomousSystem) -> AutonomousSystem:
        """Register an AS; validates PoP cities exist and ASN is unique."""
        if autonomous_system.asn in self.ases:
            raise TopologyError(f"duplicate ASN {autonomous_system.asn}")
        for city_name in autonomous_system.pop_cities:
            lookup_city(city_name)
        self.ases[autonomous_system.asn] = autonomous_system
        self._providers.setdefault(autonomous_system.asn, [])
        self._customers.setdefault(autonomous_system.asn, [])
        self._peers.setdefault(autonomous_system.asn, [])
        self._next_asn = max(self._next_asn, autonomous_system.asn + 1)
        return autonomous_system

    def add_relation(
        self,
        a: int,
        b: int,
        rel: Relationship,
        interconnect_cities: tuple[tuple[str, str], ...] | None = None,
    ) -> ASRelation:
        """Add a relationship edge; picks interconnect cities if not given.

        Interconnects default to up to three closest PoP-city pairs
        between the two ASes (preferring shared cities, i.e. IXPs).
        """
        if a not in self.ases or b not in self.ases:
            raise TopologyError(f"both ASes must exist before relating AS{a}-AS{b}")
        key = (min(a, b), max(a, b))
        if key in self._relation_index:
            raise TopologyError(f"relation AS{a}-AS{b} already exists")
        if interconnect_cities is None:
            interconnect_cities = self._pick_interconnects(a, b)
        relation = ASRelation(a=a, b=b, rel=rel, interconnect_cities=interconnect_cities)
        self.relations.append(relation)
        self._relation_index[key] = relation
        if rel is Relationship.CUSTOMER:
            self._providers[a].append(b)
            self._customers[b].append(a)
        else:
            self._peers[a].append(b)
            self._peers[b].append(a)
        return relation

    def _pick_interconnects(
        self, a: int, b: int, max_points: int = 3
    ) -> tuple[tuple[str, str], ...]:
        """Choose physical meet points.

        Shared cities (IXPs) come first.  Networks with footprints on
        both sides also build private interconnects at their closest
        city pairs — large networks meet at several places, which is
        what lets hot-potato egress choice differ between PoPs.
        """
        cities_a = self.ases[a].pop_cities
        cities_b = self.ases[b].pop_cities
        shared = sorted(set(cities_a) & set(cities_b))
        points: list[tuple[str, str]] = [(c, c) for c in shared[:max_points]]
        if len(points) < max_points and len(cities_a) >= 3 and len(cities_b) >= 3:
            pairs = sorted(
                itertools.product(cities_a, cities_b),
                key=lambda pair: (city_distance_km(*pair), pair),
            )
            used_a = {pa for pa, _ in points}
            used_b = {pb for _, pb in points}
            for pa, pb in pairs:
                if len(points) >= max_points:
                    break
                if pa == pb or pa in used_a or pb in used_b:
                    continue
                points.append((pa, pb))
                used_a.add(pa)
                used_b.add(pb)
        if not points:
            pairs = sorted(
                itertools.product(cities_a, cities_b),
                key=lambda pair: (city_distance_km(*pair), pair),
            )
            points.append(pairs[0])
        return tuple(points)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def providers_of(self, asn: int) -> list[int]:
        """ASes this AS buys transit from."""
        return list(self._providers.get(asn, []))

    def customers_of(self, asn: int) -> list[int]:
        """ASes buying transit from this AS."""
        return list(self._customers.get(asn, []))

    def peers_of(self, asn: int) -> list[int]:
        """Settlement-free peers of this AS."""
        return list(self._peers.get(asn, []))

    def relation_between(self, a: int, b: int) -> ASRelation:
        """The relationship edge between two ASes."""
        rel = self._relation_index.get((min(a, b), max(a, b)))
        if rel is None:
            raise TopologyError(f"no relation between AS{a} and AS{b}")
        return rel

    def ases_of_kind(self, kind: ASKind) -> list[AutonomousSystem]:
        """All ASes of a given kind, sorted by ASN."""
        return sorted((a for a in self.ases.values() if a.kind is kind), key=lambda a: a.asn)

    def is_multi_pop_transit(self, asn: int) -> bool:
        """True for ASes carrying third-party traffic from several PoPs.

        Exactly the ASes a *partial* outage story needs: take one PoP of
        a Tier-1 or regional transit with >= 2 PoPs dark and the AS
        keeps forwarding through its sibling PoPs, so BGP/IGP can
        re-converge around the dead city instead of abandoning the AS
        (:class:`~repro.faults.events.PopOutage` targeting relies on
        this; single-PoP or stub-like ASes just go entirely dark).
        """
        asys = self.ases.get(asn)
        if asys is None:
            raise TopologyError(f"unknown AS{asn}")
        return asys.kind in (ASKind.TIER1, ASKind.TRANSIT) and len(asys.pop_cities) >= 2

    def validate(self) -> None:
        """Check structural sanity: connectivity to the Tier-1 core.

        Every non-Tier-1 AS must reach a Tier-1 via a provider chain,
        otherwise BGP would leave it partitioned from parts of the
        world.
        """
        tier1 = {a.asn for a in self.ases_of_kind(ASKind.TIER1)}
        if not tier1:
            raise TopologyError("topology has no Tier-1 core")
        for asn in self.ases:
            if asn in tier1:
                continue
            seen: set[int] = set()
            frontier = [asn]
            reached = False
            while frontier and not reached:
                nxt: list[int] = []
                for x in frontier:
                    for p in self._providers.get(x, []):
                        if p in tier1:
                            reached = True
                            break
                        if p not in seen:
                            seen.add(p)
                            nxt.append(p)
                    if reached:
                        break
                frontier = nxt
            if not reached:
                raise TopologyError(f"AS{asn} has no provider chain to the Tier-1 core")

    # ------------------------------------------------------------------
    # convenience constructors used by scenario builders
    # ------------------------------------------------------------------
    def add_stub_as(
        self,
        name: str,
        kind: ASKind,
        city_name: str,
        provider_asns: list[int],
    ) -> AutonomousSystem:
        """Create a single-PoP stub AS and connect it to its providers."""
        if not kind.is_stub_like:
            raise TopologyError(f"add_stub_as only creates stub-like ASes, got {kind}")
        if not provider_asns:
            raise TopologyError(f"stub {name} needs at least one provider")
        stub = self.add_as(
            AutonomousSystem(
                asn=self.allocate_asn(), name=name, kind=kind, pop_cities=(city_name,)
            )
        )
        for provider in provider_asns:
            self.add_relation(stub.asn, provider, Relationship.CUSTOMER)
        return stub

    def add_cloud_as(
        self,
        name: str,
        dc_cities: tuple[str, ...],
        transit_tier1s: list[int],
        peer_asns: list[int],
    ) -> AutonomousSystem:
        """Add the cloud provider's AS: PoPs at its DCs, multi-homed transit
        from ``transit_tier1s`` and settlement-free peering with
        ``peer_asns`` (the aggressive IXP peering CRONets leverages)."""
        cloud = self.add_as(
            AutonomousSystem(
                asn=self.allocate_asn(), name=name, kind=ASKind.CLOUD, pop_cities=dc_cities
            )
        )
        for t1 in dict.fromkeys(transit_tier1s):
            self.add_relation(cloud.asn, t1, Relationship.CUSTOMER)
        transit_set = set(transit_tier1s)
        for peer in dict.fromkeys(peer_asns):
            if peer in transit_set:
                continue  # already a provider; don't double-relate
            self.add_relation(cloud.asn, peer, Relationship.PEER)
        return cloud

    def add_colo_as(
        self,
        name: str,
        city_name: str,
        transit_asns: list[int],
        peer_asns: list[int],
    ) -> AutonomousSystem:
        """Add one colocation facility's AS: a single PoP at an IXP hub.

        Unlike :meth:`add_cloud_as` there is no private backbone —
        the facility is one city, so traffic between two colo relays
        crosses the public transit mesh.  ``transit_asns`` is the
        facility's blended IP transit (it must include a path to the
        Tier-1 core or :meth:`validate` will reject the topology);
        ``peer_asns`` are settlement-free peers over the exchange
        fabric, which therefore must have a PoP in the same city.
        """
        if city_name not in HUB_CITIES:
            raise TopologyError(
                f"colo facility {name!r} must sit at an IXP hub city, "
                f"got {city_name!r}"
            )
        if not transit_asns:
            raise TopologyError(f"colo facility {name!r} needs at least one transit feed")
        for peer in peer_asns:
            peer_as = self.ases.get(peer)
            if peer_as is None:
                raise TopologyError(f"colo peer AS{peer} does not exist")
            if not peer_as.has_pop(city_name):
                raise TopologyError(
                    f"colo facility {name!r} cannot peer with AS{peer} "
                    f"({peer_as.name}): no PoP in {city_name!r} to cross-connect"
                )
        colo = self.add_as(
            AutonomousSystem(
                asn=self.allocate_asn(), name=name, kind=ASKind.COLO, pop_cities=(city_name,)
            )
        )
        transit_set = set(transit_asns)
        for transit in dict.fromkeys(transit_asns):
            self.add_relation(colo.asn, transit, Relationship.CUSTOMER)
        for peer in dict.fromkeys(peer_asns):
            if peer in transit_set:
                continue  # already a provider; don't double-relate
            self.add_relation(colo.asn, peer, Relationship.PEER, ((city_name, city_name),))
        return colo


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------


def _sample_pop_cities(
    rng, pool: list[str], count_range: tuple[int, int], must_include: list[str] | None = None
) -> tuple[str, ...]:
    """Sample a PoP city set from ``pool`` (deterministic given ``rng``)."""
    lo, hi = count_range
    count = int(rng.integers(lo, hi + 1))
    count = min(count, len(pool))
    chosen = list(rng.choice(pool, size=count, replace=False))
    for extra in must_include or []:
        if extra not in chosen:
            chosen.append(extra)
    return tuple(sorted(set(chosen)))


def generate_topology(config: TopologyConfig, streams: RandomStreams) -> Topology:
    """Generate a seeded three-tier AS topology per ``config``."""
    from repro.geo.cities import cities_in_region

    rng = streams.stream("topology")
    topo = Topology()

    region_hubs = {
        region: [c for c in HUB_CITIES if lookup_city(c).region == region]
        for region in ("na", "eu", "as", "oc", "sa")
    }
    region_cities = {
        region: [c.name for c in cities_in_region(region)]
        for region in ("na", "eu", "as", "oc", "sa")
    }

    # --- Tier-1 clique -------------------------------------------------
    tier1s: list[AutonomousSystem] = []
    for i in range(config.n_tier1):
        # Every Tier-1 covers all regions: a couple of hubs per region.
        pops: list[str] = []
        for region, hubs in region_hubs.items():
            if not hubs:
                continue
            take = min(len(hubs), 2 if region in ("na", "eu", "as") else 1)
            pops.extend(rng.choice(hubs, size=take, replace=False))
        extra = _sample_pop_cities(rng, list(HUB_CITIES), config.tier1_pop_count)
        pops = sorted(set(pops) | set(extra))
        tier1s.append(
            topo.add_as(
                AutonomousSystem(
                    asn=topo.allocate_asn(),
                    name=f"tier1-{i}",
                    kind=ASKind.TIER1,
                    pop_cities=tuple(pops),
                )
            )
        )
    for a, b in itertools.combinations(tier1s, 2):
        topo.add_relation(a.asn, b.asn, Relationship.PEER)

    # --- regional transit providers -------------------------------------
    transit_regions = ["na", "eu", "as", "oc", "sa"]
    transit_weights = [0.30, 0.32, 0.20, 0.08, 0.10]
    transits: list[AutonomousSystem] = []
    for i in range(config.n_transit):
        region = str(rng.choice(transit_regions, p=transit_weights))
        hubs = region_hubs[region] or list(HUB_CITIES[:1])
        must = [str(rng.choice(hubs))]
        pops = _sample_pop_cities(rng, region_cities[region], config.transit_pop_count, must)
        transit = topo.add_as(
            AutonomousSystem(
                asn=topo.allocate_asn(),
                name=f"transit-{region}-{i}",
                kind=ASKind.TRANSIT,
                pop_cities=pops,
            )
        )
        transits.append(transit)
        lo, hi = config.transit_providers
        n_providers = int(rng.integers(lo, hi + 1))
        provider_idx = rng.choice(len(tier1s), size=min(n_providers, len(tier1s)), replace=False)
        for idx in provider_idx:
            topo.add_relation(transit.asn, tier1s[int(idx)].asn, Relationship.CUSTOMER)

    # transit-transit peering within a region
    by_region: dict[str, list[AutonomousSystem]] = {}
    for transit in transits:
        region = transit.name.split("-")[1]
        by_region.setdefault(region, []).append(transit)
    for region, group in by_region.items():
        for a, b in itertools.combinations(group, 2):
            if rng.random() < config.transit_peer_prob:
                topo.add_relation(a.asn, b.asn, Relationship.PEER)

    # --- stub access networks -------------------------------------------
    def _add_generated_stub(index: int, kind: ASKind, label: str) -> None:
        regions = list(config.stub_region_weights.keys())
        weights = list(config.stub_region_weights.values())
        region = str(rng.choice(regions, p=weights))
        cities = region_cities[region]
        city_name = str(rng.choice(cities))
        candidates = by_region.get(region, []) or transits
        lo, hi = config.stub_providers
        n_providers = int(rng.integers(lo, hi + 1))
        n_providers = min(n_providers, len(candidates))
        chosen_idx = rng.choice(len(candidates), size=n_providers, replace=False)
        providers = [candidates[int(i)].asn for i in chosen_idx]
        # A minority of stubs buy transit straight from a Tier-1.
        if rng.random() < 0.15:
            providers.append(tier1s[int(rng.integers(0, len(tier1s)))].asn)
        topo.add_stub_as(f"{label}-{region}-{index}", kind, city_name, sorted(set(providers)))

    for i in range(config.n_stub):
        _add_generated_stub(i, ASKind.STUB, "stub")
    for i in range(config.n_academic):
        _add_generated_stub(i, ASKind.ACADEMIC, "edu")
    for i in range(config.n_content):
        _add_generated_stub(i, ASKind.CONTENT, "content")

    topo.validate()
    return topo
