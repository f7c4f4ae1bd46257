"""E19 — cloud-VM vs colo vs mixed relay footprints, one pipeline.

"Shortcuts through Colocation Facilities" (PAPERS.md) argues overlay
relays racked in colocation facilities — attached straight at IXP
peering fabrics, with port/cross-connect pricing and bare-metal
forwarding — are a credible alternative to the paper's cloud VMs.
This study runs CRONets' full measurement pipeline over three relay
footprints built **in one world** so they compete under identical
topology, congestion, client population and demand:

* ``cloud`` — one VM per cloud data center (the paper's deployment),
* ``colo`` — one bare-metal server per colocation facility,
* ``mixed`` — both at once (policies select substrate-blind).

Per footprint the pipeline reports the paper's headline numbers:
improvement CDFs (split-overlay vs direct), diversity scores with the
end-segment location statistic, C4.5 threshold rules over RTT/loss
reductions, the overlay-vs-leased-line cost table — plus a demand
column: the win rate with the footprint's relays under population load
(:mod:`repro.demand`), where colo's higher pps budget matters.

Determinism: the per-(pair, site) measurement matrix is a pure,
RNG-free function of the frozen world snapshot, so it shards over pair
blocks via :mod:`repro.exec` with byte-identical output at any worker
count; footprints are column subsets of the same matrix.  The demand
columns reuse the demand engine's per-(seed, city, epoch) seeding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.c45 import C45Tree
from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.diversity import diversity_score, segment_location_shares
from repro.analysis.improvement import ImprovementSummary, summarize_ratios
from repro.analysis.tables import format_series, format_table
from repro.cloud.datacenter import PortSpeed
from repro.cloud.pricing import CostComparison, TrafficTier, leased_line_monthly_usd
from repro.colo.facility import DEFAULT_COLO_CITIES, validate_colo_cities
from repro.colo.site import RelaySite
from repro.control.policy import QpsWeightedPolicy
from repro.core.cronet import CRONet
from repro.core.pathset import PathSet, PathType
from repro.demand.engine import DemandEngine
from repro.demand.model import DemandModel
from repro.demand.relay import RelayCapacity
from repro.errors import ExperimentError, check
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.shard import default_shard_count, partition_indices
from repro.exec.spec import TaskSpec
from repro.experiments.classify import FEATURES
from repro.experiments.demand_exp import _city_clients, build_pair_routes, check_demand_knobs
from repro.experiments.scenario import World, build_world
from repro.geo import city as lookup_city

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.exec.runner import ExecRunner

#: The three relay footprints the study compares.
FOOTPRINTS: tuple[str, ...] = ("cloud", "colo", "mixed")

#: Diversity CDF thresholds the paper quotes (Sec. V-A).
DIVERSITY_BUCKETS = (0.38, 0.55)


@dataclass(frozen=True, slots=True)
class ColoConfig:
    """Knobs for the footprint-comparison study."""

    seed: int = 7
    scale: str = "small"
    #: Colo facility placements (IXP hub cities).  Empty tuple = no colo
    #: substrate at all; only the ``cloud`` footprint is then legal and
    #: the build path is byte-identical to the pre-colo world.
    colo_cities: tuple[str, ...] = DEFAULT_COLO_CITIES
    footprints: tuple[str, ...] = FOOTPRINTS
    #: Both substrates rent the same port speed so the comparison
    #: isolates attachment + capacity, not link sizing.
    port_speed: PortSpeed = PortSpeed.GBPS_1
    traffic: TrafficTier = TrafficTier.GB_5000
    #: Hour of day the route snapshot is taken at.
    at_hours: float = 6.0
    #: World sizing overrides (None = the scale preset's values).
    n_clients: int | None = None
    n_servers: int | None = None
    #: Demand column: offered-load multiplier and epochs to average.
    demand_level: float = 10.0
    demand_epochs: int = 6
    epoch_s: float = 3_600.0
    rounds: int = 12
    qps_per_client: float = 15.0
    flow_rate_mbps: float = 0.02
    mean_flow_s: float = 120.0

    def __post_init__(self) -> None:
        if not self.footprints:
            raise ExperimentError("colo study needs at least one footprint")
        unknown = [f for f in self.footprints if f not in FOOTPRINTS]
        if unknown:
            raise ExperimentError(
                f"unknown footprints {unknown}; choose from {list(FOOTPRINTS)}"
            )
        if len(set(self.footprints)) != len(self.footprints):
            raise ExperimentError(f"duplicate footprints: {self.footprints}")
        if self.colo_cities:
            validate_colo_cities(self.colo_cities)
        elif set(self.footprints) != {"cloud"}:
            raise ExperimentError(
                "colo/mixed footprints need at least one colo facility city"
            )
        for name in ("n_clients", "n_servers"):
            if getattr(self, name) is not None:
                check(getattr(self, name), name, ge=1, error=ExperimentError)
        check(self.demand_level, "demand_level", gt=0, error=ExperimentError)
        check(self.demand_epochs, "demand_epochs", ge=1, error=ExperimentError)
        check_demand_knobs(self)

    @property
    def at_time(self) -> float:
        """The route-snapshot instant in simulated seconds."""
        return self.at_hours * 3_600.0


# ----------------------------------------------------------------------
# world + measurement matrix
# ----------------------------------------------------------------------


def _deploy_sites(world: World, config: ColoConfig) -> list[RelaySite]:
    """Rent every relay the study will ever use, in deterministic order.

    Cloud VMs first (data-center order), then colo servers (facility
    order).  Renting is draw-free — both operators attach hosts with
    explicit access parameters — so site deployment cannot perturb any
    stream.
    """
    sites: list[RelaySite] = []
    for dc_name in world.dc_cities:
        vm = world.cloud.rent_vm(
            world.internet, dc_name, port_speed=config.port_speed, traffic=config.traffic
        )
        sites.append(RelaySite.from_vm(vm))
    if world.colo is not None:
        for city_name in config.colo_cities:
            server = world.colo.rent_server(
                world.internet, city_name, port_speed=config.port_speed
            )
            sites.append(RelaySite.from_colo(server))
    return sites


def _footprint_sites(footprint: str, sites: list[RelaySite]) -> list[RelaySite]:
    """The site subset one footprint rides (column selection)."""
    if footprint == "mixed":
        return list(sites)
    return [site for site in sites if site.substrate == footprint]


def _pair_endpoints(world: World) -> list[tuple[str, str]]:
    """(client, server) pairs in the demand layer's canonical order."""
    return [
        (client, server)
        for client in sorted(world.client_names())
        for server in sorted(world.server_names)
    ]


def _measure_pair(pathset: PathSet, at_time: float) -> dict:
    """One pair's measurement row: direct metrics + a per-site column.

    A pure, RNG-free function of the frozen world snapshot — metrics
    come from the path model, not sampled transfers — which is what
    lets shards run anywhere and merge byte-identically.  Values are
    JSON-plain (dicts/lists/floats) so cached and live payloads agree.
    """
    direct_metrics = pathset.direct.metrics(at_time)
    row: dict = {
        "direct_mbps": pathset.rate(PathType.DIRECT, "direct", at_time),
        "direct_rtt_ms": direct_metrics.rtt_ms,
        "direct_loss": direct_metrics.loss,
        "sites": {},
    }
    for option in pathset.options:
        overlay_metrics = option.concatenated.metrics(at_time)
        first, middle, last = segment_location_shares(pathset.direct, option.concatenated)
        row["sites"][option.name] = {
            "split_mbps": pathset.rate(PathType.SPLIT_OVERLAY, option.name, at_time),
            "overlay_mbps": pathset.rate(PathType.OVERLAY, option.name, at_time),
            "rtt_ms": overlay_metrics.rtt_ms,
            "loss": overlay_metrics.loss,
            "diversity": diversity_score(pathset.direct, option.concatenated),
            "segments": [first, middle, last],
        }
    return row


# ----------------------------------------------------------------------
# per-footprint aggregation
# ----------------------------------------------------------------------


@dataclass
class FootprintReport:
    """One footprint's slice of the pipeline outputs."""

    footprint: str
    site_names: list[str]
    monthly_usd: float
    improvement: ImprovementSummary
    fraction_at_least_25pct: float
    overlay_fraction_improved: float
    cdf_series: list[tuple[float, float]]
    median_rtt_ratio: float
    diversity_mean: float
    diversity_fractions: dict[float, float]
    end_segment_share: float | None
    c45_lines: list[str]
    cost_comparisons: list[CostComparison]
    demand: dict[str, float]

    @property
    def median_cost_ratio(self) -> float | None:
        """Median overlay/leased-line cost ratio over improved pairs."""
        if not self.cost_comparisons:
            return None
        ratios = sorted(c.cost_ratio for c in self.cost_comparisons)
        return ratios[(len(ratios) - 1) // 2]


def _c45_lines(features: list[list[float]], labels: list[bool]) -> list[str]:
    """Fit the C4.5 tree on a footprint's examples; render its rules.

    Degenerate (single-class) training sets get a note instead of a
    raise: a tiny footprint where every pair improves is a result, not
    an error.
    """
    if len(set(labels)) < 2:
        verdict = "improved" if labels and labels[0] else "not improved"
        return [f"C4.5: single-class training set (all {verdict}); no thresholds"]
    tree = C45Tree(FEATURES, min_samples_leaf=max(len(labels) // 50, 5), max_depth=4)
    tree.fit(features, labels)
    positive = tree.rules(label=True)
    lines = [
        f"C4.5: {len(labels)} examples, accuracy {tree.accuracy(features, labels):.1%}, "
        f"{len(positive)} positive rules"
    ]
    best: tuple[int, dict[str, float]] | None = None
    for rule in positive:
        bounds = rule.lower_bounds()
        if set(bounds) == set(FEATURES):
            if best is None or rule.support > best[0]:
                best = (rule.support, bounds)
    if best is not None:
        lines.append(
            "  combined rule: improve likely when "
            f"rtt_reduction > {best[1]['rtt_reduction']:.1%} and "
            f"loss_reduction > {best[1]['loss_reduction']:.1%}"
        )
    for rule in positive[:3]:
        conditions = " and ".join(str(c) for c in rule.conditions) or "(always)"
        lines.append(
            f"  rule: {conditions} -> improved "
            f"[support {rule.support}, confidence {rule.confidence:.0%}]"
        )
    return lines


def _demand_column(
    world: World,
    cronet: CRONet,
    footprint_sites: list[RelaySite],
    config: ColoConfig,
) -> dict[str, float]:
    """The footprint's win rate with its relays under population load.

    Same demand model for every footprint (seeded per (seed, city,
    epoch)); only the relay set differs — which is where colo's
    bare-metal pps budget shows up.
    """
    pairs = build_pair_routes(world, cronet, config.at_time)
    relays = [RelayCapacity.from_site(site) for site in footprint_sites]
    model = DemandModel.build(
        _city_clients(world), seed=config.seed, qps_per_client=config.qps_per_client
    )
    engine = DemandEngine(
        pairs=pairs,
        relays=relays,
        model=model,
        policy=QpsWeightedPolicy(),
        flow_rate_mbps=config.flow_rate_mbps,
        mean_flow_s=config.mean_flow_s,
        load_scale=config.demand_level,
        rounds=config.rounds,
    )
    epochs = engine.run(range(config.demand_epochs), config.epoch_s)
    return {
        "win_rate": sum(e["win_rate"] for e in epochs) / len(epochs),
        "peak_utilization": max(e["peak_utilization"] for e in epochs),
        "satisfied": sum(e["satisfied"] for e in epochs) / len(epochs),
    }


def _aggregate_footprint(
    footprint: str,
    sites: list[RelaySite],
    endpoints: list[tuple[str, str]],
    rows: list[dict],
    world: World,
    cronet_all: CRONet,
    config: ColoConfig,
) -> FootprintReport:
    """Fold the measurement matrix's footprint columns into E19 numbers."""
    fp_sites = _footprint_sites(footprint, sites)
    if not fp_sites:
        raise ExperimentError(f"footprint {footprint!r} has no relay sites")
    names = [site.name for site in fp_sites]
    split_ratios: list[float] = []
    overlay_wins = 0
    rtt_ratios: list[float] = []
    diversities: list[float] = []
    shares: list[tuple[float, float, float]] = []
    features: list[list[float]] = []
    labels: list[bool] = []
    comparisons: list[CostComparison] = []
    monthly = sum(site.monthly_cost_usd for site in fp_sites)
    for (client, server), row in zip(endpoints, rows):
        direct = row["direct_mbps"]
        cols = [row["sites"][name] for name in names]
        best_split = max(col["split_mbps"] for col in cols)
        best_overlay = max(col["overlay_mbps"] for col in cols)
        split_ratios.append(best_split / direct)
        if best_overlay > direct:
            overlay_wins += 1
        rtt_ratios.append(min(col["rtt_ms"] for col in cols) / row["direct_rtt_ms"])
        for col in cols:
            diversities.append(col["diversity"])
            shares.append(tuple(col["segments"]))
            rtt_reduction = (row["direct_rtt_ms"] - col["rtt_ms"]) / row["direct_rtt_ms"]
            if row["direct_loss"] > 0:
                loss_reduction = (row["direct_loss"] - col["loss"]) / row["direct_loss"]
            else:
                loss_reduction = 0.0
            features.append([rtt_reduction, loss_reduction])
            labels.append(col["split_mbps"] > direct)
        if best_split > direct:
            comparisons.append(
                CostComparison(
                    overlay_monthly_usd=monthly,
                    leased_line_monthly_usd=leased_line_monthly_usd(
                        best_split,
                        lookup_city(world.internet.host(server).city_name).point,
                        lookup_city(world.internet.host(client).city_name).point,
                    ),
                )
            )
    meaningful = [s for s in shares if sum(s) > 0]
    end_share = (
        sum(s[0] + s[2] for s in meaningful) / len(meaningful) if meaningful else None
    )
    cdf = EmpiricalCDF(split_ratios)
    return FootprintReport(
        footprint=footprint,
        site_names=names,
        monthly_usd=monthly,
        improvement=summarize_ratios(split_ratios),
        fraction_at_least_25pct=cdf.fraction_above(1.25),
        overlay_fraction_improved=overlay_wins / len(rows),
        cdf_series=cdf.series(20),
        median_rtt_ratio=EmpiricalCDF(rtt_ratios).median,
        diversity_mean=sum(diversities) / len(diversities),
        diversity_fractions={
            bucket: sum(1 for d in diversities if d >= bucket) / len(diversities)
            for bucket in DIVERSITY_BUCKETS
        },
        end_segment_share=end_share,
        c45_lines=_c45_lines(features, labels),
        cost_comparisons=comparisons,
        demand=_demand_column(world, cronet_all.subset(names), fp_sites, config),
    )


# ----------------------------------------------------------------------
# result + drivers
# ----------------------------------------------------------------------


@dataclass
class ColoResult:
    """The study's per-footprint reports plus the comparison table."""

    config: ColoConfig
    n_pairs: int
    cloud_sites: list[str]
    colo_sites: list[str]
    reports: list[FootprintReport] = field(default_factory=list)

    def report(self, footprint: str) -> FootprintReport:
        """Look up one footprint's report."""
        for candidate in self.reports:
            if candidate.footprint == footprint:
                return candidate
        raise ExperimentError(f"no report for footprint {footprint!r}")

    def render(self) -> str:
        """The study as one comparison table plus per-footprint detail."""
        lines = [
            f"colo study: {self.n_pairs} pairs, seed {self.config.seed}, "
            f"scale {self.config.scale!r}, snapshot at {self.config.at_hours:g} h",
            f"cloud sites: {', '.join(self.cloud_sites) or '(none)'}",
            f"colo sites:  {', '.join(self.colo_sites) or '(none)'}",
            "",
        ]
        rows = []
        for report in self.reports:
            ratio = report.median_cost_ratio
            rows.append(
                (
                    report.footprint,
                    str(len(report.site_names)),
                    f"{report.monthly_usd:,.0f}",
                    f"{report.improvement.fraction_improved:.3f}",
                    f"{report.improvement.median_factor_improved:.2f}",
                    f"{report.median_rtt_ratio:.3f}",
                    f"{report.diversity_fractions[DIVERSITY_BUCKETS[0]]:.3f}",
                    f"{ratio:.3f}" if ratio is not None else "n/a",
                    f"{report.demand['win_rate']:.3f}",
                )
            )
        lines.append(
            format_table(
                [
                    "footprint",
                    "sites",
                    "usd/mo",
                    "improved",
                    "med factor",
                    "med rtt ratio",
                    f"div>={DIVERSITY_BUCKETS[0]:g}",
                    "cost ratio",
                    f"win@{self.config.demand_level:g}x",
                ],
                rows,
            )
        )
        for report in self.reports:
            s = report.improvement
            lines.append("")
            lines.append(
                f"== footprint {report.footprint}: {len(report.site_names)} sites, "
                f"${report.monthly_usd:,.0f}/mo =="
            )
            lines.append(
                f"improvement (split): {s.fraction_improved:.1%} improved, "
                f"median factor {s.median_factor_improved:.2f}, "
                f"mean factor {s.mean_factor_improved:.2f}, "
                f">1.25x for {report.fraction_at_least_25pct:.1%}"
            )
            lines.append(
                f"improvement (overlay): {report.overlay_fraction_improved:.1%} improved"
            )
            lines.append(format_series(f"{report.footprint}-split-ratio", report.cdf_series))
            fractions = ", ".join(
                f">={bucket:g}: {fraction:.1%}"
                for bucket, fraction in sorted(report.diversity_fractions.items())
            )
            lines.append(f"diversity: mean {report.diversity_mean:.3f} ({fractions})")
            if report.end_segment_share is not None:
                lines.append(
                    f"common routers in end segments: {report.end_segment_share:.1%}"
                )
            lines.extend(report.c45_lines)
            ratio = report.median_cost_ratio
            if ratio is not None:
                lines.append(
                    f"cost: ${report.monthly_usd:,.0f}/mo vs leased lines, median "
                    f"ratio {ratio:.3f} over {len(report.cost_comparisons)} improved pairs"
                )
            else:
                lines.append("cost: no improved pairs to compare against leased lines")
            d = report.demand
            lines.append(
                f"demand at {self.config.demand_level:g}x: win rate {d['win_rate']:.3f}, "
                f"peak util {d['peak_utilization']:.2f}, satisfied {d['satisfied']:.3f}"
            )
        return "\n".join(lines)


def _study_inputs(
    config: ColoConfig,
) -> tuple[World, list[RelaySite], CRONet, list[tuple[str, str]], list[PathSet]]:
    """Build the one shared world, its sites, and every pair's path set."""
    world = build_world(
        seed=config.seed,
        scale=config.scale,
        n_clients=config.n_clients,
        n_servers=config.n_servers,
        colo_cities=config.colo_cities or None,
    )
    sites = _deploy_sites(world, config)
    cronet_all = CRONet.from_sites(world.internet, sites)
    endpoints = _pair_endpoints(world)
    pathsets = [cronet_all.path_set(server, client) for client, server in endpoints]
    return world, sites, cronet_all, endpoints, pathsets


def _finalize(
    config: ColoConfig,
    world: World,
    sites: list[RelaySite],
    cronet_all: CRONet,
    endpoints: list[tuple[str, str]],
    rows: list[dict],
) -> ColoResult:
    """Aggregate the merged measurement matrix into the result object."""
    result = ColoResult(
        config=config,
        n_pairs=len(endpoints),
        cloud_sites=[s.name for s in sites if s.substrate == "cloud"],
        colo_sites=[s.name for s in sites if s.substrate == "colo"],
    )
    for footprint in config.footprints:
        result.reports.append(
            _aggregate_footprint(
                footprint, sites, endpoints, rows, world, cronet_all, config
            )
        )
    return result


def run_colo(
    config: ColoConfig = ColoConfig(), runner: "ExecRunner | None" = None
) -> ColoResult:
    """Run the footprint study with the pair matrix sharded over pair blocks.

    Every row is a pure function of (config, pair index) — no RNG in
    the shard path — and blocks are a function of the pair count, so
    output is byte-identical in-process (``runner=None``) and at any
    worker count.
    """
    world, sites, cronet_all, endpoints, pathsets = _study_inputs(config)
    blocks = partition_indices(len(endpoints), default_shard_count(len(endpoints)))

    def shard_fn(block: range):
        return lambda: [_measure_pair(pathsets[i], config.at_time) for i in block]

    config_dict = dataclasses.asdict(config)
    config_dict["port_speed"] = config.port_speed.name
    config_dict["traffic"] = config.traffic.name
    spec_params = {"experiment": "colo", "config": config_dict}
    tasks = [
        ExecTask(
            spec=TaskSpec(
                kind="colo.pairs",
                seed=config.seed,
                shard_index=i,
                shard_count=len(blocks),
                params={**spec_params, "pair_start": block.start, "pair_end": block.stop},
            ),
            fn=shard_fn(block),
        )
        for i, block in enumerate(blocks)
    ]
    rows = [row for payload in run_tasks(tasks, runner, stage="colo.pairs") for row in payload]
    return _finalize(config, world, sites, cronet_all, endpoints, rows)
