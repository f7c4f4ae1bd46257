"""E1 — the real-life web server experiment (Sec. II-A / III-A, Fig. 2).

PlanetLab clients download a 100 MB file from Eclipse-mirror-like
servers, directly and through each of the five overlay nodes (plain
tunnel and split-TCP).  The result is Fig. 2: CDFs of the
max-overlay-to-direct throughput ratio for both overlay modes.

Paper numbers to compare against: plain overlay improves 49 % of pairs
(mean factor 1.29); split-overlay improves 78 % (mean 3.27, median
1.67) with >= 25 % gain for 67 % of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.improvement import ImprovementSummary, summarize_ratios
from repro.analysis.tables import format_series, format_table
from repro.core.measure_plan import PathSetBatch
from repro.errors import ExperimentError, check
from repro.experiments.scenario import World, build_world


@dataclass(frozen=True, slots=True)
class WeblabConfig:
    """Knobs for the web-server campaign."""

    seed: int = 7
    scale: str = "paper"
    n_clients: int | None = None
    n_servers: int | None = None
    at_hours: float = 6.0

    def __post_init__(self) -> None:
        for name in ("n_clients", "n_servers"):
            if getattr(self, name) is not None:
                check(getattr(self, name), name, ge=1, error=ExperimentError)
        check(self.at_hours, "at_hours", ge=0, error=ExperimentError)


@dataclass
class PairRecord:
    """One (server, client) pair's outcomes across the path types."""

    server: str
    client: str
    server_city: str
    client_city: str
    direct_mbps: float
    best_overlay_mbps: float
    best_split_mbps: float

    @property
    def overlay_ratio(self) -> float:
        return self.best_overlay_mbps / self.direct_mbps

    @property
    def split_ratio(self) -> float:
        return self.best_split_mbps / self.direct_mbps


@dataclass
class WeblabResult:
    """Everything Fig. 2 plots, plus the quoted statistics."""

    config: WeblabConfig
    pairs: list[PairRecord]
    overlay_summary: ImprovementSummary = field(init=False)
    split_summary: ImprovementSummary = field(init=False)

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ExperimentError("weblab produced no pairs")
        self.overlay_summary = summarize_ratios([p.overlay_ratio for p in self.pairs])
        self.split_summary = summarize_ratios([p.split_ratio for p in self.pairs])

    @property
    def total_paths_observed(self) -> int:
        """Direct + 5 overlay paths per pair (the paper's 6,600)."""
        overlays_per_pair = 5 if self.config.scale == "paper" else 3
        return len(self.pairs) * (1 + overlays_per_pair)

    def overlay_cdf(self) -> EmpiricalCDF:
        """Fig. 2's solid curve (plain overlay ratio)."""
        return EmpiricalCDF([p.overlay_ratio for p in self.pairs])

    def split_cdf(self) -> EmpiricalCDF:
        """Fig. 2's dashed curve (split-overlay ratio)."""
        return EmpiricalCDF([p.split_ratio for p in self.pairs])

    def render(self, series_points: int = 20) -> str:
        """Fig. 2 as printable series + the paper's headline table."""
        rows = [
            (
                "overlay",
                self.overlay_summary.fraction_improved,
                self.overlay_summary.mean_factor_improved,
                self.overlay_summary.median_factor_improved,
                self.overlay_summary.fraction_at_least_25pct,
            ),
            (
                "split-overlay",
                self.split_summary.fraction_improved,
                self.split_summary.mean_factor_improved,
                self.split_summary.median_factor_improved,
                self.split_summary.fraction_at_least_25pct,
            ),
        ]
        parts = [
            f"Fig. 2 — {len(self.pairs)} pairs, {self.total_paths_observed} observed paths",
            format_table(
                ["mode", "frac improved", "mean factor", "median factor", "frac >=1.25x"],
                rows,
            ),
            format_series("fig2/overlay", self.overlay_cdf().series(series_points)),
            format_series("fig2/split-overlay", self.split_cdf().series(series_points)),
        ]
        return "\n\n".join(parts)


def run_weblab(config: WeblabConfig = WeblabConfig(), world: World | None = None) -> WeblabResult:
    """Run the full campaign: every client downloads from every server.

    The sender is the web server (the client downloads), so each pair's
    path set runs server→client, and the client's heterogeneous receive
    window applies — as it did on real PlanetLab nodes.
    """
    if world is None:
        world = build_world(
            seed=config.seed,
            scale=config.scale,
            n_clients=config.n_clients,
            n_servers=config.n_servers,
        )
    cronet = world.cronet()
    at_time = config.at_hours * 3_600.0
    pathsets = [
        cronet.path_set(server, client)
        for client in world.client_names()
        for server in world.server_names
    ]
    # Ratios compare sustained rates on an equal footing; the 100 MB
    # download is long enough that slow start washes out identically
    # across the path types.  The whole study is one instant, so every
    # pair is measured in one batch.
    samples = PathSetBatch(pathsets).sample(at_time)
    host = world.internet.host
    pairs = [
        PairRecord(
            server=pathset.src_name,
            client=pathset.dst_name,
            server_city=host(pathset.src_name).city_name,
            client_city=host(pathset.dst_name).city_name,
            direct_mbps=sample.direct.rate_mbps,
            best_overlay_mbps=max(leg.rate_mbps for leg in sample.overlay.values()),
            best_split_mbps=max(leg.rate_mbps for leg in sample.split.values()),
        )
        for pathset, sample in zip(pathsets, samples)
    ]
    return WeblabResult(config=config, pairs=pairs)
