"""Improvement-ratio statistics (the numbers the abstract quotes).

Terminology, following the paper:

* **improvement ratio** — overlay throughput over direct throughput
  (> 1 means the overlay wins),
* **improvement factor** — the mean/median of the ratios *among
  improved pairs only* is how the paper reports "average improvement
  factor of 3.27" alongside "78% improved".
* **increase ratio** — ``(T_overlay - T_direct) / T_direct`` (Fig. 11).
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.cdf import EmpiricalCDF
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class ImprovementSummary:
    """Summary of a set of overlay-vs-direct throughput ratios."""

    count: int
    fraction_improved: float
    mean_ratio: float
    median_ratio: float
    mean_factor_improved: float
    median_factor_improved: float
    fraction_at_least_25pct: float


def summarize_ratios(ratios: Sequence[float]) -> ImprovementSummary:
    """Compute the paper's summary statistics over improvement ratios."""
    if not ratios:
        raise AnalysisError("no ratios to summarize")
    if any(r < 0 for r in ratios):
        raise AnalysisError("improvement ratios cannot be negative")
    cdf = EmpiricalCDF(ratios)
    improved = [r for r in ratios if r > 1.0]
    if improved:
        mean_factor = statistics.mean(improved)
        median_factor = statistics.median(improved)
    else:
        mean_factor = 0.0
        median_factor = 0.0
    return ImprovementSummary(
        count=len(ratios),
        fraction_improved=cdf.fraction_above(1.0),
        mean_ratio=cdf.mean,
        median_ratio=cdf.median,
        mean_factor_improved=mean_factor,
        median_factor_improved=median_factor,
        fraction_at_least_25pct=cdf.fraction_above(1.25),
    )


def increase_ratio(direct_mbps: float, overlay_mbps: float) -> float:
    """Fig. 11's y-axis: ``(T_overlay - T_direct) / T_direct``."""
    if direct_mbps <= 0:
        raise AnalysisError(f"direct throughput must be positive, got {direct_mbps}")
    return (overlay_mbps - direct_mbps) / direct_mbps
