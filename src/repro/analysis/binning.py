"""Attribute binning for Figs. 9 and 10.

The paper buckets direct paths by RTT (five bins) or loss rate (four
bins) and reports, per bin: the path count, the median improvement
ratio, the median absolute deviation (the error bar), and the fraction
of paths improved (the pink shade).
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import AnalysisError

#: Fig. 9's RTT bins (ms): [0,70), [70,140), [140,210), [210,280), [280,inf).
RTT_BIN_EDGES_MS: tuple[float, ...] = (0.0, 70.0, 140.0, 210.0, 280.0)

#: Fig. 10's loss bins: {0}, (0, 0.0025), [0.0025, 0.005), [0.005, inf).
LOSS_BIN_EDGES: tuple[float, ...] = (0.0, 1e-12, 0.0025, 0.005)


@dataclass(frozen=True, slots=True)
class BinStat:
    """One bar of Fig. 9/10."""

    label: str
    lower: float
    count: int
    median_ratio: float
    mad_ratio: float
    fraction_improved: float


def _bin_label(lower: float, upper: float) -> str:
    if upper == float("inf"):
        return f"[{lower:g},inf)"
    return f"[{lower:g},{upper:g})"


def bin_stats(
    attributes: Sequence[float],
    ratios: Sequence[float],
    edges: Sequence[float],
) -> list[BinStat]:
    """Bucket (attribute, ratio) pairs by attribute bin edges.

    ``edges`` are left edges; the last bin is open-ended.  Empty bins
    are returned with count 0 and NaN-free zero statistics so the
    harness can still print every bar.
    """
    if len(attributes) != len(ratios):
        raise AnalysisError(
            f"attribute/ratio length mismatch: {len(attributes)} vs {len(ratios)}"
        )
    if not attributes:
        raise AnalysisError("no samples to bin")
    if list(edges) != sorted(edges):
        raise AnalysisError(f"bin edges must be ascending, got {edges}")
    uppers = list(edges[1:]) + [float("inf")]
    bins: list[list[float]] = [[] for _ in edges]
    for attribute, ratio in zip(attributes, ratios):
        if attribute < edges[0]:
            raise AnalysisError(f"attribute {attribute} below first bin edge {edges[0]}")
        index = 0
        for i, (lo, hi) in enumerate(zip(edges, uppers)):
            if lo <= attribute < hi:
                index = i
                break
        bins[index].append(ratio)
    stats: list[BinStat] = []
    for (lo, hi), members in zip(zip(edges, uppers), bins):
        if members:
            median = statistics.median(members)
            mad = statistics.median(abs(m - median) for m in members)
            improved = sum(1 for m in members if m > 1.0) / len(members)
        else:
            median = mad = improved = 0.0
        stats.append(
            BinStat(
                label=_bin_label(lo, hi),
                lower=lo,
                count=len(members),
                median_ratio=median,
                mad_ratio=mad,
                fraction_improved=improved,
            )
        )
    return stats
