"""Analysis toolkit: CDFs, improvement statistics, path diversity,
attribute binning and the C4.5 decision tree of Sec. V."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cdf": ("EmpiricalCDF",),
        "improvement": ("ImprovementSummary", "summarize_ratios"),
        "diversity": ("diversity_score", "segment_location_shares"),
        "binning": ("BinStat", "bin_stats"),
        "c45": ("C45Tree", "DecisionRule"),
        "tables": ("format_table", "format_series"),
    },
)
