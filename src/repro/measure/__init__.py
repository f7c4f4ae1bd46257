"""Measurement tools mirroring the paper's toolchain.

* :mod:`~repro.measure.tstat` — retransmission rate and average RTT
  derived from flow statistics,
* :mod:`~repro.measure.traceroute` — the router-level path,
* :mod:`~repro.measure.runner` — batched measurement campaigns.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tstat": ("TstatReport", "tstat"),
        "traceroute": ("TracerouteHop", "traceroute"),
        "runner": ("CampaignSummary", "MeasurementCampaign", "Sample", "TaskCounts"),
    },
)
