"""PlanetLab-like client population.

PlanetLab supplies the paper's geographically diverse clients: "over
100 PlanetLab nodes (48 in Europe, 45 in America, 14 in Asia, and 3 in
Australia)" for the web-server study and 50 for the controlled study.
Nodes live in *academic* stub ASes, but measurements against
commercial servers traverse commercial ASes (avoiding the
academic-path bias Banerjee et al. warned about).  PlanetLab's daily
outbound cap, the footnote-1 reason the paper hosts TCP senders on
cloud VMs, is not modelled.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nodes": ("PlanetLabDeployment", "PlanetLabNode", "deploy_planetlab"),
        "sites": ("CONTROLLED_DISTRIBUTION", "WEBLAB_DISTRIBUTION"),
    },
)
