"""The cloud provider substrate (an IBM-Softlayer-like provider).

Models the four trends CRONets leverages (Sec. I):

1. global footprint — data centers at many cities,
2. a well-provisioned private inter-DC backbone,
3. aggressive peering with diverse ISPs at IXPs,
4. cheap rentable VMs with 100 Mbps virtual NICs (~$20/month).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "datacenter": ("DataCenter", "PortSpeed"),
        "provider": ("CloudProvider",),
        "vm": ("VirtualServer",),
        "pricing": (
            "PricingModel",
            "TrafficTier",
            "leased_line_monthly_usd",
            "overlay_vs_leased_line",
        ),
    },
)
