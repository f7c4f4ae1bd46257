"""Colocation-facility relays: the second overlay substrate.

"Shortcuts through Colocation Facilities" (PAPERS.md) argues relays in
colo facilities — racked servers cross-connected straight into an IXP's
peering fabric — can match or beat cloud-VM relays, with a completely
different attachment and cost model:

* **attachment** — each facility is its own single-PoP AS *at* an IXP
  hub city (:data:`repro.net.topology.HUB_CITIES`); there is no private
  inter-DC backbone, so traffic between two colo relays crosses the
  public transit mesh like everyone else's,
* **pricing** — you pay for rack space/power, an exchange port, and
  per-attachment cross-connects (:class:`~repro.colo.pricing.ColoPricingModel`)
  instead of a monthly VM rental,
* **capacity** — bare metal forwards at a much higher packets-per-second
  budget than the paper's single-core VMs.

:class:`~repro.colo.operator.ColoOperator` mirrors
:class:`repro.cloud.provider.CloudProvider` (deploy / rent / release /
bill), and :class:`~repro.colo.site.RelaySite` is the substrate-generic
seam: overlays, policies, and the demand engine consume sites without
knowing which substrate is underneath.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "facility": ("ColoFacility", "DEFAULT_COLO_CITIES"),
        "operator": ("ColoOperator", "ColoServer"),
        "pricing": ("ColoPricingModel",),
        "site": ("COLO_CPU_PPS", "RelaySite"),
    },
)
