"""Population-scale demand: who wants to talk, from where, how hard.

The paper measures one flow at a time, so overlay relays are
contention-free by construction.  This package models the *population*
instead:

* :mod:`repro.demand.model` — per-city open-loop arrival models:
  Poisson session arrivals, diurnal QPS curves and flash-crowd bursts
  (reusing the episode machinery of :mod:`repro.net.diurnal`),
* :mod:`repro.demand.relay` — relay-VM capacity that saturates: the
  NIC bounds bytes, the CPU bounds packets, and per-flow connection
  upkeep eats the CPU budget as concurrency grows,
* :mod:`repro.demand.aggregate` — the fluid/aggregate epoch layer:
  flow *classes* (path, count, per-flow demand) instead of per-flow
  objects, so an epoch with millions of concurrent flows costs
  O(paths), not O(flows),
* :mod:`repro.demand.engine` — ties the three together and drives the
  load-aware policies of :mod:`repro.control.policy` over a batch of
  epochs at a time.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aggregate": ("EpochAllocation", "FlowClass", "Resource", "solve_epoch"),
        "engine": ("DemandEngine", "PairRoutes"),
        "model": ("CityDemand", "DemandModel"),
        "relay": ("RelayCapacity",),
    },
)
