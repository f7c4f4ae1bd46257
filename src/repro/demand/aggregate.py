"""The fluid/aggregate epoch layer: cost per (path, epoch), not per flow.

:class:`~repro.transport.fluid.FluidSimulator` advances one Python
object per flow per tick — the right fidelity for a handful of MPTCP
subflows, hopeless for a population.  This module is the aggregate
layer above it: flows collapse into **classes** (same path, same
per-flow demand), a class carries a *count* (an integer that may be in
the millions), and one epoch is solved in a handful of vectorized
numpy passes over the (class, resource) incidence — the same
demand-vs-capacity fluid argument as the tick loop, solved once per
epoch instead of once per change of a window or background sample.

The solver is deterministic (fixed iteration count, pure numpy) and
its cost is O(classes x hops x iterations): independent of the flow
counts, which is what lets an epoch sustain millions of concurrent
flows without a single per-flow Python object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, check

#: Fixed-point iterations of the capped-allocation solve.  Classes
#: crossing a single bottleneck converge in one pass; chains of
#: bottlenecks converge geometrically — eight passes is plenty for
#: the path lengths overlays see.
SOLVER_ITERATIONS = 8


@dataclass(frozen=True, slots=True)
class Resource:
    """One shared capacity: a relay's effective NIC/CPU, a link, a port."""

    label: str
    capacity_mbps: float

    def __post_init__(self) -> None:
        check(self.capacity_mbps, f"capacity_mbps of resource {self.label!r}", gt=0)


@dataclass(frozen=True, slots=True)
class FlowClass:
    """``count`` identical flows over the same resource sequence.

    ``resources`` holds indices into the epoch's resource list; an
    empty tuple models a path whose bottleneck is elsewhere (the wide
    Internet absorbs it) — such a class always gets its demand.
    """

    label: str
    count: float
    per_flow_mbps: float
    resources: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check(self.count, f"count of class {self.label!r}", ge=0)
        check(self.per_flow_mbps, f"per_flow_mbps of class {self.label!r}", ge=0)

    @property
    def demand_mbps(self) -> float:
        """Aggregate offered rate of the class."""
        return self.count * self.per_flow_mbps


@dataclass
class EpochAllocation:
    """One epoch's solved allocation, per class and per resource."""

    classes: tuple[FlowClass, ...]
    resources: tuple[Resource, ...]
    #: Achieved per-flow rate per class (Mbps), aligned with ``classes``.
    per_flow_mbps: np.ndarray
    #: Offered load per resource (Mbps) — demand, before capping.
    offered_mbps: np.ndarray


def solve_rates(
    desired: np.ndarray,
    capacity: np.ndarray,
    ci: np.ndarray,
    ri: np.ndarray,
    iterations: int = SOLVER_ITERATIONS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array-level solver core behind :func:`solve_epoch`.

    ``desired`` is each class's offered rate, ``capacity`` each
    resource's; ``(ci[k], ri[k])`` is one (class, resource) incidence.
    Returns per-class rates and per-resource offered and carried load.
    Scatters run in incidence order, so resources that share no class
    (one epoch's relays against another's) solve exactly as they would
    alone: the demand engine flattens many epochs into one call.
    """
    n_classes = len(desired)
    n_resources = len(capacity)
    rate = desired.copy()
    offered = np.zeros(n_resources, dtype=np.float64)
    if n_resources:
        np.add.at(offered, ri, desired[ci])

    if ci.size:
        for _ in range(iterations):
            load = np.zeros(n_resources, dtype=np.float64)
            np.add.at(load, ri, rate[ci])
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(load > capacity, capacity / load, 1.0)
            binding = np.ones(n_classes, dtype=np.float64)
            np.minimum.at(binding, ci, scale[ri])
            candidate = np.minimum(desired, rate * binding)
            # Damping keeps chained-bottleneck iterates from ringing.
            rate = np.minimum(desired, 0.5 * (rate + candidate))
        # One final hard projection so no resource ends over capacity.
        load = np.zeros(n_resources, dtype=np.float64)
        np.add.at(load, ri, rate[ci])
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(load > capacity, capacity / load, 1.0)
        binding = np.ones(n_classes, dtype=np.float64)
        np.minimum.at(binding, ci, scale[ri])
        rate = rate * binding

    carried = np.zeros(n_resources, dtype=np.float64)
    if ci.size:
        np.add.at(carried, ri, rate[ci])
    return rate, offered, carried


def solve_epoch(
    classes: tuple[FlowClass, ...] | list[FlowClass],
    resources: tuple[Resource, ...] | list[Resource],
    iterations: int = SOLVER_ITERATIONS,
) -> EpochAllocation:
    """Solve one epoch's demand-vs-capacity allocation.

    Fixed-point iteration of the fluid layer's over-demand argument:
    compute per-resource load from current rates, derive the scale
    factor ``min(1, capacity / load)``, and cap every class at its
    most-binding resource, damped toward the fixed point.  Rates never
    exceed demand and never go negative; a class with no resources
    keeps its demand untouched.
    """
    classes = tuple(classes)
    resources = tuple(resources)
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    for cls in classes:
        for idx in cls.resources:
            if not 0 <= idx < len(resources):
                raise ConfigError(
                    f"class {cls.label!r} references resource {idx}, "
                    f"but only {len(resources)} exist"
                )

    desired = np.array([c.demand_mbps for c in classes], dtype=np.float64)
    capacity = np.array([r.capacity_mbps for r in resources], dtype=np.float64)
    # (class, resource) incidence as flat scatter indices.
    ci = np.array(
        [i for i, c in enumerate(classes) for _ in c.resources], dtype=np.intp
    )
    ri = np.array(
        [idx for c in classes for idx in c.resources], dtype=np.intp
    )
    rate, offered, _ = solve_rates(desired, capacity, ci, ri, iterations)

    counts = np.array([c.count for c in classes], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_flow = np.where(counts > 0, rate / counts, 0.0)
    return EpochAllocation(
        classes=classes,
        resources=resources,
        per_flow_mbps=per_flow,
        offered_mbps=offered,
    )
