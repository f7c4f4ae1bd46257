"""Exception hierarchy for the CRONets reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch one base type.  Subsystems raise the most specific subclass
that applies; error messages carry enough context (ids, names, values)
to diagnose a failure without a debugger.

:func:`check` is the one bound check every config and constructor runs
on its numeric inputs: finite, and within the given bounds.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A builder or experiment was configured with invalid parameters."""


class TopologyError(ReproError):
    """The AS/router topology is malformed or a node is unknown."""


class RoutingError(ReproError):
    """No policy-compliant route exists between two endpoints."""


class LinkError(ReproError):
    """A link was used outside its valid operating range."""


class CloudError(ReproError):
    """Cloud-provider operations failed (unknown DC, no capacity...)."""


class ColoError(ReproError):
    """Colocation-facility operations failed (unknown facility, bad port...)."""


class BillingError(CloudError):
    """Pricing/billing inputs were invalid (negative volume, unknown tier)."""


class TunnelError(ReproError):
    """Tunnel establishment or encapsulation failed."""


class TransportError(ReproError):
    """Transport-layer simulation failed (bad window, negative RTT...)."""


class MeasurementError(ReproError):
    """A measurement tool was invoked on an unusable path or endpoint."""


class AnalysisError(ReproError):
    """Analysis-layer failure (empty samples, degenerate training set)."""


class ExperimentError(ReproError):
    """An experiment driver could not complete."""


class ControlError(ReproError):
    """The overlay control plane was misused or misconfigured."""


class PlanetLabError(ReproError):
    """PlanetLab client population errors (unknown site, empty deployment)."""


class ExecError(ReproError):
    """Sharded execution failed (bad spec, dead worker, aborted run)."""


def _bounds(gt, ge, lt, le) -> str:
    """The accepted range in words: ``positive``, ``>= 2``, ``in [0, 1)``."""
    if (gt is not None or ge is not None) and (lt is not None or le is not None):
        low = f"({gt}" if gt is not None else f"[{ge}"
        high = f"{lt})" if lt is not None else f"{le}]"
        return f"in {low}, {high}"
    pairs = ((">", gt), (">=", ge), ("<", lt), ("<=", le))
    words = [
        "positive" if op == ">" and bound == 0 else f"{op} {bound}"
        for op, bound in pairs
        if bound is not None
    ]
    return " and ".join([*words, "finite"])


def check(
    value,
    name: str,
    *,
    gt=None,
    ge=None,
    lt=None,
    le=None,
    error: type[ReproError] = ConfigError,
):
    """Return ``value`` if it is finite and meets every given bound.

    Otherwise raise ``error`` naming ``name`` and the value, e.g.
    "interval_s must be positive and finite, got nan".  ``nan`` fails
    every bound, so no caller needs a separate finiteness test.
    """
    if (
        (isinstance(value, int) or math.isfinite(value))
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return value
    raise error(f"{name} must be {_bounds(gt, ge, lt, le)}, got {value}")
