"""The scalar link-metric walk: a frozen, test-only reference.

:class:`repro.net.fastpath.FastPath` evaluates every link metric as a
vector over the links some path reads, and must still compute exactly
what this per-link walk computes: background utilization from the
link's diurnal sinusoid and episode overlay, then queuing delay, loss,
bulk loss and available bandwidth from it, folded along a path in link
order.  The functions below are the ``Link``, ``BackgroundLoad``,
``DiurnalCurve.offset`` and ``RouterPath`` methods the mirror replaced,
verbatim but for taking the object as their first argument.

:func:`object_mode` routes every link-metric read of ``src/`` through
this walk.  The study identity suite (``tests/test_fastpath_identity.py``),
the twin properties (``tests/test_twin_properties.py``), the fold tests
and ``scripts/bench_record.py --area net`` compare against it.

Do not optimise or refactor this module: it is the definition of the
mirror's behaviour.  Only the link constants, the metric records and
the classes :func:`object_mode` patches are shared with ``src/``.
"""

from __future__ import annotations

import contextlib
import math

from repro.errors import ConfigError
from repro.net.fastpath import LegBatch
from repro.net.links import LOSS_KNEE, MAX_CONGESTION_LOSS, MIN_FAIR_SHARE, QUEUE_KNEE
from repro.net.path import HopMetrics, LegMetrics, PathMetrics, RouterPath
from repro.units import SECONDS_PER_HOUR


# ----------------------------------------------------------------------
# background load (BackgroundLoad.utilization and DiurnalCurve.offset)
# ----------------------------------------------------------------------
def diurnal_offset(load, t: float) -> float:
    """Additive swing at absolute time ``t``: ``amp * cos(phase)``."""
    hour = (t / SECONDS_PER_HOUR) % 24.0
    return load.diurnal_amp * math.cos(2.0 * math.pi * (hour - load.peak_hour) / 24.0)


def background_utilization(load, t: float) -> float:
    """Utilization of the link at absolute time ``t`` (seconds)."""
    if t < 0:
        raise ConfigError(f"time must be >= 0, got {t}")
    util = load.base_util + diurnal_offset(load, t) + load._episodes.extra_at(t)
    return min(max(util, 0.0), 0.995)


# ----------------------------------------------------------------------
# per-link metrics (the Link methods)
# ----------------------------------------------------------------------
def utilization(link, t: float) -> float:
    """Background utilization at time ``t`` (0 when failed: no traffic)."""
    if link.failed:
        return 0.0
    return min(background_utilization(link.load, t) + link.util_surge, 1.0)


def queuing_delay_ms(link, t: float) -> float:
    """One-way queuing delay from background load at time ``t``.

    Routers keep their buffers (sized to ``max_queue_ms`` worth of
    line rate) mostly empty below :data:`QUEUE_KNEE` utilization and
    fill them quadratically as load approaches saturation — the
    standing-queue behaviour congested core links exhibit.
    """
    u = utilization(link, t)
    if u <= QUEUE_KNEE:
        return 0.0
    fill = (u - QUEUE_KNEE) / (1.0 - QUEUE_KNEE)
    return link.max_queue_ms * fill * fill


def loss(link, t: float) -> float:
    """Packet loss fraction at time ``t``.

    Congestion loss grows quadratically past :data:`LOSS_KNEE`,
    reaching :data:`MAX_CONGESTION_LOSS` at full utilization.
    """
    if link.failed:
        return 1.0
    u = utilization(link, t)
    congestion = 0.0
    if u > LOSS_KNEE:
        severity = (u - LOSS_KNEE) / (1.0 - LOSS_KNEE)
        congestion = MAX_CONGESTION_LOSS * severity * severity
    clean = min(link.base_loss + congestion, 1.0)
    if link.extra_loss <= 0.0:
        return clean
    # Gray-failure drops are independent of congestion drops.
    return min(1.0 - (1.0 - clean) * (1.0 - link.extra_loss), 1.0)


def bulk_loss(link, t: float) -> float:
    """Loss fraction full-size data segments see at time ``t``.

    Equals :func:`loss` plus the bulk-only silent drop (independent
    processes).  Ping probes read :func:`loss`; transfers pay this.
    """
    visible = loss(link, t)
    if link.bulk_extra_loss <= 0.0:
        return visible
    return min(1.0 - (1.0 - visible) * (1.0 - link.bulk_extra_loss), 1.0)


def available_bw_mbps(link, t: float) -> float:
    """Bandwidth a new persistent flow can expect to claim at ``t``.

    Headroom ``(1 - u) * capacity``, floored at a minimal fair share
    — TCP on a saturated link still pushes background traffic aside
    a little rather than starving entirely.
    """
    if link.failed:
        return 0.0
    headroom = (1.0 - utilization(link, t)) * link.capacity_mbps
    return max(headroom, MIN_FAIR_SHARE * link.capacity_mbps)


def one_way_delay_ms(link, t: float) -> float:
    """Propagation plus queuing plus impairment delay at time ``t``."""
    return link.prop_delay_ms + queuing_delay_ms(link, t) + link.extra_delay_ms


# ----------------------------------------------------------------------
# per-path walks (RouterPath.metrics, is_alive and the per-hop reads)
# ----------------------------------------------------------------------
def _walk(links, t: float) -> PathMetrics:
    one_way = 0.0
    survive = 1.0
    survive_bulk = 1.0
    avail = float("inf")
    capacity = float("inf")
    for link in links:
        one_way += one_way_delay_ms(link, t)
        survive *= 1.0 - loss(link, t)
        survive_bulk *= 1.0 - bulk_loss(link, t)
        avail = min(avail, available_bw_mbps(link, t))
        capacity = min(capacity, link.capacity_mbps)
    return PathMetrics(
        rtt_ms=2.0 * one_way,
        loss=1.0 - survive,
        available_bw_mbps=avail,
        capacity_mbps=capacity,
        bulk_loss=1.0 - survive_bulk,
    )


def path_metrics(path: RouterPath, t: float) -> PathMetrics:
    """Aggregate path metrics at absolute time ``t`` (seconds)."""
    return _walk(path.links, t)


def path_alive(path: RouterPath) -> bool:
    """False if any constituent link has failed."""
    return not any(link.failed for link in path.links)


def hop_metrics(path: RouterPath, t: float) -> HopMetrics:
    """Each link's metrics at ``t``, in the path's link order."""
    return HopMetrics(
        *(
            [metric(link, t) for link in path.links]
            for metric in (one_way_delay_ms, loss, bulk_loss, available_bw_mbps, utilization)
        )
    )


def leg_metrics(batch: LegBatch, t: float) -> LegMetrics:
    """Every leg's metrics at ``t``: each leg's segments walked end to end."""
    return LegMetrics.stack(
        [_walk([link for segment in leg for link in segment.links], t) for leg in batch.legs]
    )


@contextlib.contextmanager
def object_mode():
    """Route every link-metric read in ``src/`` through the scalar walk.

    Patches the four entry points the mirror serves (path metrics,
    liveness, per-hop reads and batched legs) for the duration of the
    block.  Worlds keep building their mirror; only its answers are
    replaced.  Exec workers forked inside the block inherit the patch.
    """
    patches = {
        (RouterPath, "metrics"): path_metrics,
        (RouterPath, "is_alive"): path_alive,
        (RouterPath, "hop_metrics"): hop_metrics,
        (LegBatch, "metrics"): leg_metrics,
    }
    saved = {(owner, name): owner.__dict__[name] for owner, name in patches}
    for (owner, name), walk in patches.items():
        setattr(owner, name, walk)
    try:
        yield
    finally:
        for (owner, name), method in saved.items():
            setattr(owner, name, method)
