"""Reusable diurnal curves and episodic event processes.

Factored out of :mod:`repro.net.congestion` so that *every* subsystem
with a time-of-day shape — link background load, and now the
population-scale demand engine (:mod:`repro.demand`) — shares one
implementation of:

* :class:`DiurnalCurve` — a sinusoid anchored to a local peak hour,
  the demand model's (link load evaluates the same sinusoid in
  :class:`~repro.net.fastpath.FastPath`),
* :class:`EpisodeProcess` — the seeded per-day episode sampler
  (Poisson count, uniform start, exponential duration, jittered
  severity) that :class:`~repro.net.congestion.BackgroundLoad` has
  always used for transient congestion, reused verbatim by the demand
  engine for flash crowds,
* :func:`peak_hour_for_longitude` — the longitude → local-evening-peak
  mapping.

Everything here is a pure function of (seed, time): any time point can
be queried without simulating forward, and two processes with equal
parameters produce identical schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import check
from repro.units import SECONDS_PER_HOUR

#: One simulated day, in seconds.
SECONDS_PER_DAY = 24.0 * SECONDS_PER_HOUR


@dataclass(frozen=True, slots=True)
class Episode:
    """One episode: extra intensity over a time interval."""

    start_s: float
    duration_s: float
    extra_util: float

    def active_at(self, t: float) -> bool:
        """True if the episode covers absolute time ``t`` (seconds)."""
        return self.start_s <= t < self.start_s + self.duration_s


@dataclass(frozen=True, slots=True)
class DiurnalCurve:
    """A daily sinusoid: peak at ``peak_hour``, trough 12 h later.

    ``offset`` is the additive form (``amplitude * cos(...)``,
    symmetric around zero); ``multiplier`` is the multiplicative form
    used by demand rates (``1 + offset``, clamped at zero so a deep
    trough cannot go negative).
    """

    amplitude: float
    peak_hour: float = 20.0

    def __post_init__(self) -> None:
        check(self.amplitude, "amplitude", ge=0)
        check(self.peak_hour, "peak_hour", ge=0, lt=24)

    def offset(self, t: float) -> float:
        """Additive swing at absolute time ``t``: ``amp * cos(phase)``."""
        hour = (t / SECONDS_PER_HOUR) % 24.0
        return self.amplitude * math.cos(2.0 * math.pi * (hour - self.peak_hour) / 24.0)

    def multiplier(self, t: float) -> float:
        """Multiplicative swing at ``t``: ``max(0, 1 + offset(t))``."""
        return max(0.0, 1.0 + self.offset(t))


@dataclass(slots=True)
class EpisodeProcess:
    """Seeded per-day episode sampler with lazy day-schedule caching.

    Per simulated day, a Poisson-distributed number of episodes is
    drawn; each gets a uniform start within the day, an exponential
    duration, and a severity jittered uniformly in
    ``[severity_low, severity_high] * mean_severity``.  The RNG is
    re-derived from ``(seed, day)`` so any day's schedule can be
    generated on demand, in any order, with identical results.

    This is byte-for-byte the sampler that used to live inside
    :class:`~repro.net.congestion.BackgroundLoad`; the demand engine
    reuses it for flash-crowd bursts.
    """

    rate_per_day: float
    mean_severity: float
    mean_duration_s: float = 2_700.0
    seed: int = 0
    severity_low: float = 0.5
    severity_high: float = 1.5
    _cache: dict[int, tuple[Episode, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check(self.rate_per_day, "rate_per_day", ge=0)
        check(self.mean_severity, "mean_severity", ge=0)
        check(self.mean_duration_s, "mean_duration_s", gt=0)
        check(self.severity_low, "severity_low", ge=0)
        check(self.severity_high, "severity_high", ge=self.severity_low)

    def episodes_for_day(self, day: int) -> tuple[Episode, ...]:
        """Generate (and cache) the episode schedule for one day."""
        cached = self._cache.get(day)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self.seed * 1_000_003 + day) & 0x7FFF_FFFF)
        count = int(rng.poisson(self.rate_per_day))
        episodes = []
        day_start = day * SECONDS_PER_DAY
        for _ in range(count):
            start = day_start + rng.uniform(0.0, SECONDS_PER_DAY)
            duration = float(rng.exponential(self.mean_duration_s))
            extra = float(
                rng.uniform(self.severity_low, self.severity_high) * self.mean_severity
            )
            episodes.append(Episode(start_s=start, duration_s=duration, extra_util=extra))
        result = tuple(episodes)
        self._cache[day] = result
        return result

    def extra_at(self, t: float) -> float:
        """Total extra intensity from episodes active at time ``t``.

        Episodes may spill past midnight, so the previous day's
        schedule is consulted as well.
        """
        day = int(t // SECONDS_PER_DAY)
        extra = 0.0
        for d in (day - 1, day):
            if d < 0:
                continue
            for ep in self.episodes_for_day(d):
                if ep.active_at(t):
                    extra += ep.extra_util
        return extra


def peak_hour_for_longitude(lon: float) -> float:
    """Approximate local evening peak (20:00 local) as a UTC hour.

    Load follows the population it serves; we map longitude to a UTC
    offset of ``lon / 15`` hours.
    """
    return (20.0 - lon / 15.0) % 24.0
