"""Time-varying background load on links.

Each link carries a deterministic load process composed of three parts:

* a **base utilization** drawn once per link from a class-dependent
  distribution (Tier-1 interconnects run hot; access and cloud links
  run cool),
* a **diurnal** sinusoid whose phase follows the link's longitude, and
* **episodic congestion**: per simulated day, a small random number of
  episodes (start, duration, severity) — these model the "transient
  events at an intermediate ISP" the paper observed in its longitudinal
  study (Sec. IV).

The episode machinery lives in :mod:`repro.net.diurnal` (shared with
the demand engine); :class:`~repro.net.fastpath.FastPath` composes the
three parts into each link's utilization.  The process is a pure
function of (link seed, time), so any time point can be queried without
simulating forward, and results are identical across runs with the same
world seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import check
from repro.net.diurnal import (
    SECONDS_PER_DAY,
    Episode,
    EpisodeProcess,
    peak_hour_for_longitude,
)

__all__ = [
    "SECONDS_PER_DAY",
    "BackgroundLoad",
    "Episode",
    "EpisodeProcess",
    "peak_hour_for_longitude",
]


@dataclass(slots=True)
class BackgroundLoad:
    """Deterministic background utilization process for one link.

    Parameters
    ----------
    base_util:
        Long-run mean utilization in [0, 1].
    diurnal_amp:
        Peak-to-mean amplitude of the daily cycle.
    peak_hour:
        Local hour of day at which load peaks (derived from longitude).
    episode_rate_per_day:
        Mean number of congestion episodes per day (Poisson).
    episode_severity:
        Mean extra utilization added by an episode.
    seed:
        Per-link seed; combined with the day index to lazily generate
        that day's episode schedule.
    """

    base_util: float
    diurnal_amp: float = 0.08
    peak_hour: float = 20.0
    episode_rate_per_day: float = 0.5
    episode_severity: float = 0.2
    episode_mean_duration_s: float = 2_700.0
    seed: int = 0
    _episodes: EpisodeProcess = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check(self.base_util, "base_util", ge=0, le=1)
        check(self.diurnal_amp, "diurnal_amp", ge=0, le=1)
        check(self.peak_hour, "peak_hour", ge=0, lt=24)
        # The episode sampler checks the remaining knobs.
        self._episodes = EpisodeProcess(
            rate_per_day=self.episode_rate_per_day,
            mean_severity=self.episode_severity,
            mean_duration_s=self.episode_mean_duration_s,
            seed=self.seed,
        )
