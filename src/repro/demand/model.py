"""Per-city open-loop arrival models.

Each city emits sessions at a time-varying rate (QPS): a base rate
scaled by a diurnal curve peaking in the local evening, plus
flash-crowd bursts drawn from the same seeded
:class:`~repro.net.diurnal.EpisodeProcess` the link-congestion model
uses — a flash crowd *is* a demand episode.

The model is open-loop (arrivals do not react to service quality) and
aggregate: it answers "how many concurrent flows does city C offer at
time t", never materializing individual flows.  Concurrency follows
Little's law for an M/G/infinity population (``rate * mean holding
time``); :meth:`DemandModel.sample_concurrent` draws the Poisson
realization from a seed derived per (city, epoch), so any epoch can be
sampled independently, in any order, on any worker, with identical
results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ConfigError, check
from repro.geo import city as lookup_city
from repro.net.diurnal import DiurnalCurve, EpisodeProcess, peak_hour_for_longitude


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 63-bit child seed from ``root_seed`` and a label."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True, slots=True)
class CityDemand:
    """One city's open-loop session arrival process."""

    city: str
    base_qps: float
    diurnal: DiurnalCurve
    flash: EpisodeProcess

    def __post_init__(self) -> None:
        check(self.base_qps, "base_qps", ge=0)

    def rate_qps(self, t: float) -> float:
        """Session arrival rate at absolute time ``t`` (sessions/sec).

        Base rate, swung by the diurnal multiplier, multiplied by
        ``1 + flash extra`` when a flash-crowd episode is active.
        """
        return self.base_qps * self.diurnal.multiplier(t) * (1.0 + self.flash.extra_at(t))

    def expected_concurrent(self, t: float, mean_flow_s: float) -> float:
        """Little's-law mean concurrency: ``rate(t) * mean_flow_s``."""
        if mean_flow_s <= 0:
            raise ConfigError(f"mean_flow_s must be positive, got {mean_flow_s}")
        return self.rate_qps(t) * mean_flow_s


@dataclass(frozen=True)
class DemandModel:
    """A deterministic population: one :class:`CityDemand` per city."""

    seed: int
    cities: tuple[CityDemand, ...]
    #: Initial PCG64 state of each (epoch, city) draw, filled on first
    #: use.  Every load level draws from the same state, and seeding a
    #: fresh ``default_rng`` costs several times the draw itself.
    _draw_states: dict[tuple[int, str], dict] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        names = [c.city for c in self.cities]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate cities in demand model: {names}")

    @classmethod
    def build(
        cls,
        city_clients: Mapping[str, int],
        seed: int,
        qps_per_client: float = 15.0,
        diurnal_amp: float = 0.6,
        flash_rate_per_day: float = 0.5,
        flash_severity: float = 2.0,
        flash_duration_s: float = 1_800.0,
    ) -> "DemandModel":
        """Build a population from per-city client counts.

        Each city's base QPS is ``clients * qps_per_client``; its
        diurnal peak follows its longitude (evening local time); its
        flash-crowd process is seeded per city so bursts are
        independent across cities but reproducible across runs.
        """
        if not city_clients:
            raise ConfigError("demand model needs at least one city")
        if qps_per_client <= 0:
            raise ConfigError(f"qps_per_client must be positive, got {qps_per_client}")
        cities = []
        for name in sorted(city_clients):
            count = city_clients[name]
            if count <= 0:
                continue
            lon = lookup_city(name).point.lon
            cities.append(
                CityDemand(
                    city=name,
                    base_qps=count * qps_per_client,
                    diurnal=DiurnalCurve(
                        amplitude=diurnal_amp, peak_hour=peak_hour_for_longitude(lon)
                    ),
                    flash=EpisodeProcess(
                        rate_per_day=flash_rate_per_day,
                        mean_severity=flash_severity,
                        mean_duration_s=flash_duration_s,
                        seed=_derive_seed(seed, f"flash/{name}"),
                    ),
                )
            )
        if not cities:
            raise ConfigError("demand model needs at least one city with clients")
        return cls(seed=seed, cities=tuple(cities))

    def sample_concurrent(
        self, epoch_index: int, t: float, mean_flow_s: float, scale: float = 1.0
    ) -> dict[str, int]:
        """Poisson-sampled concurrent flows per city for one epoch.

        The draw's seed derives from ``(model seed, city, epoch)``
        alone — never from sampling order — so epochs partition across
        exec workers with byte-identical results at any worker count.
        ``scale`` multiplies the offered load (the experiment's load
        knob).
        """
        if scale < 0:
            raise ConfigError(f"scale must be >= 0, got {scale}")
        out: dict[str, int] = {}
        # Each draw first loads its own state into this generator: the
        # same numbers as a fresh default_rng(seed), since a Generator
        # keeps no state outside its bit generator.
        rng = np.random.Generator(np.random.PCG64(0))
        for c in self.cities:
            mean = c.expected_concurrent(t, mean_flow_s) * scale
            key = (epoch_index, c.city)
            if key not in self._draw_states:
                seed = _derive_seed(self.seed, f"epoch/{epoch_index}/{c.city}")
                self._draw_states[key] = np.random.PCG64(seed).state
            rng.bit_generator.state = self._draw_states[key]
            out[c.city] = int(rng.poisson(mean))
        return out
