"""Per-city demand models: rates, Little's law, seeded sampling."""

from __future__ import annotations

import pytest

from repro.demand.model import CityDemand, DemandModel
from repro.errors import ConfigError
from repro.net.diurnal import DiurnalCurve, EpisodeProcess


def build_model(seed: int = 7, **kwargs) -> DemandModel:
    return DemandModel.build({"london": 10, "tokyo": 4}, seed=seed, **kwargs)


class TestCityDemand:
    def test_rate_swings_with_diurnal_curve(self):
        city = CityDemand(
            city="x",
            base_qps=100.0,
            diurnal=DiurnalCurve(amplitude=0.5, peak_hour=20.0),
            flash=EpisodeProcess(rate_per_day=0.0, mean_severity=1.0, seed=1),
        )
        assert city.rate_qps(20.0 * 3600.0) == pytest.approx(150.0)
        assert city.rate_qps(8.0 * 3600.0) == pytest.approx(50.0)

    def test_littles_law_concurrency(self):
        city = CityDemand(
            city="x",
            base_qps=100.0,
            diurnal=DiurnalCurve(amplitude=0.0),
            flash=EpisodeProcess(rate_per_day=0.0, mean_severity=1.0, seed=1),
        )
        assert city.expected_concurrent(0.0, 120.0) == pytest.approx(12_000.0)

    def test_flash_crowd_multiplies_rate(self):
        flash = EpisodeProcess(rate_per_day=0.0, mean_severity=1.0, seed=1)
        from repro.net.diurnal import Episode

        flash._cache[0] = (Episode(start_s=0.0, duration_s=3_600.0, extra_util=2.0),)
        city = CityDemand(
            city="x", base_qps=100.0, diurnal=DiurnalCurve(amplitude=0.0), flash=flash
        )
        assert city.rate_qps(1_800.0) == pytest.approx(300.0)
        assert city.rate_qps(7_200.0) == pytest.approx(100.0)

    def test_negative_base_rejected(self):
        with pytest.raises(ConfigError):
            CityDemand(
                city="x",
                base_qps=-1.0,
                diurnal=DiurnalCurve(amplitude=0.0),
                flash=EpisodeProcess(rate_per_day=0.0, mean_severity=1.0, seed=1),
            )


class TestDemandModelBuild:
    def test_base_qps_scales_with_clients(self):
        model = build_model(qps_per_client=10.0)
        by_city = {c.city: c for c in model.cities}
        assert by_city["london"].base_qps == pytest.approx(100.0)
        assert by_city["tokyo"].base_qps == pytest.approx(40.0)

    def test_cities_sorted_and_zero_client_cities_dropped(self):
        model = DemandModel.build({"tokyo": 2, "london": 3, "paris": 0}, seed=1)
        assert tuple(c.city for c in model.cities) == ("london", "tokyo")

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigError):
            DemandModel.build({}, seed=1)
        with pytest.raises(ConfigError):
            DemandModel.build({"london": 0}, seed=1)

    def test_flash_seeds_differ_per_city(self):
        model = build_model(flash_rate_per_day=5.0)
        seeds = {c.flash.seed for c in model.cities}
        assert len(seeds) == len(model.cities)


class TestSampling:
    def test_same_seed_same_samples(self):
        a = build_model().sample_concurrent(3, 12_600.0, 120.0)
        b = build_model().sample_concurrent(3, 12_600.0, 120.0)
        assert a == b

    def test_samples_independent_of_query_order(self):
        model = build_model()
        forward = [model.sample_concurrent(e, e * 3_600.0, 120.0) for e in range(5)]
        fresh = build_model()
        backward = [
            fresh.sample_concurrent(e, e * 3_600.0, 120.0) for e in reversed(range(5))
        ]
        assert forward == list(reversed(backward))

    def test_different_epochs_differ(self):
        model = build_model()
        draws = {tuple(model.sample_concurrent(e, 3_600.0, 120.0).items()) for e in range(8)}
        assert len(draws) > 1

    def test_scale_zero_yields_no_flows(self):
        model = build_model()
        assert all(
            v == 0 for v in model.sample_concurrent(0, 0.0, 120.0, scale=0.0).values()
        )

    def test_poisson_mean_tracks_expectation(self):
        model = build_model(qps_per_client=100.0)
        t = 6.5 * 3_600.0
        expected = {c.city: c.expected_concurrent(t, 120.0) for c in model.cities}
        sampled = model.sample_concurrent(5, t, 120.0)
        for city, mean in expected.items():
            # Poisson sd is sqrt(mean); 5 sigma keeps this deterministic
            # test far from flaky while still pinning the scale.
            assert abs(sampled[city] - mean) < 5.0 * max(mean, 1.0) ** 0.5

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigError):
            build_model().sample_concurrent(0, 0.0, 120.0, scale=-1.0)
