"""Availability under injected failures (extension experiment)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.availability import AvailabilityConfig, run_availability


@pytest.fixture(scope="module")
def availability():
    return run_availability(
        AvailabilityConfig(
            seed=17, n_pairs=5, duration_hours=12.0, outages=40, outage_duration_s=3_600.0
        )
    )


class TestAvailability:
    def test_strategy_ordering(self, availability):
        """More paths never hurt: mptcp >= static >= direct."""
        a = availability.availability()
        assert a["cronet-mptcp"] >= a["cronet-static"] >= a["direct-only"]

    def test_availability_in_unit_range(self, availability):
        for value in availability.availability().values():
            assert 0.0 <= value <= 1.0

    def test_outages_actually_injected(self, availability):
        assert availability.outages_injected == 40
        # With 40 hour-long outages in 12 h, something must go down.
        assert availability.availability()["direct-only"] < 1.0

    def test_overlay_masks_some_outages(self, availability):
        a = availability.availability()
        assert a["cronet-mptcp"] > a["direct-only"]

    def test_render(self, availability):
        text = availability.render()
        assert "availability" in text
        assert "cronet-mptcp" in text

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            AvailabilityConfig(n_pairs=0)

    # Built only, never run: each of these would hang the check loop or
    # end in a ZeroDivisionError.
    @pytest.mark.parametrize(
        "field", ["duration_hours", "check_interval_s", "outage_duration_s"]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_times_rejected(self, field, value):
        with pytest.raises(ExperimentError, match=field):
            AvailabilityConfig(**{field: value})


class TestNoFailures:
    def test_everything_up_without_outages(self):
        result = run_availability(
            AvailabilityConfig(seed=17, n_pairs=3, duration_hours=3.0, outages=0)
        )
        assert result.availability() == {
            "direct-only": 1.0,
            "cronet-static": 1.0,
            "cronet-mptcp": 1.0,
        }


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    # The default availability study pinned byte for byte: 40 random
    # outages over 24 h.  Regenerate with `python -m repro run
    # availability --seed 7` only when a change is meant to move the
    # science.
    def test_default_study_matches_committed_output(self, capsys):
        from repro.cli import main

        assert main(["run", "availability", "--seed", "7"]) == 0
        golden = (GOLDEN / "availability_seed7.txt").read_text()
        assert capsys.readouterr().out == golden
