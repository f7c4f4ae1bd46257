"""Selection-regret experiment."""

from __future__ import annotations

import math

import pytest

import repro.experiments.selection_exp as selection_exp
from repro.errors import ExperimentError
from repro.experiments.selection_exp import run_selection

BAD = (math.nan, math.inf, 0.0, -1.0)


@pytest.fixture(scope="module")
def selection():
    return run_selection(seed=19, n_pairs=4, probe_intervals_h=(4.0, 24.0))


def by_name(selection, name):
    return next(outcome for outcome in selection.outcomes if outcome.name == name)


class TestSelectionRegret:
    def test_oracle_is_the_ceiling(self, selection):
        oracle = by_name(selection, "oracle")
        assert oracle.achieved_fraction == 1.0
        for outcome in selection.outcomes:
            assert outcome.achieved_fraction <= 1.0 + 1e-9

    def test_probing_costs_bytes_mptcp_does_not(self, selection):
        assert by_name(selection, "probing(4h)").probe_overhead_mb > 0
        assert by_name(selection, "mptcp").probe_overhead_mb == 0.0

    def test_frequent_probing_costs_more(self, selection):
        frequent = by_name(selection, "probing(4h)")
        rare = by_name(selection, "probing(24h)")
        assert frequent.probe_overhead_mb > rare.probe_overhead_mb

    def test_mptcp_reflects_tracking_efficiency(self, selection):
        from repro.experiments.selection_exp import MPTCP_TRACKING_EFFICIENCY

        assert by_name(selection, "mptcp").achieved_fraction == pytest.approx(
            MPTCP_TRACKING_EFFICIENCY, abs=0.01
        )

    def test_render(self, selection):
        text = selection.render()
        assert "oracle" in text
        assert "mptcp" in text

    def test_validation(self, monkeypatch):
        # Each bad argument is rejected by name before the world is built.
        monkeypatch.setattr(selection_exp, "build_world", None)
        cases = [
            ({"n_pairs": 0}, "n_pairs"),
            ({"n_pairs": -1}, "n_pairs"),
            *[({"check_interval_h": bad}, "check_interval_h") for bad in BAD],
            *[({"probe_intervals_h": (4.0, bad)}, "probe_intervals_h") for bad in BAD],
        ]
        for kwargs, named in cases:
            with pytest.raises(ExperimentError, match=named):
                run_selection(**kwargs)
