"""Selection-regret experiment."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.selection_exp import run_selection


@pytest.fixture(scope="module")
def selection():
    return run_selection(seed=19, n_pairs=4, probe_intervals_h=(4.0, 24.0))


class TestSelectionRegret:
    def test_oracle_is_the_ceiling(self, selection):
        oracle = selection.by_name("oracle")
        assert oracle.achieved_fraction == 1.0
        for outcome in selection.outcomes:
            assert outcome.achieved_fraction <= 1.0 + 1e-9

    def test_probing_costs_bytes_mptcp_does_not(self, selection):
        assert selection.by_name("probing(4h)").probe_overhead_mb > 0
        assert selection.by_name("mptcp").probe_overhead_mb == 0.0

    def test_frequent_probing_costs_more(self, selection):
        frequent = selection.by_name("probing(4h)")
        rare = selection.by_name("probing(24h)")
        assert frequent.probe_overhead_mb > rare.probe_overhead_mb

    def test_mptcp_reflects_tracking_efficiency(self, selection):
        from repro.experiments.selection_exp import MPTCP_TRACKING_EFFICIENCY

        assert selection.by_name("mptcp").achieved_fraction == pytest.approx(
            MPTCP_TRACKING_EFFICIENCY, abs=0.01
        )

    def test_render(self, selection):
        text = selection.render()
        assert "oracle" in text
        assert "mptcp" in text

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_selection(n_pairs=0)

    def test_unknown_strategy_lookup(self, selection):
        with pytest.raises(ExperimentError):
            selection.by_name("carrier-pigeon")

