"""End-to-end experiment drivers at small scale.

These are the integration tests: each driver must run, produce the
paper's artifact, and exhibit the qualitative shape the paper reports
(who wins, direction of trends) — absolute numbers are checked by the
benchmark harness at larger scale.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments import build_world
from repro.experiments.classify import run_classify
from repro.experiments.controlled import ControlledConfig, ControlledResult, run_controlled
from repro.experiments.cost import run_cost
from repro.experiments.diversity_exp import run_diversity
from repro.experiments.factors import run_factors
from repro.experiments.longitudinal import run_longitudinal
from repro.experiments.weblab import WeblabConfig, run_weblab


@pytest.fixture(scope="module")
def small_campaign():
    """One controlled campaign shared by the dependent-analysis tests."""
    return run_controlled(ControlledConfig(seed=11, scale="small"))


class TestWorldBuilder:
    def test_small_world_shape(self):
        world = build_world(seed=3, scale="small")
        assert len(world.client_names()) == 12
        assert len(world.server_names) == 4
        assert len(world.dc_cities) == 3

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            build_world(seed=3, scale="galactic")

    def test_deterministic(self):
        w1 = build_world(seed=3, scale="small")
        w2 = build_world(seed=3, scale="small")
        assert w1.server_names == w2.server_names
        assert w1.client_names() == w2.client_names()

    def test_overlay_build_loads_no_engine(self):
        # A world and its overlay need neither networkx nor the demand,
        # control or fault machinery; a fresh interpreter proves none
        # of them is imported along the way.
        import repro

        probe = (
            "import sys\n"
            "from repro.experiments.scenario import build_world\n"
            "build_world(7, 'small').cronet()\n"
            "print(' '.join(sorted(set(sys.argv[1:]) & set(sys.modules))))\n"
        )
        heavy = [
            "networkx",
            "repro.demand.engine",
            "repro.control.controller",
            "repro.faults.injector",
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", probe, *heavy],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == []

    def test_servers_in_paper_countries(self):
        world = build_world(seed=3, scale="small")
        countries = set()
        from repro.geo import city

        for name in world.server_names:
            countries.add(city(world.internet.host(name).city_name).country)
        assert countries <= {"CA", "US", "DE", "CH", "JP", "KR", "CN"}


class TestSharedWorld:
    # One world serves every study of a (seed, scale) in the report:
    # the default overlay is built once, and no study's result depends
    # on what another attached first.
    def test_second_cronet_rents_no_vm(self):
        world = build_world(seed=3, scale="small")
        first = world.cronet()
        hosts = dict(world.internet.hosts)
        assert world.cronet() is first
        assert world.internet.hosts == hosts

    def test_studies_agree_on_fresh_and_shared_world(self):
        from repro.experiments.multihop_exp import run_multihop

        config = WeblabConfig(seed=7, scale="small")
        shared = build_world(seed=7, scale="small")
        run_controlled(ControlledConfig(seed=7, scale="small"), world=shared)
        assert any(name.startswith("ctl-") for name in shared.internet.hosts)
        assert run_weblab(config, world=shared).pairs == run_weblab(config).pairs
        assert (
            run_multihop(seed=7, scale="small", world=shared).records
            == run_multihop(seed=7, scale="small").records
        )


class TestWeblab:
    def test_split_beats_plain_overlay(self):
        result = run_weblab(WeblabConfig(seed=11, scale="small"))
        assert (
            result.split_summary.fraction_improved
            > result.overlay_summary.fraction_improved
        )
        assert result.split_summary.mean_factor_improved > 1.0
        assert result.total_paths_observed == len(result.pairs) * 4

    def test_render_contains_figure_artifacts(self):
        result = run_weblab(WeblabConfig(seed=11, scale="small"))
        text = result.render(series_points=5)
        assert "Fig. 2" in text
        assert "fig2/overlay" in text
        assert "fig2/split-overlay" in text


class TestControlled:
    def test_summaries_ordered(self, small_campaign):
        result = small_campaign.result
        # Discrete is the bound: at least as good as split.
        assert (
            result.discrete_summary.fraction_improved
            >= result.split_summary.fraction_improved
        )

    def test_split_close_to_discrete(self, small_campaign):
        """Sec. III-B: proxy processing does not hurt the gains."""
        result = small_campaign.result
        assert result.split_summary.mean_factor_improved == pytest.approx(
            result.discrete_summary.mean_factor_improved, rel=0.15
        )

    def test_overlay_reduces_retransmissions(self, small_campaign):
        direct_med, overlay_med = small_campaign.result.median_retransmission_rates()
        assert overlay_med <= direct_med

    def test_rtt_trend_with_direct_rtt(self, small_campaign):
        fractions = small_campaign.result.rtt_reduction_fractions()
        assert 0.0 <= fractions["all"] <= 1.0

    def test_render(self, small_campaign):
        text = small_campaign.result.render(series_points=5)
        for marker in ("Fig. 3", "Fig. 4", "Fig. 5"):
            assert marker in text

    def test_zero_overlay_median_renders_without_reduction_factor(self, small_campaign):
        # Regression: a zero best-overlay median used to print the
        # direct median over a 1e-12 floor (e.g. "reduction x51918384.3").
        result = small_campaign.result

        def with_retx(direct: float, overlay: float) -> str:
            pairs = [
                dataclasses.replace(
                    pair, direct_retx_observed=direct, best_overlay_retx_observed=overlay
                )
                for pair in result.pairs
            ]
            return ControlledResult(config=result.config, pairs=pairs).render()

        assert "direct=0.001 overlay=0.0001 (reduction x10.0)" in with_retx(1e-3, 1e-4)
        zeroed = with_retx(5e-5, 0.0)
        assert "direct=5e-05 overlay=0 (overlay median 0)" in zeroed
        assert "reduction x" not in zeroed


GOLDEN = Path(__file__).parent / "golden"


def _run_stdout(capsys, argv: list[str]) -> str:
    """``repro`` stdout with any trailing exec manifest cut off."""
    from repro.cli import main

    assert main(argv) == 0
    # The same cut as CI's `sed '/^exec run /,$d'`.
    return re.sub(r"^exec run .*", "", capsys.readouterr().out, flags=re.M | re.S)


class TestControlledGolden:
    # Serial runs execute the same shard list as the pool, so Fig. 4's
    # per-pair retransmission draws and Fig. 10's loss bins cannot
    # depend on --workers.  Regenerate with
    # `python -m repro run fig3-5 --seed 7` only when a change is meant
    # to move the science.
    @pytest.mark.parametrize("workers", [None, "2"])
    def test_fig3_5_matches_committed_output(self, capsys, tmp_path, workers):
        argv = ["run", "fig3-5", "--seed", "7"]
        if workers is not None:
            argv += ["--workers", workers, "--cache-dir", str(tmp_path)]
        golden = (GOLDEN / "controlled_fig3-5_seed7.txt").read_text()
        assert _run_stdout(capsys, argv) == golden

    def test_fig9_11_serial_matches_workers_2(self, capsys, tmp_path):
        serial = _run_stdout(capsys, ["run", "fig9-11", "--seed", "7"])
        sharded = _run_stdout(
            capsys,
            ["run", "fig9-11", "--seed", "7", "--workers", "2", "--cache-dir", str(tmp_path)],
        )
        assert serial == sharded


class TestLongitudinal:
    def test_tracks_top_paths(self, small_campaign):
        result = run_longitudinal(small_campaign, top_n=6, samples=8)
        assert len(result.paths) == 6
        assert all(len(p.direct_samples) == 8 for p in result.paths)
        # Selected paths are the most-improved: most should stay ahead.
        assert result.fraction_consistently_improved() >= 0.5

    def test_min_nodes_within_bounds(self, small_campaign):
        result = run_longitudinal(small_campaign, top_n=5, samples=6)
        node_count = len(result.paths[0].node_samples)
        for needed in result.min_nodes_distribution():
            assert 1 <= needed <= node_count

    def test_table1_monotone(self, small_campaign):
        result = run_longitudinal(small_campaign, top_n=5, samples=6)
        means = [mean for _k, mean, _median in result.table1()]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))

    def test_render(self, small_campaign):
        result = run_longitudinal(small_campaign, top_n=4, samples=5)
        text = result.render()
        for marker in ("Fig. 6", "Fig. 7", "Table I"):
            assert marker in text

    def test_bad_plan_rejected(self, small_campaign):
        with pytest.raises(ExperimentError):
            run_longitudinal(small_campaign, top_n=0)


class TestDiversity:
    def test_scores_in_range(self, small_campaign):
        result = run_diversity(small_campaign)
        for record in result.records:
            assert 0.0 <= record.score <= 1.0

    def test_common_routers_at_ends(self, small_campaign):
        """Sec. V-A: shared routers cluster near the endpoints."""
        result = run_diversity(small_campaign)
        assert result.end_segment_share() > 0.5

    def test_render(self, small_campaign):
        assert "Fig. 8" in run_diversity(small_campaign).render(series_points=4)


class TestFactors:
    def test_bins_cover_all_pairs(self, small_campaign):
        result = run_factors(small_campaign)
        assert sum(b.count for b in result.rtt_bins()) == len(result.records)
        assert sum(b.count for b in result.loss_bins()) == len(result.records)

    def test_improved_overlays_are_longer(self, small_campaign):
        """Sec. V-B's surprise: gains come despite longer router paths."""
        result = run_factors(small_campaign)
        frac = result.longer_hop_fraction_among_improved(min_gain=1.0)
        assert frac > 0.5

    def test_render(self, small_campaign):
        text = run_factors(small_campaign).render()
        for marker in ("Fig. 9", "Fig. 10", "Fig. 11"):
            assert marker in text


class TestClassify:
    def test_thresholds_extracted(self, small_campaign):
        result = run_classify(small_campaign)
        assert result.accuracy > 0.8
        bounds = result.single_thresholds()
        assert bounds, "expected at least one positive-rule threshold"
        # The paper's thresholds are small double-digit percentages.
        for value in bounds.values():
            assert -0.5 < value < 0.6

    def test_render(self, small_campaign):
        assert "C4.5" in run_classify(small_campaign).render()


class TestCost:
    def test_overlay_cheaper(self):
        weblab = run_weblab(WeblabConfig(seed=11, scale="small"))
        result = run_cost(weblab)
        assert result.median_cost_ratio() < 1.0

    def test_price_table_covers_dimensions(self):
        weblab = run_weblab(WeblabConfig(seed=11, scale="small"))
        result = run_cost(weblab)
        table = result.price_table()
        assert len(table) == 2 * 3 * 5  # server x port x traffic
        assert "Sec. VII-D" in result.render()
