"""The chaos study: determinism and the hardening payoff."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.chaos_exp import (
    ChaosConfig,
    PacketReplayConfig,
    run_chaos,
    run_chaos_packet,
)


def outcome(result, scenario, strategy, arm):
    key = (scenario, strategy, arm)
    return next(o for o in result.outcomes if (o.scenario, o.strategy, o.arm) == key)


@pytest.fixture(scope="module")
def showcase():
    """One study over the two degradation showcases (module-scoped: slow)."""
    return run_chaos(
        ChaosConfig(scenarios=("probe-blackout", "flapping-overlay"))
    )


class TestDeterminism:
    def test_two_runs_identical(self):
        config = ChaosConfig(
            scenarios=("probe-loss",), duration_s=900.0, tick_s=15.0,
            probe_interval_s=30.0,
        )
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.outcomes == second.outcomes
        assert first.render() == second.render()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            ChaosConfig(scenarios=("nope",))


class TestHardeningPayoff:
    def test_blackout_fallback_strictly_reduces_downtime(self, showcase):
        # The PR-1 controller keeps trusting its last rosy probe and sits
        # on the dead overlay through the blackout; the degradation-aware
        # one notices its data rotted and falls back to the gray-but-alive
        # direct path.
        baseline = outcome(showcase, "probe-blackout", "controller-best", "baseline")
        hardened = outcome(showcase, "probe-blackout", "controller-best", "hardened")
        assert baseline.downtime_s > 0.0
        assert hardened.downtime_s < baseline.downtime_s
        assert hardened.wrong_path_s < baseline.downtime_s + baseline.wrong_path_s

    def test_quarantine_reduces_churn_on_flapping_overlay(self, showcase):
        baseline = outcome(showcase, "flapping-overlay", "mptcp-subflows", "baseline")
        hardened = outcome(showcase, "flapping-overlay", "mptcp-subflows", "hardened")
        assert hardened.quarantines >= 1
        assert hardened.churn < baseline.churn

    def test_baseline_arm_never_quarantines(self, showcase):
        assert all(
            outcome.quarantines == 0
            for outcome in showcase.outcomes
            if outcome.arm == "baseline"
        )

    def test_static_direct_identical_across_arms(self, showcase):
        # No scheduler, no degradation: hardening must not touch it.
        for scenario in showcase.config.scenario_names:
            baseline = outcome(showcase, scenario, "static-direct", "baseline")
            hardened = outcome(showcase, scenario, "static-direct", "hardened")
            assert baseline.downtime_s == hardened.downtime_s
            assert baseline.mean_goodput_mbps == hardened.mean_goodput_mbps


class TestReporting:
    def test_render_covers_every_scenario_and_arm(self, showcase):
        rendered = showcase.render()
        for scenario in showcase.config.scenario_names:
            assert scenario in rendered
        assert "baseline" in rendered
        assert "hardened" in rendered
        assert "wrong-path" in rendered


class TestPopOutage:
    @pytest.fixture(scope="class")
    def pop_outage(self):
        """The partial-AS-outage showcase in fast mode (class-scoped: slow)."""
        return run_chaos(
            ChaosConfig(
                scenarios=("pop-outage",), duration_s=900.0, tick_s=5.0,
                probe_interval_s=15.0,
            )
        )

    def test_stale_filter_beats_trusting_lost_probes(self, pop_outage):
        # The dead PoP swallows the best overlay's probes, so the
        # baseline keeps serving the last rosy result and rides the
        # corpse through every episode; the hardened arm's per-path
        # staleness filter drops the label and switches within one
        # staleness bound.
        baseline = outcome(pop_outage, "pop-outage", "controller-best", "baseline")
        hardened = outcome(pop_outage, "pop-outage", "controller-best", "hardened")
        assert baseline.wrong_path_s > 0.0
        assert hardened.wrong_path_s < baseline.wrong_path_s
        assert hardened.downtime_s < baseline.downtime_s

    def test_baseline_rides_the_dead_pop_all_episodes(self, pop_outage):
        # Four 90 s episodes: LOST probes never update last_result, so
        # the baseline's downtime covers essentially the whole outage.
        baseline = outcome(pop_outage, "pop-outage", "controller-best", "baseline")
        assert baseline.downtime_s >= 300.0

    def test_partial_outage_is_not_a_blackout(self, pop_outage):
        # Only one PoP dies: every other path keeps answering probes,
        # so the hardened arm sees per-path staleness, never a
        # blackout — no FAILED health transitions (hence zero
        # quarantines) and goodput keeps flowing between failovers.
        hardened = outcome(pop_outage, "pop-outage", "controller-best", "hardened")
        assert hardened.quarantines == 0
        assert hardened.probes_lost > 0
        assert hardened.mean_goodput_mbps > 0.0


class TestAdaptiveArm:
    @pytest.fixture(scope="class")
    def gray_detect(self):
        """The gray-failure showcase with the adaptive arm enabled."""
        return run_chaos(
            ChaosConfig(
                scenarios=("gray-detect",), adaptive=True, duration_s=900.0,
                tick_s=5.0, probe_interval_s=15.0,
            )
        )

    def test_adaptive_off_by_default(self):
        config = ChaosConfig(scenarios=("probe-loss",))
        assert config.arms == ("baseline", "hardened")
        assert "gray-detect" not in config.scenario_names

    def test_adaptive_adds_third_arm(self, gray_detect):
        assert gray_detect.config.arms == ("baseline", "hardened", "adaptive")
        arms = {outcome.arm for outcome in gray_detect.outcomes}
        assert arms == {"baseline", "hardened", "adaptive"}

    def test_adaptive_strictly_reduces_wrong_path_time(self, gray_detect):
        # The whole point of the PR: with bulk-only gray episodes on the
        # preferred overlay, the ping-only arms keep riding the silently
        # broken path while the throughput/ping cross-check bails out.
        baseline = outcome(gray_detect, "gray-detect", "controller-best", "baseline")
        adaptive = outcome(gray_detect, "gray-detect", "controller-best", "adaptive")
        assert baseline.wrong_path_s > 0.0
        assert adaptive.wrong_path_s < baseline.wrong_path_s

    def test_detection_latency_reported_for_adaptive_run(self, gray_detect):
        adaptive = outcome(gray_detect, "gray-detect", "controller-best", "adaptive")
        assert adaptive.detect_s is not None
        assert 0.0 < adaptive.detect_s < 900.0

    def test_detect_column_only_when_adaptive(self, gray_detect):
        assert "detect" in gray_detect.render()
        classic = run_chaos(
            ChaosConfig(
                scenarios=("probe-loss",), duration_s=900.0, tick_s=15.0,
                probe_interval_s=30.0,
            )
        )
        assert "detect" not in classic.render()

    def test_probe_bounds_validated(self):
        with pytest.raises(ExperimentError):
            ChaosConfig(scenarios=("gray-detect",), probe_floor_s=0.0)
        with pytest.raises(ExperimentError):
            ChaosConfig(scenarios=("gray-detect",), probe_ceiling_s=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "duration_s",
            "tick_s",
            "probe_interval_s",
            "probe_floor_s",
            "probe_ceiling_s",
            "flap_margin_per_failure",
        ],
    )
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ExperimentError):
            ChaosConfig(**{field: value})


class TestAdaptiveAblationKnobs:
    def test_bundle_turns_on_every_knob(self):
        config = ChaosConfig(adaptive=True)
        assert config.use_adaptive_cadence
        assert config.use_gray_detect
        assert config.use_flap_margin
        assert config.any_adaptive

    def test_single_knob_adds_adaptive_arm(self):
        for knob in ("adaptive_cadence", "gray_detect", "flap_margin"):
            config = ChaosConfig(**{knob: True})
            assert config.any_adaptive
            assert config.arms == ("baseline", "hardened", "adaptive")

    def test_knobs_off_means_two_arms(self):
        config = ChaosConfig()
        assert not config.any_adaptive
        assert config.arms == ("baseline", "hardened")

    def test_knobs_are_independent(self):
        config = ChaosConfig(gray_detect=True)
        assert config.use_gray_detect
        assert not config.use_adaptive_cadence
        assert not config.use_flap_margin

    def test_gray_detect_knob_alone_detects(self):
        result = run_chaos(
            ChaosConfig(
                scenarios=("gray-detect",), duration_s=900.0, tick_s=15.0,
                probe_interval_s=30.0, gray_detect=True,
            )
        )
        adaptive = next(
            o for o in result.outcomes
            if o.arm == "adaptive" and o.strategy == "controller-best"
        )
        assert adaptive.detect_s is not None


class TestPacketReplay:
    """The packet-level chaos replay (``repro chaos --engine packet``)."""

    CONFIG = PacketReplayConfig(duration_s=900.0, flow_s=1.0)

    def test_two_runs_identical(self):
        first = run_chaos_packet(self.CONFIG)
        second = run_chaos_packet(self.CONFIG)
        assert first.samples == second.samples
        assert first.render() == second.render()

    def test_covers_scenarios_paths_and_outage(self):
        result = run_chaos_packet(self.CONFIG)
        scenarios = {s.scenario for s in result.samples}
        assert scenarios == set(self.CONFIG.scenario_names)
        paths = {s.path for s in result.samples}
        assert "direct" in paths and len(paths) >= 2
        # probe-blackout takes the direct path down mid-story: at least
        # one sample must land inside the outage window.
        assert any(not s.alive for s in result.samples)
        for sample in result.samples:
            if sample.alive:
                assert sample.packet_mbps >= 0.0
                assert sample.model_mbps > 0.0
                # tstat-style proxy (retx bytes / acked bytes): can
                # exceed 1 under heavy loss, but never goes negative.
                assert sample.retx_rate >= 0.0

    def test_gray_failure_compounds_loss(self):
        """Mid-episode samples see the degradation the quiet ones don't."""
        result = run_chaos_packet(
            PacketReplayConfig(duration_s=900.0, flow_s=1.0,
                               scenarios=("gray-detect",))
        )
        for path in {s.path for s in result.samples}:
            on_path = [s for s in result.samples if s.path == path and s.alive]
            quiet = max(s.packet_mbps for s in on_path)
            impaired = min(s.packet_mbps for s in on_path)
            assert impaired < quiet

    def test_fastpath_and_scalar_replays_agree(self, monkeypatch):
        from reference.packetsim_scalar import PacketLevelTcp as ScalarTcp

        fast = run_chaos_packet(self.CONFIG)
        monkeypatch.setattr("repro.transport.packetsim.PacketLevelTcp", ScalarTcp)
        scalar = run_chaos_packet(self.CONFIG)
        assert fast.samples == scalar.samples

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["duration_s", "flow_s"])
    def test_non_finite_durations_rejected(self, field, value):
        with pytest.raises(ExperimentError):
            PacketReplayConfig(**{field: value})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            PacketReplayConfig(scenarios=("nope",))


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    # E13 pinned byte for byte: controller-best's wrong-path time under
    # gray failure falls from 140 s (baseline) to 110 s (hardened) and
    # 20 s (adaptive). The exec pool must reproduce the serial stdout.
    # Regenerate with `python -m repro chaos --seed 7 --scenario
    # gray-detect --adaptive` only when a change is meant to move the
    # science.
    @pytest.mark.parametrize("workers", [None, "2"])
    def test_gray_detect_matches_committed_output(self, capsys, tmp_path, workers):
        from repro.cli import main

        argv = ["chaos", "--seed", "7", "--scenario", "gray-detect", "--adaptive"]
        if workers is not None:
            argv += ["--workers", workers, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        golden = (GOLDEN / "chaos_gray_detect_seed7.txt").read_text()
        assert capsys.readouterr().out == golden

    # Every scenario of the chaos study, fast horizon: the outage,
    # flap and gray-failure arms all run through the FaultInjector.
    # Regenerate with `python -m repro chaos --scenario all --fast
    # --seed 7` only when a change is meant to move the science.
    def test_all_fast_matches_committed_output(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--scenario", "all", "--fast", "--seed", "7"]) == 0
        golden = (GOLDEN / "chaos_all_fast_seed7.txt").read_text()
        assert capsys.readouterr().out == golden

    # E20 pinned byte for byte: every scenario replayed through the
    # packet engine, with the gray-detect overlay leg held to the
    # 0.02 Mbps Mathis floor. Regenerate with `python -m repro chaos
    # --engine packet --fast --seed 7` only when a change is meant to
    # move the science.
    def test_packet_fast_matches_committed_output(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--engine", "packet", "--fast", "--seed", "7"]) == 0
        golden = (GOLDEN / "chaos_packet_fast_seed7.txt").read_text()
        assert capsys.readouterr().out == golden
