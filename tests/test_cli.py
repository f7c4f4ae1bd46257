"""Command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_world_summary(self, capsys):
        assert main(["world", "--seed", "3", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "ASes:" in out
        assert "clients: 12" in out

    def test_run_fig2_small(self, capsys):
        assert main(["run", "fig2", "--seed", "3", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_run_cost_small(self, capsys):
        assert main(["run", "cost", "--seed", "3", "--scale", "small"]) == 0
        assert "cost ratio" in capsys.readouterr().out

    def test_run_with_json_dump(self, capsys, tmp_path):
        target = tmp_path / "fig2.json"
        assert main(
            ["run", "fig2", "--seed", "3", "--scale", "small", "--out", str(target)]
        ) == 0
        data = json.loads(target.read_text())
        assert "pairs" in data

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_multihop(self, capsys):
        assert main(["run", "multihop", "--seed", "3", "--scale", "small"]) == 0
        assert "two-hop" in capsys.readouterr().out

    def test_control_subcommand(self, capsys):
        assert main(
            [
                "control",
                "--seed", "3",
                "--scale", "small",
                "--duration", "1200",
                "--probe-interval", "30",
                "--tick", "15",
                "--outage-start", "300",
                "--outage-duration", "450",
                "--metrics",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "failover study" in out
        assert "static-direct" in out
        assert "metrics snapshot" in out

    def test_chaos_subcommand_fast(self, capsys):
        assert main(
            ["chaos", "--seed", "3", "--scenario", "probe-loss", "--fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos study" in out
        assert "probe-loss" in out
        assert "hardened" in out

    def test_chaos_list_scenarios(self, capsys):
        assert main(["chaos", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "probe-blackout" in out
        assert "as-outage" in out

    def test_chaos_json_dump(self, capsys, tmp_path):
        target = tmp_path / "chaos.json"
        assert main(
            [
                "chaos",
                "--seed", "3",
                "--scenario", "gray-direct",
                "--fast",
                "--out", str(target),
            ]
        ) == 0
        data = json.loads(target.read_text())
        assert "outcomes" in data

    def test_control_json_dump(self, capsys, tmp_path):
        target = tmp_path / "control.json"
        assert main(
            [
                "control",
                "--seed", "3",
                "--scale", "small",
                "--duration", "1200",
                "--outage-start", "300",
                "--outage-duration", "450",
                "--out", str(target),
            ]
        ) == 0
        data = json.loads(target.read_text())
        assert "outcomes" in data
        assert "failed_links" in data


class TestChaosAdaptiveCli:
    def test_adaptive_flag(self, capsys):
        assert main(
            [
                "chaos",
                "--seed", "3",
                "--scenario", "gray-detect",
                "--fast",
                "--adaptive",
                "--probe-floor", "5",
                "--probe-ceiling", "60",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out
        assert "detect" in out

    def test_list_scenarios_includes_gray_detect(self, capsys):
        assert main(["chaos", "--list-scenarios"]) == 0
        assert "gray-detect" in capsys.readouterr().out

    def test_default_suite_excludes_gray_detect(self, capsys):
        # Knobs off, the classic eight run — gray-detect only joins via
        # --scenario gray-detect or --scenario all.
        assert main(["chaos", "--seed", "3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "gray-detect" not in out
        assert "as-outage" in out

    def test_scenario_all_includes_gray_detect(self, capsys):
        assert main(
            ["chaos", "--seed", "3", "--scenario", "all", "--fast"]
        ) == 0
        assert "gray-detect" in capsys.readouterr().out


class TestExecCli:
    def test_run_with_workers_writes_manifest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        assert main(
            [
                "run", "fig6-7", "--seed", "3", "--scale", "small",
                "--workers", "2", "--cache-dir", str(cache),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "exec run" in out
        assert "controlled.pairs" in out
        manifests = list((cache / "runs").glob("*.json"))
        assert len(manifests) == 1

    def test_exec_manifest_and_cache_verbs(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            [
                "run", "chaos", "--seed", "3", "--scale", "small",
                "--workers", "2", "--cache-dir", str(cache),
            ]
        ) == 0
        capsys.readouterr()
        manifest = next((cache / "runs").glob("*.json"))
        assert main(["exec", "manifest", str(manifest)]) == 0
        assert "chaos.runs" in capsys.readouterr().out
        assert main(["exec", "cache", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_resume_serves_cached_shards(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = [
            "run", "fig3-5", "--seed", "3", "--scale", "small",
            "--workers", "2", "--cache-dir", str(cache),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out or "0 execu" in out

    def test_serial_path_untouched_without_exec_flags(self, capsys):
        assert main(["run", "fig3-5", "--seed", "3", "--scale", "small"]) == 0
        assert "exec run" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig6-7", "--seed", "3"],
            ["chaos", "--seed", "3", "--scenario", "as-outage", "--fast"],
            ["demand", "--seed", "3", "--fast"],
            ["colo", "--seed", "3", "--fast", "--footprint", "cloud"],
        ],
        ids=lambda argv: argv[0] if argv[0] != "run" else argv[1],
    )
    def test_no_exec_flags_no_fork_no_cache(self, argv, capsys, tmp_path, monkeypatch):
        import multiprocessing

        from repro.exec.runner import ExecRunner

        def forbidden(*args, **kwargs):
            raise AssertionError("a run without exec flags touched the pool")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(ExecRunner, "__init__", forbidden)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        assert main(argv) == 0
        assert "exec run" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_removed_backend_flag_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "fig3-5", "--backend", "local-fork"])


class TestChaosAblationCli:
    def test_single_knob_adds_adaptive_arm(self, capsys):
        assert main(
            [
                "chaos", "--seed", "3", "--scenario", "gray-detect",
                "--fast", "--gray-detect",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out
        assert "detect" in out


class TestNonFiniteNumbers:
    """nan and inf are no durations: the CLI must say so, not run.

    Each case runs in a subprocess with a timeout because an infinite
    horizon used to loop forever.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ("chaos", "--duration", "nan"),
            ("chaos", "--duration", "inf"),
            ("chaos", "--tick", "nan"),
            ("control", "--duration", "nan"),
            ("control", "--tick", "nan"),
            ("control", "--probe-interval", "nan"),
            ("control", "--outage-start", "nan"),
        ],
        ids=" ".join,
    )
    def test_rejected_with_an_error(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 1
        assert out.stderr.startswith("error: ")
        assert out.stdout == ""


class TestConfigFailsFirst:
    """A bad study config exits 1 before any world build or fork.

    The studies' run functions, where both happen, are replaced by one
    that fails the test if it is ever reached.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ("demand", "--rounds", "0"),
            ("colo", "--load-level", "nan"),
            ("colo", "--load-level", "inf"),
        ],
        ids=" ".join,
    )
    def test_rejected_before_the_study_runs(self, argv, monkeypatch, capsys, tmp_path):
        def unreachable(config, runner=None):
            raise AssertionError("the study ran with a config it should have rejected")

        monkeypatch.setattr("repro.experiments.demand_exp.run_demand", unreachable)
        monkeypatch.setattr("repro.experiments.colo_exp.run_colo", unreachable)
        exec_flags = ["--workers", "2", "--cache-dir", str(tmp_path / "cache")]
        assert main([*argv, *exec_flags]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert out.out == ""
        assert not (tmp_path / "cache").exists()


class TestExplicitFlagsBeatFast:
    """``--fast`` picks defaults only: a flag given explicitly wins.

    The bad-value cases run in a subprocess with a timeout, so a flag
    that ``--fast`` swallowed again shows up as a normal run that exits
    0, not as a hang.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ("chaos", "--fast", "--duration", "-5"),
            ("demand", "--fast", "--epochs", "-2"),
            ("colo", "--fast", "--epochs", "-3"),
        ],
        ids=" ".join,
    )
    def test_bad_explicit_value_rejected(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 1
        assert out.stderr.startswith("error: ")
        assert out.stdout == ""

    @pytest.mark.parametrize(
        "module, runner, argv, expected",
        [
            (
                "repro.experiments.chaos_exp", "run_chaos",
                ["chaos", "--fast", "--duration", "600"],
                {"duration_s": 600.0, "tick_s": 5.0, "probe_interval_s": 15.0},
            ),
            (
                "repro.experiments.demand_exp", "run_demand",
                ["demand", "--fast", "--epochs", "3"],
                {"epochs": 3, "levels": (1.0, 8.0, 100.0)},
            ),
            (
                "repro.experiments.colo_exp", "run_colo",
                ["colo", "--fast", "--epochs", "4"],
                {"demand_epochs": 4, "n_clients": 6, "n_servers": 2},
            ),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_explicit_value_reaches_the_config(
        self, module, runner, argv, expected, monkeypatch, capsys
    ):
        seen = []

        class Result:
            def render(self) -> str:
                return ""

        def fake_run(config, runner=None):
            seen.append(config)
            return Result()

        monkeypatch.setattr(module + "." + runner, fake_run)
        assert main(argv) == 0
        (config,) = seen
        assert {name: getattr(config, name) for name in expected} == expected


class TestChaosIgnoresNoFlag:
    """``chaos`` refuses a flag it would not use instead of dropping it.

    Each study run function is replaced by one that fails the test, so
    a flag that is silently ignored again shows up as a failure, not as
    a whole replay.
    """

    @pytest.fixture(autouse=True)
    def _no_study_runs(self, monkeypatch):
        def unreachable(config, runner=None):
            raise AssertionError("the study ran with a flag it should have refused")

        monkeypatch.setattr("repro.experiments.chaos_exp.run_chaos", unreachable)
        monkeypatch.setattr("repro.experiments.chaos_exp.run_chaos_packet", unreachable)

    @pytest.mark.parametrize(
        "flag",
        [
            ("--tick", "-5"),
            ("--tick", "5"),
            ("--probe-interval", "nan"),
            ("--adaptive",),
            ("--adaptive-cadence",),
            ("--gray-detect",),
            ("--flap-margin",),
            ("--probe-floor", "5"),
            ("--probe-ceiling", "7"),
        ],
        ids=" ".join,
    )
    def test_packet_engine_refuses_controller_flags(self, flag, capsys):
        assert main(["chaos", "--engine", "packet", "--fast", *flag]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert flag[0] in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "bounds",
        [("--probe-floor", "5"), ("--probe-ceiling", "7"),
         ("--probe-floor", "5", "--probe-ceiling", "7")],
        ids=" ".join,
    )
    def test_cadence_bounds_need_an_adaptive_cadence_arm(self, bounds, capsys):
        # Without one, the bounds used to leave the output byte-identical.
        argv = ["chaos", "--fast", "--scenario", "probe-blackout", *bounds]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--adaptive-cadence" in err

    def test_floor_above_ceiling_names_both_flags(self, capsys):
        argv = [
            "chaos", "--fast", "--adaptive", "--probe-floor", "100", "--probe-ceiling", "10",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--probe-floor" in err and "--probe-ceiling" in err
        assert "max_interval_s" not in err

    def test_floor_above_the_implicit_ceiling_is_refused(self, capsys):
        # Without --probe-ceiling the ceiling is the probe interval (15 s
        # under --fast); a floor above it used to override it silently.
        argv = [
            "chaos", "--fast", "--scenario", "gray-detect", "--adaptive", "--probe-floor", "100",
        ]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert "--probe-floor" in out.err and "--probe-interval" in out.err
        assert out.out == ""
