"""Start-up cost: each entry point imports only what it runs.

Every ``python -m repro`` process compiles the modules it imports, so a
verb that imports the whole package pays for it even when the result
cache serves everything.  Each case runs a fresh interpreter and lists
which of the named heavy modules ended up in ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec.runner import ExecConfig, ExecRunner
from repro.report import write_report

SRC = Path(repro.__file__).parents[1]


def _python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def _run_loaded(code: str, heavy: list[str]) -> tuple[str, list[str]]:
    """What ``code`` prints, and the ``heavy`` modules loaded after it.

    Both come from one fresh interpreter; the modules are printed on
    the last line, after whatever ``code`` prints.
    """
    probe = (
        "import sys\n"
        f"{code}\n"
        f"print(' '.join(sorted({heavy!r} & sys.modules.keys())))\n"
    )
    *printed, loaded = _python(probe).splitlines()
    return "".join(f"{line}\n" for line in printed), loaded.split()


def _loaded(code: str, heavy: list[str]) -> list[str]:
    """The ``heavy`` modules a fresh interpreter has loaded after ``code``."""
    return _run_loaded(code, heavy)[1]


def _cli(argv: list[str]) -> str:
    """``main(argv)`` as a line of code that must exit 0."""
    return f"from repro.cli import main\nassert main({argv!r}) == 0"


#: What a fully cached chaos or demand run must not load: the numeric
#: stack, the engines and the world.
ENGINES = [
    "numpy",
    "repro.control.controller",
    "repro.demand.engine",
    "repro.experiments.scenario",
    "repro.net.world",
]


class TestImportBudget:
    def test_import_repro_loads_no_numpy(self):
        assert _loaded("import repro", ["numpy", "repro.rand"]) == []

    def test_cli_and_runner_load_no_world(self):
        heavy = ["numpy", "repro.net.world", "repro.analysis.c45"]
        assert _loaded("import repro.cli, repro.exec.runner", heavy) == []

    def test_warm_report_resume_imports_no_study(self, tmp_path):
        cache = tmp_path / "cache"
        runner = ExecRunner(ExecConfig(cache_dir=cache, use_processes=False))
        write_report(tmp_path / "cold.md", seed=7, scale="small", exec_runner=runner)
        warm = tmp_path / "warm.md"
        argv = [
            "report", "--scale", "small", "--seed", "7", "--resume",
            "--cache-dir", str(cache), "--out", str(warm),
        ]
        heavy = ["numpy", "repro.experiments.scenario", "repro.net.world"]
        assert _loaded(_cli(argv), heavy) == []
        # Served, not recomputed: every section body is the cold run's.
        cold_sections = (tmp_path / "cold.md").read_text().split("## ")
        warm_sections = warm.read_text().split("## ")
        assert [s for s in warm_sections if not s.startswith("Measurement health")] == [
            s for s in cold_sections if not s.startswith("Measurement health")
        ]

    @pytest.mark.parametrize(
        "argv",
        [["chaos", "--scenario", "all", "--fast"], ["demand", "--fast"]],
        ids=lambda argv: argv[0],
    )
    def test_warm_study_resume_imports_no_engine(self, argv, tmp_path):
        cache = str(tmp_path / "cache")
        study = [*argv, "--seed", "7", "--cache-dir", cache]
        cold = _python(_cli([*study, "--workers", "1", "--out", str(tmp_path / "cold.json")]))
        # A warm run forks nothing, so it must not load the pool's
        # process machinery either.
        warm, loaded = _run_loaded(
            _cli([*study, "--resume", "--out", str(tmp_path / "warm.json")]),
            [*ENGINES, "multiprocessing"],
        )
        assert loaded == []
        # Served, not recomputed: the warm run prints and writes the cold run's result.
        assert warm.replace("warm.json", "cold.json") == cold
        assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()

    def test_list_scenarios_loads_no_numpy(self):
        printed, loaded = _run_loaded(_cli(["chaos", "--list-scenarios"]), ENGINES)
        assert loaded == []
        assert "  gray-detect\n" in printed

    def test_reexport_that_shadows_its_submodule_stays_the_function(self):
        # Importing ``repro.measure.traceroute`` binds the module under
        # the package's ``traceroute`` name; the re-export must win.
        code = (
            "import sys\n"
            "import repro.measure.traceroute\n"
            "from repro.measure import traceroute\n"
            "print(traceroute is sys.modules['repro.measure.traceroute'].traceroute)"
        )
        assert _python(code).split() == ["True"]
