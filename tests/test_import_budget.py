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


def _loaded(code: str, heavy: list[str]) -> list[str]:
    """The ``heavy`` modules a fresh interpreter has loaded after ``code``.

    They are printed on the last line, after whatever ``code`` prints.
    """
    probe = (
        "import sys\n"
        f"{code}\n"
        f"print(' '.join(sorted({heavy!r} & sys.modules.keys())))\n"
    )
    return _python(probe).splitlines()[-1].split()


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
        code = f"from repro.cli import main\nassert main({argv!r}) == 0"
        heavy = ["numpy", "repro.experiments.scenario", "repro.net.world"]
        assert _loaded(code, heavy) == []
        # Served, not recomputed: every section body is the cold run's.
        cold_sections = (tmp_path / "cold.md").read_text().split("## ")
        warm_sections = warm.read_text().split("## ")
        assert [s for s in warm_sections if not s.startswith("Measurement health")] == [
            s for s in cold_sections if not s.startswith("Measurement health")
        ]

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
