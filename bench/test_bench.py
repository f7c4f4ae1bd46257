"""Checks of the benchmark itself: schema, tracer, verdicts and a smoke run.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import compare
import layers
import tracer
from workloads import BY_NAME

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
E2E = {metric["name"]: metric for metric in CONFIG["end_to_end"]}


def test_schema_limits():
    assert set(CONFIG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(CONFIG["workloads"]) <= 8
    assert 1 <= len(CONFIG["end_to_end"]) <= 16
    assert 1 <= len(CONFIG["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONFIG[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for workload in CONFIG["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in CONFIG["workloads"]] == list(BY_NAME)
    assert all(0 < metric["bound"] <= 0.25 for metric in E2E.values())


def test_setup_time_is_gated_with_the_largest_bound():
    setup = E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in E2E.values())


def test_every_layer_metric_names_what_it_moves():
    listed = [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]]
    assert listed == [(m.name, m.unit, m.better) for m in layers.metrics()]
    for name, _unit, _better in listed:
        layer = layers.layer_of(name)
        assert layer is not None and layer.moves, name
        for metric, workloads in layer.moves.items():
            assert metric in E2E, (name, metric)
            assert workloads and set(workloads) <= set(BY_NAME), (name, workloads)


def _fake_package(monkeypatch, root: str) -> types.ModuleType:
    """``root.base`` with a function and a classmethod; ``root.user`` imports
    the function by name."""
    base = types.ModuleType(f"{root}.base")
    exec(
        textwrap.dedent(
            """
            def build(x):
                return x + 1

            class Paths:
                @classmethod
                def make(cls, n):
                    return cls, build(n)
            """
        ),
        base.__dict__,
    )
    user = types.ModuleType(f"{root}.user")
    user.build = base.build
    monkeypatch.setitem(sys.modules, base.__name__, base)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return base


def test_wrapper_keeps_classmethods_and_rebinds_name_imports(monkeypatch):
    base = _fake_package(monkeypatch, "fakerepro")
    traced = tracer.Tracer()
    tracer.install(
        traced,
        [layers.Fn("fakerepro.base", "build"), layers.Fn("fakerepro.base", "Paths.make")],
        prefix="fakerepro",
    )
    assert isinstance(vars(base.Paths)["make"], classmethod)

    class Sub(base.Paths):
        pass

    assert Sub.make(2) == (Sub, 3)
    assert sys.modules["fakerepro.user"].build(1) == 2
    table = traced.table()
    assert table["fakerepro.base.build"]["calls"] == 2
    make = table["fakerepro.base.Paths.make"]
    assert make["calls"] == 1
    # The nested build() call is the classmethod's child, not its self time.
    assert make["self_s"] < make["s"]
    assert [span[0] for span in traced.spans] == [
        "fakerepro.base.build", "fakerepro.base.Paths.make", "fakerepro.base.build"
    ]
    assert traced.spans[0][3] == "fakerepro.base.Paths.make"


def test_wrapper_waits_for_modules_imported_later(monkeypatch, tmp_path):
    package = tmp_path / "laterepro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "base.py").write_text("def build(x):\n    return x * 2\n")
    (package / "user.py").write_text("from laterepro.base import build\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "meta_path", list(sys.meta_path))
    traced = tracer.Tracer()
    tracer.install(traced, [layers.Fn("laterepro.base", "build")], prefix="laterepro")
    assert "laterepro.base" not in sys.modules
    try:
        import laterepro.user

        assert laterepro.user.build(4) == 8
        assert traced.table()["laterepro.base.build"]["calls"] == 1
    finally:
        for name in ("laterepro", "laterepro.base", "laterepro.user"):
            sys.modules.pop(name, None)


def test_reset_keeps_wrappers_counting():
    traced = tracer.Tracer()
    double = traced.wrap("double", lambda x: 2 * x)
    double(1)
    traced.reset()
    assert traced.table()["double"]["calls"] == 0 and not traced.spans
    double(1)
    assert traced.table()["double"]["calls"] == 1


def _summary(median: float, iqr: float = 0.01) -> dict:
    return {"median": median, "iqr_frac": iqr}


def test_compare_verdicts():
    wall = E2E["wall_s"]
    bound = wall["bound"]
    base = _summary(2.0)
    assert compare.verdict(base, _summary(2.0), 0.01, wall) == "unchanged"
    assert compare.verdict(base, _summary(2.0 * (1 + 2 * bound)), 0.01, wall) == "regressed"
    assert compare.verdict(base, _summary(2.0 * (1 - 2 * bound)), 0.01, wall) == "improved"
    noisy = _summary(2.0 * (1 + 2 * bound), iqr=2 * bound)
    assert compare.verdict(base, noisy, 0.01, wall) == "unresolved"
    assert compare.verdict(base, _summary(2.0), 2 * bound, wall) == "unresolved"
    rss = E2E["peak_rss_mb"]
    assert compare.verdict(base, _summary(2.0), 2 * rss["bound"], rss) == "unchanged"
    higher = dict(wall, better="higher")
    assert compare.verdict(base, _summary(2.0 * (1 + 2 * bound)), 0.01, higher) == "improved"


def _pass(scale: float = 1.0, failed: int = 0) -> dict:
    metrics = {name: _summary(scale) for name in E2E}
    workloads = {
        w["name"]: {"metrics": metrics, "attempted": 5, "failed": failed,
                    "error_rate": failed / 5}
        for w in CONFIG["workloads"]
    }
    return {"host_noise": 0.01, "workloads": workloads}


def test_compare_exit_status(tmp_path):
    base = tmp_path / "a.json"
    base.write_text(json.dumps({"passes": [_pass(), _pass(1.01)]}))
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(_pass(1.5)))
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(_pass(failed=1)))
    assert compare.main([f"{base}#0", f"{base}#1"]) == 0
    assert compare.main([str(base), str(slower)]) == 1
    assert compare.main([str(base), str(failing)]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chaos", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_quick_smoke_run(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(out.read_text())["workloads"]
    assert set(results) == {"chaos", "resume"}
    assert all(w["error_rate"] == 0 for w in results.values())
    assert results["resume"]["layers"]["exec.cache_hit_ratio"] == 1.0
    assert results["chaos"]["layers"]["control.ticks"] > 0
