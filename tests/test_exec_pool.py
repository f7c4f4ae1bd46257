"""Pool behaviour: crash isolation, retries, timeouts, resume, abort."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ExecError
from repro.exec.cache import PACKAGE_ROOT, ResultCache, code_salt, source_hash
from repro.exec.pool import execute_shards
from repro.exec.runner import ABORT_ENV, ExecConfig, ExecRunner
from repro.exec.spec import TaskSpec


def _triples(n, fn_for):
    """(key, label, fn) triples for n shards of kind 't'."""
    out = []
    for i in range(n):
        spec = TaskSpec("t", 7, i, n)
        out.append((spec.key(), spec.label, fn_for(i)))
    return out


#: Runs one trivial shard with ``--resume`` semantics against a cache dir
#: and prints the runner's salt and its cache-hit count.
_SALT_PROBE = """
import sys
from repro.exec.plan import ExecTask
from repro.exec.runner import ExecConfig, ExecRunner
from repro.exec.spec import TaskSpec

runner = ExecRunner(ExecConfig(cache_dir=sys.argv[1], resume=True, use_processes=False))
runner.run([ExecTask(spec=TaskSpec("salt.probe", 7, 0, 1), fn=lambda: 1)])
print(runner.config.cache_salt, runner.manifest.cache_hits)
"""


def _salt_and_hits(src: Path, cache: Path) -> tuple[str, int]:
    """(cache salt, cache hits) of one probe shard run from the tree at ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _SALT_PROBE, str(cache)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    return out[0], int(out[1])


class TestPool:
    def test_payloads_in_task_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _triples(5, lambda i: (lambda: {"shard": i}))
        payloads, outcomes = execute_shards(tasks, cache=cache, workers=3)
        assert [p["shard"] for p in payloads] == [0, 1, 2, 3, 4]
        assert all(o.status == "ok" for o in outcomes)

    def test_dead_worker_fails_its_shard_not_the_run(self, tmp_path):
        cache = ResultCache(tmp_path)

        def fn_for(i):
            if i == 2:
                return lambda: os._exit(3)
            return lambda: i

        payloads, outcomes = execute_shards(
            _triples(5, fn_for), cache=cache, workers=2, retries=0
        )
        assert payloads[2] is None
        assert outcomes[2].status == "error"
        assert "exit code 3" in outcomes[2].error
        assert [payloads[i] for i in (0, 1, 3, 4)] == [0, 1, 3, 4]

    def test_sigkilled_worker_is_retried_to_completion(self, tmp_path):
        marker = tmp_path / "killed-once"

        def killed_on_first_attempt():
            if not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return "done"

        payloads, outcomes = execute_shards(
            _triples(3, lambda i: killed_on_first_attempt if i == 1 else (lambda: i)),
            cache=ResultCache(tmp_path / "cache"), workers=2, retries=1,
        )
        assert payloads == [0, "done", 2]
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert outcomes[1].attempts == 2

    def test_exception_message_crosses_the_pipe(self, tmp_path):
        cache = ResultCache(tmp_path)

        def boom():
            raise ValueError("bad shard input")

        _payloads, outcomes = execute_shards(
            _triples(1, lambda i: boom), cache=cache, retries=0
        )
        assert outcomes[0].status == "error"
        assert "ValueError: bad shard input" in outcomes[0].error
        assert outcomes[0].attempts == 1

    def test_retry_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)

        def boom():
            raise RuntimeError("always fails")

        _payloads, outcomes = execute_shards(
            _triples(1, lambda i: boom), cache=cache, retries=2
        )
        assert outcomes[0].status == "error"
        assert outcomes[0].attempts == 3

    def test_timeout_kills_hung_shard(self, tmp_path):
        cache = ResultCache(tmp_path)

        def hang():
            time.sleep(60)

        _payloads, outcomes = execute_shards(
            _triples(1, lambda i: hang), cache=cache, timeout_s=0.3, retries=0
        )
        assert outcomes[0].status == "error"
        assert "timed out" in outcomes[0].error

    def test_resume_serves_cache_without_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _triples(4, lambda i: (lambda: i * 10))
        execute_shards(tasks, cache=cache, workers=2)

        def explode():
            raise AssertionError("resume must not recompute")

        resumed, outcomes = execute_shards(
            _triples(4, lambda i: explode), cache=cache, workers=2, resume=True
        )
        assert resumed == [0, 10, 20, 30]
        assert all(o.status == "cached" for o in outcomes)
        assert all(o.attempts == 0 for o in outcomes)

    def test_resume_recomputes_corrupt_entry_instead_of_serving_it(self, tmp_path):
        # Regression: a truncated cache entry used to pass the resume
        # pre-pass (``has()`` saw a file) and either crash the run or
        # serve None as a payload.  It must count as a miss and
        # recompute.
        cache = ResultCache(tmp_path)
        tasks = _triples(3, lambda i: (lambda: i * 10))
        execute_shards(tasks, cache=cache, workers=2)
        path = cache.path_for(tasks[1][0])
        path.write_bytes(path.read_bytes()[:7])  # torn mid-file
        resumed, outcomes = execute_shards(
            tasks, cache=cache, workers=2, resume=True
        )
        assert resumed == [0, 10, 20]
        assert [o.status for o in outcomes] == ["cached", "ok", "cached"]
        assert path.with_suffix(".corrupt").exists()

    def test_without_resume_cache_is_write_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _triples(2, lambda i: (lambda: i))
        execute_shards(tasks, cache=cache)
        _payloads, outcomes = execute_shards(tasks, cache=cache)
        assert all(o.status == "ok" for o in outcomes)

    def test_in_process_fallback_matches_forked_payloads(self, tmp_path):
        forked_cache = ResultCache(tmp_path / "forked")
        inproc_cache = ResultCache(tmp_path / "inproc")
        tasks = _triples(3, lambda i: (lambda: {"rows": [(i, i + 1)]}))
        forked, _ = execute_shards(tasks, cache=forked_cache, workers=2)
        inproc, _ = execute_shards(tasks, cache=inproc_cache, use_processes=False)
        # Both round-trip through JSON, so tuples decay identically.
        assert forked == inproc

    def test_abort_after_raises_with_partial_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _triples(5, lambda i: (lambda: i))
        with pytest.raises(ExecError, match="simulated crash"):
            execute_shards(tasks, cache=cache, workers=1, abort_after=2)
        count, _size = cache.stats()
        assert count >= 2


class TestRunnerConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ExecError):
            ExecConfig(workers=0)
        with pytest.raises(ExecError):
            ExecConfig(retries=-1)
        with pytest.raises(ExecError):
            ExecConfig(timeout_s=0.0)

    def test_cache_salt_carries_code_hash(self):
        assert ExecConfig().cache_salt == f"code={code_salt()};"
        assert ExecConfig(salt="x").cache_salt == f"code={code_salt()};x"

    def test_edited_source_changes_salt_and_misses_cache(self, tmp_path):
        copy = tmp_path / "src" / "repro"
        shutil.copytree(PACKAGE_ROOT, copy, ignore=shutil.ignore_patterns("__pycache__"))
        # Relative paths only: the same tree elsewhere hashes alike.
        assert source_hash(copy) == code_salt()
        cache = tmp_path / "cache"
        assert _salt_and_hits(copy.parent, cache) == (f"code={code_salt()};", 0)
        assert _salt_and_hits(copy.parent, cache) == (f"code={code_salt()};", 1)

        module = copy / "units.py"
        module.write_text(module.read_text() + "\n# edited\n")
        edited = source_hash(copy)
        assert edited != code_salt()
        assert _salt_and_hits(copy.parent, cache) == (f"code={edited};", 0)

    def test_abort_env_is_read_at_construction(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ABORT_ENV, "0")
        runner = ExecRunner(ExecConfig(cache_dir=tmp_path))
        from repro.exec.plan import ExecTask

        task = ExecTask(spec=TaskSpec("t", 7, 0, 1), fn=lambda: 1)
        with pytest.raises(ExecError, match="simulated crash"):
            runner.run([task])

    @pytest.mark.parametrize("value", ["x", "1.5", "-1"])
    def test_bad_abort_env_raises_exec_error(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv(ABORT_ENV, value)
        with pytest.raises(ExecError, match=ABORT_ENV):
            ExecRunner(ExecConfig(cache_dir=tmp_path))

    def test_raise_on_errors(self, tmp_path):
        from repro.exec.plan import ExecTask

        def boom():
            raise RuntimeError("nope")

        runner = ExecRunner(ExecConfig(cache_dir=tmp_path, retries=0))
        runner.run([ExecTask(spec=TaskSpec("t", 7, 0, 1), fn=boom)])
        with pytest.raises(ExecError, match="1 shard\\(s\\) failed"):
            runner.raise_on_errors()

    def test_write_manifest_default_path(self, tmp_path):
        from repro.exec.plan import ExecTask

        runner = ExecRunner(ExecConfig(cache_dir=tmp_path))
        runner.run([ExecTask(spec=TaskSpec("t", 7, 0, 1), fn=lambda: 1)])
        path = runner.write_manifest()
        assert path.parent == tmp_path / "runs"
        assert path.exists()
