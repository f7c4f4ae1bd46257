"""The exec subsystem's headline guarantees, end to end.

* the same campaign produces byte-identical result files at any
  worker count (1 / 4 / 8),
* a run killed mid-campaign resumes to completion with zero
  recomputation of already-cached shards,
* the chaos and longitudinal studies print the same result
  in-process (no runner) as on the pool,
* ``run_tasks`` runs a task list in-process without a runner and
  raises on failed shards with one,
* a fully cached chaos or demand ``--resume`` builds no world, and a
  partly cached one builds it once.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExecError
from repro.exec.cache import MISS, ResultCache
from repro.exec.manifest import RunManifest
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.runner import ABORT_ENV, ExecConfig, ExecRunner
from repro.exec.spec import TaskSpec
from repro.experiments import scenario
from repro.experiments.chaos_exp import (
    STRATEGIES,
    ChaosConfig,
    run_chaos,
)
from repro.experiments.controlled import ControlledConfig, run_controlled
from repro.experiments.demand_exp import DemandConfig, run_demand
from repro.experiments.longitudinal import run_longitudinal
from repro.faults.scenarios import SCENARIOS
from repro.io import dump_json

SEED = 3
TOP_N = 4
SAMPLES = 6


def _campaign_result_file(tmp_path, tag: str, workers: int, cache_dir, resume=False):
    """Run controlled + longitudinal through exec; dump the result file."""
    runner = ExecRunner(
        ExecConfig(workers=workers, cache_dir=cache_dir, resume=resume)
    )
    campaign = run_controlled(ControlledConfig(seed=SEED, scale="small"), runner)
    longitudinal = run_longitudinal(campaign, top_n=TOP_N, samples=SAMPLES, runner=runner)
    target = dump_json(longitudinal, tmp_path / f"result-{tag}.json")
    return target.read_bytes(), runner


class TestWorkerCountInvariance:
    def test_workers_1_4_8_byte_identical_result_files(self, tmp_path):
        results = {}
        for workers in (1, 4, 8):
            cache = tmp_path / f"cache-w{workers}"
            results[workers], runner = _campaign_result_file(
                tmp_path, f"w{workers}", workers, cache
            )
            assert runner.manifest.errors == 0
            assert runner.manifest.cache_hits == 0  # fresh caches: all real work
        assert results[1] == results[4] == results[8]

    def test_shard_keys_do_not_depend_on_worker_count(self, tmp_path):
        keys = {}
        for workers in (1, 8):
            runner = ExecRunner(
                ExecConfig(workers=workers, cache_dir=tmp_path / f"c{workers}")
            )
            run_controlled(ControlledConfig(seed=SEED, scale="small"), runner)
            keys[workers] = [r.key for r in runner.manifest.records]
        assert keys[1] == keys[8]


class TestResume:
    def test_killed_run_resumes_with_zero_recompute(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        # First attempt dies deterministically after 3 executed shards.
        monkeypatch.setenv(ABORT_ENV, "3")
        with pytest.raises(ExecError, match="simulated crash"):
            _campaign_result_file(tmp_path, "killed", 1, cache)
        monkeypatch.delenv(ABORT_ENV)

        # The dead shards' payloads are already durable in the cache.
        resumed_bytes, runner = _campaign_result_file(
            tmp_path, "resumed", 4, cache, resume=True
        )
        manifest = runner.manifest
        assert manifest.errors == 0
        assert manifest.cache_hits == 3  # exactly the pre-kill shards
        assert manifest.executed == len(manifest.records) - 3

        # And the resumed result is byte-identical to an undisturbed run.
        fresh_bytes, _ = _campaign_result_file(
            tmp_path, "fresh", 4, tmp_path / "fresh-cache"
        )
        assert resumed_bytes == fresh_bytes

    def test_full_resume_recomputes_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        first_bytes, _ = _campaign_result_file(tmp_path, "first", 2, cache)
        second_bytes, runner = _campaign_result_file(
            tmp_path, "second", 2, cache, resume=True
        )
        assert runner.manifest.executed == 0
        assert runner.manifest.cache_hits == len(runner.manifest.records)
        assert first_bytes == second_bytes


class TestSerialEquivalence:
    def test_chaos_exec_matches_serial_loop(self, tmp_path):
        from repro.io import to_jsonable

        config = ChaosConfig(
            seed=SEED, scale="small", scenarios=("as-outage",), duration_s=300.0
        )
        serial = run_chaos(config)
        runner = ExecRunner(ExecConfig(workers=4, cache_dir=tmp_path / "cache"))
        sharded = run_chaos(config, runner)
        assert json.dumps(to_jsonable(serial), sort_keys=True) == json.dumps(
            to_jsonable(sharded), sort_keys=True
        )
        assert serial.render() == sharded.render()

    def test_chaos_exec_runs_one_shard_per_scenario(self, tmp_path):
        # `repro chaos --scenario all --fast --workers 2`: each scenario's
        # arm x strategy runs share one shard, so the manifest holds one
        # record per scenario.
        config = ChaosConfig(
            seed=7,
            scale="small",
            scenarios=tuple(SCENARIOS),
            duration_s=900.0,
            tick_s=5.0,
            probe_interval_s=15.0,
        )
        runner = ExecRunner(ExecConfig(workers=2, cache_dir=tmp_path / "cache"))
        result = run_chaos(config, runner)
        manifest = RunManifest.load(runner.write_manifest())
        assert len(manifest.records) == len(config.scenario_names)
        assert {record.stage for record in manifest.records} == {"chaos.runs"}
        assert manifest.executed == len(config.scenario_names)
        runs = len(config.arms) * len(STRATEGIES)
        assert len(result.outcomes) == runs * len(config.scenario_names)

    def test_longitudinal_exec_matches_serial_campaign(self, tmp_path):
        from repro.io import to_jsonable

        config = ControlledConfig(seed=SEED, scale="small")
        serial_long = run_longitudinal(
            run_controlled(config), top_n=TOP_N, samples=SAMPLES
        )
        runner = ExecRunner(ExecConfig(workers=2, cache_dir=tmp_path / "cache"))
        exec_long = run_longitudinal(
            run_controlled(config, runner), top_n=TOP_N, samples=SAMPLES, runner=runner
        )
        # The longitudinal sweep is RNG-free, so the pool must
        # reproduce the in-process numbers exactly, not just statistically.
        assert to_jsonable(serial_long) == to_jsonable(exec_long)


class TestRunTasks:
    def test_without_runner_runs_in_process_in_order(self):
        calls: list[int] = []

        def task(i: int) -> ExecTask:
            def fn() -> int:
                calls.append(i)  # visible here only because nothing forked
                return i * i

            return ExecTask(spec=TaskSpec("square", 7, i, 3), fn=fn)

        assert run_tasks([task(i) for i in range(3)]) == [0, 1, 4]
        assert calls == [0, 1, 2]

    def test_failed_shard_raises_with_runner(self, tmp_path):
        def boom() -> int:
            raise RuntimeError("boom")

        runner = ExecRunner(
            ExecConfig(workers=2, cache_dir=tmp_path / "cache", retries=0)
        )
        tasks = [
            ExecTask(spec=TaskSpec("ok", 7, 0, 2), fn=lambda: 1),
            ExecTask(spec=TaskSpec("boom", 7, 1, 2), fn=boom),
        ]
        with pytest.raises(ExecError, match="1 shard"):
            run_tasks(tasks, runner, stage="mixed")
        assert runner.manifest.stage_counts() == {"mixed": (1, 0, 1)}

    def test_prepare_runs_before_the_shards(self):
        order: list[str] = []
        tasks = [
            ExecTask(spec=TaskSpec("t", 7, i, 2), fn=lambda i=i: order.append(f"fn{i}"))
            for i in range(2)
        ]
        run_tasks(tasks, prepare=lambda: order.append("prepare"))
        assert order == ["prepare", "fn0", "fn1"]

    @pytest.mark.parametrize("resume, cached, prepared", [
        (True, 2, False),  # fully warm resume: no shard computes
        (True, 1, True),  # one shard missing: the driver prepares once
        (False, 2, True),  # without --resume the cache is write-only
    ])
    def test_prepare_skipped_only_on_fully_warm_resume(
        self, tmp_path, resume, cached, prepared
    ):
        tasks = [ExecTask(spec=TaskSpec("t", 7, i, 2), fn=lambda i=i: i) for i in range(2)]
        run_tasks(tasks[:cached], ExecRunner(ExecConfig(cache_dir=tmp_path, use_processes=False)))
        calls: list[int] = []
        runner = ExecRunner(
            ExecConfig(cache_dir=tmp_path, resume=resume, use_processes=False)
        )
        assert run_tasks(tasks, runner, prepare=lambda: calls.append(1)) == [0, 1]
        assert len(calls) == int(prepared)


def _chaos_study(runner):
    config = ChaosConfig(
        seed=SEED, scale="small", scenarios=("as-outage", "route-flap"), duration_s=300.0
    )
    return run_chaos(config, runner)


def _demand_study(runner):
    return run_demand(DemandConfig(seed=SEED, epochs=1, levels=(1.0, 8.0)), runner)


@pytest.mark.parametrize("study", [_chaos_study, _demand_study], ids=["chaos", "demand"])
class TestStudyResume:
    """A fully cached ``--resume`` of chaos or demand builds no world.

    The result fields that derive from the world (the chaos pair and
    scenario descriptions, the demand pair count) travel in the shard
    payloads, so the warm run only reads the cache.  Both studies
    import ``build_world`` where they call it, so counting calls on
    its module sees every build.
    """

    @staticmethod
    def _run(study, monkeypatch, cache, resume):
        builds: list[int] = []
        build_world = scenario.build_world

        def counted(*args, **kwargs):
            builds.append(1)
            return build_world(*args, **kwargs)

        monkeypatch.setattr(scenario, "build_world", counted)
        runner = ExecRunner(ExecConfig(cache_dir=cache, resume=resume, use_processes=False))
        result = study(runner)
        monkeypatch.setattr(scenario, "build_world", build_world)
        return result, runner, len(builds)

    def _cold_then_warm(self, study, monkeypatch, tmp_path, damage):
        from repro.io import to_jsonable

        cache = tmp_path / "cache"
        cold, runner, builds = self._run(study, monkeypatch, cache, False)
        assert builds == 1
        entry = ResultCache(cache).path_for(runner.manifest.records[-1].key)
        damage(entry)
        warm, _runner, builds = self._run(study, monkeypatch, cache, True)
        assert warm.render() == cold.render()
        assert to_jsonable(warm) == to_jsonable(cold)
        return entry, builds

    def test_warm_resume_builds_no_world(self, study, monkeypatch, tmp_path):
        _entry, builds = self._cold_then_warm(
            study, monkeypatch, tmp_path, lambda entry: None
        )
        assert builds == 0

    def test_missing_entry_builds_the_world_once(self, study, monkeypatch, tmp_path):
        _entry, builds = self._cold_then_warm(
            study, monkeypatch, tmp_path, lambda entry: entry.unlink()
        )
        assert builds == 1

    def test_torn_entry_is_quarantined_and_recomputed(self, study, monkeypatch, tmp_path):
        def truncate(entry):
            entry.write_bytes(entry.read_bytes()[:40])

        entry, builds = self._cold_then_warm(study, monkeypatch, tmp_path, truncate)
        # Counted as present by the warm check, it still computes.
        assert builds == 1
        assert entry.with_suffix(".corrupt").exists()
        assert ResultCache(entry.parents[1]).lookup(entry.stem) is not MISS
