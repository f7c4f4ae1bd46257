"""Exec-layer perf signal: serial vs sharded longitudinal sweep.

Two numbers the BENCH trajectory tracks:

* **parallel speedup** — the paper-scale longitudinal sweep run
  serially vs through ``ExecRunner(workers=4)``.  The byte-identity
  contract is asserted unconditionally; the >= 2x wall-clock bar only
  applies where four cores actually exist (single-core CI boxes still
  record the ratio, they just can't beat physics).
* **warm-cache resume** — the same sweep re-run against a populated
  cache.  Every shard is a cache hit, so this bounds the cost of
  ``repro run --resume`` after a crash: no shard is recomputed.
"""

from __future__ import annotations

import os
import time

from repro.exec.runner import ExecConfig, ExecRunner
from repro.experiments.longitudinal import run_longitudinal
from repro.io import to_jsonable


#: A heavier-than-default sweep (default is 50 samples) so that the
#: per-shard fork/IPC overhead is small relative to real work and the
#: 4-worker speedup reflects the partitioner, not process startup.
BENCH_SAMPLES = 150


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_exec_parallel_speedup(benchmark, controlled_campaign, tmp_path):
    # The sweep advances the shared world clock; pin both runs to the
    # same base instant so they sample identical timelines.
    start = controlled_campaign.world.internet.now
    serial, serial_s = _timed(
        lambda: run_longitudinal(controlled_campaign, samples=BENCH_SAMPLES)
    )
    controlled_campaign.world.internet.set_time(start)

    runner = ExecRunner(ExecConfig(workers=4, cache_dir=tmp_path / "cache"))
    sharded = benchmark.pedantic(
        lambda: run_longitudinal(
            controlled_campaign, samples=BENCH_SAMPLES, runner=runner
        ),
        rounds=1,
        iterations=1,
    )
    parallel_s = benchmark.stats.stats.total

    speedup = serial_s / parallel_s
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = os.cpu_count()
    print()
    print(
        f"longitudinal sweep: serial {serial_s:.2f}s, "
        f"4 workers {parallel_s:.2f}s, speedup {speedup:.2f}x "
        f"on {os.cpu_count()} cpu(s)"
    )

    # The contract that makes the speedup trustworthy: sharding does
    # not change a single byte of the result.
    assert to_jsonable(serial) == to_jsonable(sharded)

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0


def test_exec_warm_cache_resume(benchmark, controlled_campaign, tmp_path):
    cache_dir = tmp_path / "cache"
    start = controlled_campaign.world.internet.now
    cold_runner = ExecRunner(ExecConfig(workers=2, cache_dir=cache_dir))
    cold, cold_s = _timed(
        lambda: run_longitudinal(
            controlled_campaign, samples=BENCH_SAMPLES, runner=cold_runner
        )
    )
    controlled_campaign.world.internet.set_time(start)

    warm_runner = ExecRunner(
        ExecConfig(workers=2, cache_dir=cache_dir, resume=True)
    )
    warm = benchmark.pedantic(
        lambda: run_longitudinal(
            controlled_campaign, samples=BENCH_SAMPLES, runner=warm_runner
        ),
        rounds=1,
        iterations=1,
    )
    warm_s = benchmark.stats.stats.total

    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    print()
    print(
        f"resume from warm cache: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
        f"({cold_s / warm_s:.1f}x)"
    )

    manifest = warm_runner.manifest
    assert manifest.executed == 0  # zero recompute — every shard a hit
    assert manifest.cache_hits == len(manifest.records)
    assert to_jsonable(cold) == to_jsonable(warm)
    assert warm_s < cold_s
