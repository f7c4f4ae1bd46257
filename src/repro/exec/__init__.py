"""Sharded parallel campaign execution with a content-addressed cache.

``repro.exec`` turns any measurement campaign or experiment sweep into
a deterministic DAG of shardable tasks:

* :mod:`~repro.exec.spec` — :class:`TaskSpec`, the hashable identity
  of one shard of work,
* :mod:`~repro.exec.shard` — the seed-stable work partitioner
  (results are byte-identical at any worker count),
* :mod:`~repro.exec.cache` — the content-addressed on-disk result
  cache keyed by (spec hash, seed, code-version salt),
* :mod:`~repro.exec.pool` — the shard pool: one forked process per
  shard, per-task timeout, bounded retry, crash isolation,
* :mod:`~repro.exec.manifest` — the run manifest (shard assignment,
  timing, cache hits, ok/error counts) ``repro report`` can render,
* :mod:`~repro.exec.plan` — multi-stage plans (fan-out DAGs),
* :mod:`~repro.exec.runner` — :class:`ExecRunner`, the driver tying
  the pieces together.

The experiment ports live next to the experiments themselves
(``run_longitudinal(..., exec_runner=...)``,
``run_controlled_exec``, ``run_chaos_exec``); this package knows
nothing about what a shard computes.
"""

from __future__ import annotations

from repro.exec.cache import MISS, ResultCache, code_salt
from repro.exec.manifest import RunManifest, ShardRecord
from repro.exec.plan import ExecPlan, ExecTask, Stage, run_plan
from repro.exec.pool import ShardOutcome, execute_shards
from repro.exec.runner import ExecConfig, ExecRunner
from repro.exec.shard import default_shard_count, partition_indices
from repro.exec.spec import TaskSpec

__all__ = [
    "ExecConfig",
    "ExecPlan",
    "ExecRunner",
    "ExecTask",
    "MISS",
    "ResultCache",
    "RunManifest",
    "ShardOutcome",
    "ShardRecord",
    "Stage",
    "TaskSpec",
    "code_salt",
    "default_shard_count",
    "execute_shards",
    "partition_indices",
    "run_plan",
]
