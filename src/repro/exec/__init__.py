"""Sharded parallel campaign execution with a content-addressed cache.

``repro.exec`` runs any measurement campaign or experiment sweep as a
deterministic list of shardable tasks:

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
* :mod:`~repro.exec.plan` — :class:`ExecTask` and :func:`run_tasks`,
  which runs a task list in-process or on an :class:`ExecRunner`,
* :mod:`~repro.exec.runner` — :class:`ExecRunner`, the driver tying
  the pieces together.

Each study builds its task list in its own entry point
(``run_chaos(config, runner=None)``, ``run_controlled(config,
runner=None)``, ...) and hands it to :func:`run_tasks`, so a serial run
and a sharded run execute the same shards; this package knows nothing
about what a shard computes.
"""

from __future__ import annotations

from repro.exec.cache import MISS, ResultCache, code_salt
from repro.exec.manifest import RunManifest, ShardRecord
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.pool import ShardOutcome, execute_shards
from repro.exec.runner import ExecConfig, ExecRunner
from repro.exec.shard import default_shard_count, partition_indices
from repro.exec.spec import TaskSpec

__all__ = [
    "ExecConfig",
    "ExecRunner",
    "ExecTask",
    "MISS",
    "ResultCache",
    "RunManifest",
    "ShardOutcome",
    "ShardRecord",
    "TaskSpec",
    "code_salt",
    "default_shard_count",
    "execute_shards",
    "partition_indices",
    "run_tasks",
]
