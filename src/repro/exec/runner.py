"""The exec driver: cache + shard pool + manifest behind one object.

:class:`ExecRunner` is what experiment ports talk to.  They hand it
:class:`~repro.exec.plan.ExecTask` lists; it consults the cache, runs
the misses on the :mod:`~repro.exec.pool` (one forked process per
shard), accumulates the manifest, and hands back payloads in task
order.

One fault-injection environment knob, used by tests and CI:
``REPRO_EXEC_ABORT_AFTER=N`` — the runner dies (``ExecError``) after
N freshly executed shards: the deterministic mid-run ``kill -9``
proving that ``--resume`` completes with zero recomputation.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ExecError
from repro.exec.cache import MISS, ResultCache, code_salt
from repro.exec.manifest import RunManifest, ShardRecord
from repro.exec.plan import ExecTask
from repro.exec.pool import STATUS_CACHED, STATUS_OK, ShardOutcome, execute_shards

#: Environment knob: abort the run after N executed shards.
ABORT_ENV = "REPRO_EXEC_ABORT_AFTER"


@dataclass(frozen=True)
class ExecConfig:
    """Knobs of one exec run.

    ``resume`` gates cache *reads* only — payloads are always written,
    so any completed shard survives a crash, but a fresh run without
    ``--resume`` measures real work instead of serving yesterday's.
    ``timeout_s`` and ``retries`` apply per shard attempt.
    """

    workers: int = 1
    cache_dir: str | Path = ".repro-cache"
    resume: bool = False
    timeout_s: float | None = None
    retries: int = 1
    use_processes: bool = True
    #: Extra cache-key salt on top of :func:`~repro.exec.cache.code_salt`
    #: (e.g. a config fingerprint the specs do not carry).
    salt: str = ""

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ExecError(f"workers must be positive, got {self.workers}")
        if self.retries < 0:
            raise ExecError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ExecError(
                f"timeout must be positive and finite when set, got {self.timeout_s}"
            )

    @property
    def cache_salt(self) -> str:
        """The full code-version salt every cache key carries."""
        return f"code={code_salt()};{self.salt}"


class ExecRunner:
    """Schedules task lists and accumulates one manifest per run."""

    def __init__(self, config: ExecConfig | None = None) -> None:
        self.config = config or ExecConfig()
        self.cache = ResultCache(self.config.cache_dir)
        self._records: list[ShardRecord] = []
        self._started = time.perf_counter()
        self._executed = 0
        self._abort_after = _abort_after_from_env()

    def all_cached(self, tasks: Sequence[ExecTask]) -> bool:
        """True when resuming and every task's cache entry exists.

        An existence check only: an entry that turns out torn still
        reads as a miss in :meth:`run` and recomputes.
        """
        return self.config.resume and all(
            self.cache.has(task.spec.key(self.config.cache_salt)) for task in tasks
        )

    def run(self, tasks: Sequence[ExecTask], stage: str = "main") -> list[Any]:
        """Execute ``tasks`` on the shard pool; returns aligned payloads.

        A shard that fails permanently contributes ``None``; callers
        that cannot tolerate holes should check :attr:`manifest`
        (or :meth:`raise_on_errors`).
        """
        triples = [
            (task.spec.key(self.config.cache_salt), task.spec.label, task.fn)
            for task in tasks
        ]
        abort_after = (
            self._abort_after - self._executed
            if self._abort_after is not None
            else None
        )
        payloads, outcomes = execute_shards(
            triples,
            cache=self.cache,
            workers=self.config.workers,
            resume=self.config.resume,
            timeout_s=self.config.timeout_s,
            retries=self.config.retries,
            use_processes=self.config.use_processes,
            abort_after=abort_after,
        )
        self._absorb(stage, outcomes)
        return payloads

    def run_inline(self, tasks: Sequence[ExecTask], stage: str = "inline") -> list[Any]:
        """Execute ``tasks`` in the driver process, one by one.

        Same cache protocol and manifest accounting as :meth:`run`,
        no worker pool: for work that must stay in-driver (e.g.
        report sections whose thunks close over live runner state)
        but should still skip warm shards on ``--resume``.  Payloads
        round-trip through the cache so bytes match a pooled run.
        """
        payloads: list[Any] = []
        for index, task in enumerate(tasks):
            key = task.spec.key(self.config.cache_salt)
            started = time.perf_counter()
            if self.config.resume:
                cached = self.cache.lookup(key)
                if cached is not MISS:
                    payloads.append(cached)
                    self._absorb(stage, [ShardOutcome(
                        index=index, key=key, label=task.spec.label,
                        status=STATUS_CACHED, attempts=0, duration_s=0.0,
                    )])
                    continue
            self.cache.put(key, task.fn())
            payloads.append(self.cache.get(key))
            self._absorb(stage, [ShardOutcome(
                index=index, key=key, label=task.spec.label,
                status=STATUS_OK, attempts=1,
                duration_s=time.perf_counter() - started,
            )])
        return payloads

    def _absorb(self, stage: str, outcomes: Sequence[ShardOutcome]) -> None:
        """Fold shard outcomes into the manifest bookkeeping."""
        self._records.extend(
            ShardRecord.from_outcome(stage, outcome) for outcome in outcomes
        )
        self._executed += sum(1 for o in outcomes if o.status == STATUS_OK)

    @property
    def manifest(self) -> RunManifest:
        """The manifest accumulated so far (records across all stages)."""
        return RunManifest(
            workers=self.config.workers,
            records=list(self._records),
            wall_s=time.perf_counter() - self._started,
        )

    def raise_on_errors(self) -> None:
        """Fail loudly when any shard exhausted its retries."""
        failed = self.manifest.error_shards()
        if failed:
            details = "; ".join(
                f"{r.stage}/{r.label}: {r.error}" for r in failed[:5]
            )
            raise ExecError(f"{len(failed)} shard(s) failed — {details}")

    def write_manifest(self, path: str | Path | None = None) -> Path:
        """Write the manifest (default: ``<cache>/runs/<run_id>.json``)."""
        manifest = self.manifest
        if path is None:
            path = Path(self.config.cache_dir) / "runs" / f"{manifest.run_id}.json"
        return manifest.write(path)


def _abort_after_from_env() -> int | None:
    """``REPRO_EXEC_ABORT_AFTER`` as a shard count (unset/empty = None)."""
    raw = os.environ.get(ABORT_ENV)
    if not raw:
        return None
    try:
        count = int(raw)
        if count < 0:
            raise ValueError(raw)
    except ValueError:
        raise ExecError(
            f"{ABORT_ENV} must be a non-negative integer, got {raw!r}"
        ) from None
    return count
