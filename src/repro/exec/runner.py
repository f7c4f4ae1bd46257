"""The exec driver: cache + backend + manifest behind one object.

:class:`ExecRunner` is what experiment ports talk to.  They hand it
:class:`~repro.exec.plan.ExecTask` lists; it consults the cache,
schedules misses onto the configured
:class:`~repro.exec.backend.ExecBackend` (``local-fork`` or the
crash-resilient ``coordinator``), accumulates the manifest, and hands
back payloads in task order.

Two fault-injection environment knobs, both used by tests and CI:

* ``REPRO_EXEC_ABORT_AFTER=N`` — the runner dies (``ExecError``)
  after N freshly executed shards: the deterministic mid-run
  ``kill -9`` proving that ``--resume`` (and, for the coordinator,
  ledger + cache recovery) completes with zero recomputation.
* ``REPRO_EXEC_CHAOS=kill=0@1,stall=1@1,stall-s=2.5`` — a
  :class:`~repro.exec.coordinator.WorkerChaos` schedule: workers are
  SIGKILLed or stalled at chosen (shard, attempt) points, and the
  coordinator must still merge byte-identical results.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ExecError
from repro.exec.backend import (
    BACKEND_NAMES,
    STATUS_CACHED,
    STATUS_OK,
    ExecBackend,
    ShardOutcome,
    make_backend,
)
from repro.exec.cache import MISS, ResultCache, code_salt
from repro.exec.manifest import RunManifest, ShardRecord
from repro.exec.plan import ExecTask

#: Environment knob: abort the run after N executed shards.
ABORT_ENV = "REPRO_EXEC_ABORT_AFTER"


@dataclass(frozen=True)
class ExecConfig:
    """Knobs of one exec run.

    ``resume`` gates cache *reads* only — payloads are always written,
    so any completed shard survives a crash, but a fresh run without
    ``--resume`` measures real work instead of serving yesterday's.

    ``backend`` picks the execution engine: ``local-fork`` (one forked
    process per shard attempt; ``timeout_s``/``retries`` apply) or
    ``coordinator`` (lease/heartbeat protocol over registered
    workers; ``lease_timeout_s``/``max_attempts``/``heartbeat_s``
    apply).  The merged results are byte-identical across backends.
    """

    workers: int = 1
    cache_dir: str | Path = ".repro-cache"
    resume: bool = False
    timeout_s: float | None = None
    retries: int = 1
    mp_context: str = "fork"
    use_processes: bool = True
    #: Extra cache-key salt on top of :func:`~repro.exec.cache.code_salt`
    #: (e.g. a config fingerprint the specs do not carry).
    salt: str = ""
    #: Which :class:`~repro.exec.backend.ExecBackend` runs the shards.
    backend: str = "local-fork"
    #: Coordinator: heartbeat window — a shard whose lease is not
    #: renewed within it is re-leased to another worker.
    lease_timeout_s: float = 30.0
    #: Coordinator: per-shard attempt budget before poison quarantine.
    max_attempts: int = 3
    #: Coordinator: heartbeat cadence (None = lease_timeout_s / 3).
    heartbeat_s: float | None = None
    #: Coordinator: deterministic worker-fault schedule
    #: (:class:`~repro.exec.coordinator.WorkerChaos`); None = read
    #: ``REPRO_EXEC_CHAOS`` when set.
    chaos: Any = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ExecError(f"workers must be positive, got {self.workers}")
        if self.retries < 0:
            raise ExecError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExecError(f"timeout must be positive when set, got {self.timeout_s}")
        if self.backend not in BACKEND_NAMES:
            raise ExecError(
                f"unknown backend {self.backend!r}; choose from {list(BACKEND_NAMES)}"
            )
        if self.lease_timeout_s <= 0:
            raise ExecError(
                f"lease timeout must be positive, got {self.lease_timeout_s}"
            )
        if self.max_attempts <= 0:
            raise ExecError(f"max_attempts must be positive, got {self.max_attempts}")
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ExecError(
                f"heartbeat interval must be positive when set, got {self.heartbeat_s}"
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
        abort = os.environ.get(ABORT_ENV)
        self._abort_after: int | None = int(abort) if abort else None
        self.backend: ExecBackend = self._make_backend()

    def _make_backend(self) -> ExecBackend:
        """Build the configured backend (chaos env applied here)."""
        from repro.exec.coordinator import WorkerChaos

        chaos = self.config.chaos
        if chaos is None:
            chaos = WorkerChaos.from_env()
        return make_backend(
            self.config.backend,
            timeout_s=self.config.timeout_s,
            retries=self.config.retries,
            mp_context=self.config.mp_context,
            use_processes=self.config.use_processes,
            lease_timeout_s=self.config.lease_timeout_s,
            max_attempts=self.config.max_attempts,
            heartbeat_s=self.config.heartbeat_s,
            chaos=chaos,
        )

    def run(self, tasks: Sequence[ExecTask], stage: str = "main") -> list[Any]:
        """Execute ``tasks`` on the backend; returns aligned payloads.

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
        payloads, outcomes = self.backend.execute(
            triples,
            cache=self.cache,
            workers=self.config.workers,
            resume=self.config.resume,
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
        """Fold backend outcomes into the manifest bookkeeping."""
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
            backend=self.config.backend,
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
