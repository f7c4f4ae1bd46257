"""The shard pool: how every exec run executes its shards.

Each shard runs in its own forked process: a worker that segfaults,
calls ``os._exit``, or is killed by the per-task timeout fails *its
shard*, never the run.  Workers write their payload to the
content-addressed cache themselves and report only a tiny status
message back over a one-way pipe — so a run killed between a worker's
cache write and the driver's bookkeeping still resumes without
recomputing that shard.

Shards are launched in spec order and merged in spec order; with the
seed-stable partitioner this makes the merged result byte-identical
at any worker count.

On a platform without ``fork`` (or with ``use_processes=False``) the
same protocol runs in-process, one shard after another.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Sequence

from repro.errors import ExecError
from repro.exec.cache import MISS, ResultCache

#: Shard status values recorded in manifests.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_ERROR = "error"

#: The only start method used: a forked shard inherits the parent's
#: built world instead of rebuilding it.
_MP_CONTEXT = "fork"


@dataclass(frozen=True)
class ShardOutcome:
    """How one shard fared: status, attempts, timing, and error text."""

    index: int
    key: str
    label: str
    status: str
    attempts: int
    duration_s: float
    error: str | None = None


def _shard_worker(fn: Callable[[], Any], cache_root: str, key: str, conn: Any) -> None:
    """Process target: compute, persist to cache, report status.

    The cache write happens *in the worker*: by the time the driver
    hears "ok", the payload is durable, which is what makes resume
    after a driver kill lossless.
    """
    try:
        payload = fn()
        ResultCache(cache_root).put(key, payload)
        conn.send(("ok", None))
    except BaseException as error:  # noqa: BLE001 — isolation boundary
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    """Driver-side bookkeeping for one in-flight shard process."""

    index: int
    process: Any
    conn: Any
    started: float
    deadline: float | None
    attempts: int


def execute_shards(
    tasks: Sequence[tuple[str, str, Callable[[], Any]]],
    *,
    cache: ResultCache,
    workers: int = 1,
    resume: bool = False,
    timeout_s: float | None = None,
    retries: int = 1,
    use_processes: bool = True,
    abort_after: int | None = None,
) -> tuple[list[Any | None], list[ShardOutcome]]:
    """Run ``tasks`` (``(key, label, fn)`` triples) through the pool.

    Returns payloads and outcomes, both aligned with ``tasks``.  A
    shard that exhausts its ``retries`` yields a ``None`` payload and
    an ``error`` outcome; the run itself completes (crash isolation).

    ``resume=True`` serves cache hits instead of recomputing; without
    it the cache is write-only, so timings and determinism checks
    measure real work.  ``abort_after`` kills the driver (with an
    :class:`ExecError`) after that many *executed* shards — the
    deterministic stand-in for a mid-run ``kill -9`` used by the
    resume tests and the CI smoke job.

    ``use_processes=False`` (or a platform without ``fork``) runs
    shards in-process: same cache protocol, same ordering, no timeout
    enforcement.
    """
    if workers <= 0:
        raise ExecError(f"worker count must be positive, got {workers}")
    if retries < 0:
        raise ExecError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and not 0 < timeout_s < math.inf:
        raise ExecError(f"timeout must be positive and finite when set, got {timeout_s}")

    payloads: list[Any | None] = [None] * len(tasks)
    outcomes: list[ShardOutcome | None] = [None] * len(tasks)
    pending: list[int] = []
    executed = 0

    for index, (key, label, _fn) in enumerate(tasks):
        # lookup(), not has(): a truncated/corrupt entry must read as
        # a miss (and be quarantined) so the shard recomputes instead
        # of a torn payload being served as a cache hit.
        cached = cache.lookup(key) if resume else MISS
        if cached is not MISS:
            payloads[index] = cached
            outcomes[index] = ShardOutcome(
                index=index, key=key, label=label, status=STATUS_CACHED,
                attempts=0, duration_s=0.0,
            )
        else:
            pending.append(index)

    if use_processes:
        try:
            ctx = multiprocessing.get_context(_MP_CONTEXT)
        except ValueError:
            ctx = None
    else:
        ctx = None

    def record(index: int, status: str, attempts: int, started: float,
               error: str | None = None) -> None:
        key, label, _fn = tasks[index]
        outcomes[index] = ShardOutcome(
            index=index, key=key, label=label, status=status, attempts=attempts,
            duration_s=time.perf_counter() - started, error=error,
        )
        if status == STATUS_OK:
            payloads[index] = cache.get(key)

    if ctx is None:
        # In-process fallback: sequential, same cache round-trip so the
        # merged payloads are bit-for-bit what the forked path produces.
        for index in pending:
            if abort_after is not None and executed >= abort_after:
                raise ExecError(
                    f"aborting after {executed} executed shards (simulated crash)"
                )
            key, label, fn = tasks[index]
            started = time.perf_counter()
            attempts = 0
            while True:
                attempts += 1
                try:
                    cache.put(key, fn())
                    record(index, STATUS_OK, attempts, started)
                    break
                except Exception as error:
                    if attempts > retries:
                        record(index, STATUS_ERROR, attempts, started,
                               f"{type(error).__name__}: {error}")
                        break
            executed += 1
        return payloads, _finalize(outcomes)

    queue: list[tuple[int, int]] = [(index, 1) for index in pending]  # (shard, attempt)
    queue.reverse()  # pop() from the tail keeps spec order
    running: dict[int, _Running] = {}  # sentinel -> bookkeeping
    aborted = False

    def launch(index: int, attempts: int) -> None:
        key, label, fn = tasks[index]
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_shard_worker, args=(fn, str(cache.root), key, send), daemon=True
        )
        started = time.perf_counter()
        process.start()
        send.close()  # driver keeps only the read end
        running[process.sentinel] = _Running(
            index=index, process=process, conn=recv, started=started,
            deadline=(started + timeout_s) if timeout_s is not None else None,
            attempts=attempts,
        )

    def settle(entry: _Running) -> None:
        """A worker process exited: read its verdict, retry or record."""
        nonlocal executed
        entry.process.join()
        message = None
        if entry.conn.poll():
            try:
                message = entry.conn.recv()
            except EOFError:
                message = None
        entry.conn.close()
        executed += 1
        key, label, _fn = tasks[entry.index]
        if message is not None and message[0] == "ok":
            record(entry.index, STATUS_OK, entry.attempts, entry.started)
            return
        error = (
            message[1]
            if message is not None
            else f"worker died with exit code {entry.process.exitcode}"
        )
        if entry.attempts <= retries:
            queue.append((entry.index, entry.attempts + 1))
        else:
            record(entry.index, STATUS_ERROR, entry.attempts, entry.started, error)

    try:
        while queue or running:
            if abort_after is not None and executed >= abort_after and queue:
                aborted = True
                break
            while queue and len(running) < workers:
                index, attempts = queue.pop()
                launch(index, attempts)
            if not running:
                continue
            now = time.perf_counter()
            deadlines = [e.deadline for e in running.values() if e.deadline is not None]
            wait_s = max(min(deadlines) - now, 0.0) if deadlines else None
            ready = connection.wait(list(running), timeout=wait_s)
            for sentinel in ready:
                settle(running.pop(sentinel))
            now = time.perf_counter()
            for sentinel in [
                s for s, e in running.items()
                if e.deadline is not None and now >= e.deadline
            ]:
                entry = running.pop(sentinel)
                entry.process.terminate()
                entry.process.join()
                entry.conn.close()
                executed += 1
                if entry.attempts <= retries:
                    queue.append((entry.index, entry.attempts + 1))
                else:
                    record(
                        entry.index, STATUS_ERROR, entry.attempts, entry.started,
                        f"shard timed out after {timeout_s} s",
                    )
    finally:
        for entry in running.values():
            entry.process.terminate()
            entry.process.join()
            entry.conn.close()
    if aborted:
        raise ExecError(
            f"aborting after {executed} executed shards (simulated crash)"
        )
    return payloads, _finalize(outcomes)


def _finalize(outcomes: list[ShardOutcome | None]) -> list[ShardOutcome]:
    """Assert every slot settled; narrows the element type."""
    for index, outcome in enumerate(outcomes):
        if outcome is None:
            raise ExecError(f"shard {index} never settled — pool bookkeeping bug")
    return outcomes  # type: ignore[return-value]
