"""Shard task lists and the one function that executes them.

Every study builds its shard list once, as :class:`ExecTask` objects,
and hands it to :func:`run_tasks`: in-process without a runner, on the
shard pool with one.  Both paths call the same ``fn`` per shard, so a
serial run and a sharded run execute the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.exec.spec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.exec.runner import ExecRunner


@dataclass(frozen=True)
class ExecTask:
    """One schedulable shard: its identity plus the work itself.

    ``fn`` must be a pure function of the spec — same spec, same
    payload bytes — and must return a JSON-serializable value.  With
    the default ``fork`` pool it may close over driver state (a built
    world, a ranked path list); that state is an optimization, never
    an input, because the spec fully determines it.
    """

    spec: TaskSpec
    fn: Callable[[], Any]


def run_tasks(
    tasks: Sequence[ExecTask],
    runner: "ExecRunner | None" = None,
    stage: str = "main",
    inline: bool = False,
    prepare: Callable[[], Any] | None = None,
) -> list[Any]:
    """Execute ``tasks``; returns their payloads in task order.

    Without ``runner`` each task's ``fn`` runs in order in this
    process: no fork, no cache, no manifest.  With one, the list runs
    through :meth:`ExecRunner.run` (or :meth:`ExecRunner.run_inline`
    when ``inline``, for tasks that must stay in the driver) and any
    shard that exhausted its retries raises
    :class:`~repro.errors.ExecError`.

    ``prepare`` builds the inputs the shards share (a world, a pair
    list), in this process and before any shard, so forked shards
    inherit them instead of each rebuilding.  It is skipped when the
    runner resumes and every task's key is already cached, since then
    no shard computes.  The shard ``fn``s must reach those inputs
    through the same memo, so a cached entry that later reads as torn
    still computes.
    """
    if prepare is not None and not (runner is not None and runner.all_cached(tasks)):
        prepare()
    if runner is None:
        return [task.fn() for task in tasks]
    execute = runner.run_inline if inline else runner.run
    payloads = execute(tasks, stage=stage)
    runner.raise_on_errors()
    return payloads
