"""Batched measurement campaigns.

The longitudinal study (Sec. IV) samples 30 paths 50 times at 3-hour
intervals over a week; the MPTCP validation (Sec. VI-B) repeats
measurements 5 times at 6-hour intervals.  ``MeasurementCampaign``
drives any set of per-instant measurement tasks across such a schedule,
setting the world clock to each iteration's instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import MeasurementError, check
from repro.exec.plan import ExecTask, run_tasks
from repro.exec.shard import default_shard_count, partition_indices
from repro.exec.spec import TaskSpec
from repro.net.world import Internet

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from repro.exec.runner import ExecRunner


@dataclass(frozen=True, slots=True)
class TaskCounts:
    """How one task fared across a campaign."""

    ok: int = 0
    errors: int = 0


@dataclass
class CampaignSummary:
    """Per-task ok/error tallies for one campaign run.

    Error-marked samples are silent by design — one flaky vantage point
    must not abort a week-long campaign — but silence invites rot.  The
    summary makes the flakiness visible without changing how results
    are consumed.
    """

    counts: dict[str, TaskCounts] = field(default_factory=dict)

    @property
    def total_ok(self) -> int:
        """Successful samples across every task."""
        return sum(c.ok for c in self.counts.values())

    @property
    def total_errors(self) -> int:
        """Error-marked samples across every task."""
        return sum(c.errors for c in self.counts.values())

    def flaky_tasks(self) -> tuple[str, ...]:
        """Tasks with at least one error-marked sample (sorted)."""
        return tuple(
            sorted(task_id for task_id, c in self.counts.items() if c.errors)
        )


@dataclass(frozen=True, slots=True)
class Sample:
    """One measurement of one task at one instant.

    ``ok`` is False for error-marked samples: the task raised instead
    of returning a value, ``value`` is None, and ``error`` carries the
    exception text.  Downstream analysis filters on ``ok`` rather than
    losing a whole campaign to one flaky task.
    """

    task_id: str
    iteration: int
    at_time: float
    value: Any
    ok: bool = True
    error: str | None = None


class MeasurementCampaign:
    """Runs tasks repeatedly at a fixed interval."""

    def __init__(self, internet: Internet, interval_s: float, iterations: int) -> None:
        self.internet = internet
        self.interval_s = check(interval_s, "interval_s", gt=0, error=MeasurementError)
        self.iterations = check(iterations, "iterations", gt=0, error=MeasurementError)
        #: Tallies of the most recent :meth:`run` (None before any run).
        self.summary: CampaignSummary | None = None

    def run(
        self,
        tasks: dict[str, Callable[[float], Any]],
        runner: "ExecRunner | None" = None,
        *,
        seed: int = 0,
        params: dict[str, Any] | None = None,
        kind: str = "campaign.samples",
        metrics=None,
        batch: Callable[[list[str]], Callable[[float], list[Any]]] | None = None,
    ) -> dict[str, list[Sample]]:
        """Execute every task at every iteration.

        Tasks receive the world time and return any value (typically a
        :class:`~repro.transport.throughput.FlowStats`).  Tasks are
        partitioned into seed-stable shards; each shard replays every
        iteration for its task subset at the *absolute* instants
        ``now + i * interval_s`` (via ``set_time``, so shard order
        cannot matter), so scheduled failures and diurnal load apply.
        The shards run in-process without ``runner`` and on the
        :mod:`repro.exec` pool with one.  Either way the results are
        equal only when tasks are deterministic functions of time — the
        contract every simulated measurement here satisfies; tasks
        drawing from a shared sequential RNG stream must derive
        per-task generators instead.

        ``params`` must fingerprint everything that shapes the task
        values (world seed and scale, config knobs...): together with
        ``seed`` it forms the cache key, so an incomplete fingerprint
        would let stale cached samples impersonate fresh ones.  On the
        pool, sample values round-trip through the JSON result cache
        and come back as plain data (dicts/lists/floats).

        A task that raises does not abort the campaign: the failure is
        recorded as an error-marked :class:`Sample` (``ok=False``) and
        every other task — and every later iteration — still runs, the
        way a real measurement harness tolerates flaky vantage points.
        Per-task tallies land in :attr:`summary`; when ``metrics`` (a
        :class:`~repro.control.metrics.MetricsRegistry`, duck-typed) is
        given, every sample also increments a
        ``campaign_samples_total{task=..., outcome=ok|error}`` counter.
        The clock ends on the last iteration's instant.

        ``batch``, when given, maps a shard's task ids to one callable
        that measures all of them at an instant and returns their
        values in id order; it must equal the per-task calls.  At an
        instant where it raises, the shard falls back to the per-task
        calls, so the failing task still gets its own error-marked
        sample and its neighbours stay ok.
        """
        if not tasks:
            raise MeasurementError("campaign has no tasks")
        task_ids = list(tasks)
        shards = default_shard_count(len(task_ids))
        ranges = partition_indices(len(task_ids), shards)
        base = self.internet.now
        spec_params = {
            "task_ids": task_ids,
            "interval_s": self.interval_s,
            "iterations": self.iterations,
            **(params or {}),
        }

        def shard_fn(ids: list[str]) -> Callable[[], list[dict[str, Any]]]:
            def fn() -> list[dict[str, Any]]:
                collected: list[dict[str, Any]] = []
                measure_all = batch(ids) if batch is not None else None
                for iteration in range(self.iterations):
                    now = base + iteration * self.interval_s
                    self.internet.set_time(now)
                    try:
                        values = measure_all(now) if measure_all else None
                    except Exception:
                        values = None  # measured task by task below
                    for k, task_id in enumerate(ids):
                        if values is not None:
                            value, ok, error = values[k], True, None
                        else:
                            try:
                                value, ok, error = tasks[task_id](now), True, None
                            except Exception as exc:
                                value, ok = None, False
                                error = f"{type(exc).__name__}: {exc}"
                        collected.append(
                            {
                                "task_id": task_id,
                                "iteration": iteration,
                                "at_time": now,
                                "value": value,
                                "ok": ok,
                                "error": error,
                            }
                        )
                return collected

            return fn

        exec_tasks = [
            ExecTask(
                spec=TaskSpec(
                    kind=kind,
                    seed=seed,
                    shard_index=i,
                    shard_count=shards,
                    params=spec_params,
                ),
                fn=shard_fn([task_ids[j] for j in span]),
            )
            for i, span in enumerate(ranges)
        ]
        results: dict[str, list[Sample]] = {task_id: [] for task_id in task_ids}
        for payload in run_tasks(exec_tasks, runner, stage=kind):
            for row in payload:
                results[row["task_id"]].append(Sample(**row))
        for samples in results.values():
            samples.sort(key=lambda s: s.iteration)
        self.internet.set_time(base + (self.iterations - 1) * self.interval_s)
        self.summary = CampaignSummary(
            counts={
                task_id: TaskCounts(
                    ok=sum(1 for s in samples if s.ok),
                    errors=sum(1 for s in samples if not s.ok),
                )
                for task_id, samples in results.items()
            }
        )
        if metrics is not None:
            for task_id, counts in self.summary.counts.items():
                for outcome, count in (("ok", counts.ok), ("error", counts.errors)):
                    if count:
                        metrics.counter(
                            "campaign_samples_total",
                            {"task": task_id, "outcome": outcome},
                        ).inc(count)
        return results
