"""Active probing: jittered, byte-budgeted RTT/loss/throughput probes.

The classic overlay control loop (RON, SMART) spends a probe budget to
keep fresh path state.  :class:`ProbeScheduler` issues probes over a
:class:`~repro.core.pathset.PathSet`'s candidate paths ("direct" plus
one label per overlay node):

* each path is probed on its own jittered interval so probes do not
  synchronize into bursts,
* every probe costs bytes (pings, plus a short transfer that measures
  the path's split-overlay throughput) and the scheduler enforces an
  optional per-interval byte budget — when the budget is exhausted,
  probes are *skipped* and counted, not silently dropped,
* a probe against a path crossing a failed link times out: ``ok=False``,
  loss 1.0, infinite RTT — exactly what a real prober would report.

Hardening knobs (all off by default, so the PR-1 behaviour is the
baseline):

* ``timeout_ms`` — a probe whose RTT exceeds the deadline reports a
  timeout instead of a huge-but-valid RTT,
* ``max_retries`` / ``retry_backoff_s`` — a failed or lost probe is
  retried on an exponential backoff (with the scheduler's jitter)
  instead of waiting a full interval with no data,
* an optional probe-plane fault model (:class:`~repro.faults.injector.
  ProbeFaultModel`) can lose a probe, time it out, or serve a stale
  cached result — the measurement substrate misbehaving independently
  of the data plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.pathset import OverlayPathOption, PathSet, PathType
from repro.errors import ControlError, check
from repro.faults.events import ProbeFaultKind


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Outcome of probing one path at one instant."""

    label: str
    at_time: float
    ok: bool
    rtt_ms: float
    loss: float
    #: The scheduler always measures it; the policies rank a result
    #: without one (``None``) by RTT.
    throughput_mbps: float | None
    bytes_cost: int
    #: RTT to the path's ingress relay only (client <-> relay leg),
    #: when the prober measured it separately.  Anycast-style ingress
    #: assignment ranks on this; ``None`` falls back to ``rtt_ms``.
    ingress_rtt_ms: float | None = None

    def __post_init__(self) -> None:
        if self.bytes_cost < 0:
            raise ControlError(f"probe cost cannot be negative: {self.bytes_cost}")


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Probing knobs: cadence, jitter, cost model, budget."""

    interval_s: float = 30.0
    #: Each path's next probe fires interval * (1 +/- jitter_frac).
    jitter_frac: float = 0.1
    ping_count: int = 10
    ping_bytes: int = 64
    #: Bytes of the short transfer that estimates split-overlay throughput.
    throughput_probe_bytes: int = 262_144
    #: Max probe bytes per interval window across all paths (None = unlimited).
    budget_bytes_per_interval: int | None = None
    #: Probe deadline: a measured RTT above this reports a timeout
    #: (None = wait forever, the PR-1 behaviour).
    timeout_ms: float | None = None
    #: Failed/lost probes are retried this many times before the path
    #: falls back to its normal interval (0 = no retries).
    max_retries: int = 0
    #: First retry delay; doubles per attempt, capped at ``interval_s``.
    retry_backoff_s: float = 5.0
    #: Adapt the probe cadence to overall path health: tighten toward
    #: ``min_interval_s`` while any path is unhealthy, relax toward
    #: ``max_interval_s`` while all are healthy.  Off by default — the
    #: fixed-interval behaviour every earlier experiment locked in.
    adaptive: bool = False
    #: Cadence floor while trouble is visible (defaults to interval/4).
    min_interval_s: float | None = None
    #: Cadence ceiling while all paths are healthy (defaults to interval).
    max_interval_s: float | None = None
    #: Interval multiplier applied per tick while tightening (< 1).
    tighten_factor: float = 0.5
    #: Interval multiplier applied per relax step while healthy (> 1).
    relax_factor: float = 1.25

    def __post_init__(self) -> None:
        error = ControlError
        check(self.interval_s, "interval_s", gt=0, error=error)
        check(self.jitter_frac, "jitter_frac", ge=0, lt=1, error=error)
        check(self.ping_count, "ping_count", gt=0, error=error)
        check(self.ping_bytes, "ping_bytes", gt=0, error=error)
        check(self.throughput_probe_bytes, "throughput_probe_bytes", ge=0, error=error)
        if self.budget_bytes_per_interval is not None:
            check(self.budget_bytes_per_interval, "budget_bytes_per_interval", gt=0,
                  error=error)
        if self.timeout_ms is not None:
            check(self.timeout_ms, "timeout_ms", gt=0, error=error)
        check(self.max_retries, "max_retries", ge=0, error=error)
        check(self.retry_backoff_s, "retry_backoff_s", gt=0, error=error)
        if self.min_interval_s is not None:
            check(self.min_interval_s, "min_interval_s", gt=0, error=error)
        if self.max_interval_s is not None:
            check(self.max_interval_s, "max_interval_s", ge=self.floor_interval_s, error=error)
        elif self.min_interval_s is not None and self.min_interval_s > self.interval_s:
            raise ControlError(
                f"min_interval_s ({self.min_interval_s}) must not exceed interval_s "
                f"({self.interval_s}), the cadence ceiling while max_interval_s is unset"
            )
        check(self.tighten_factor, "tighten_factor", gt=0, lt=1, error=error)
        check(self.relax_factor, "relax_factor", gt=1, error=error)

    @property
    def floor_interval_s(self) -> float:
        """Adaptive cadence floor (defaults to a quarter of the interval)."""
        return (
            self.min_interval_s
            if self.min_interval_s is not None
            else self.interval_s / 4.0
        )

    @property
    def ceiling_interval_s(self) -> float:
        """Adaptive cadence ceiling (defaults to the base interval)."""
        return (
            self.max_interval_s if self.max_interval_s is not None else self.interval_s
        )


class ProbeScheduler:
    """Issues probes over a path set on jittered per-path timers."""

    def __init__(
        self,
        pathset: PathSet,
        config: ProbeConfig,
        rng: np.random.Generator,
        fault_model=None,
    ) -> None:
        self.pathset = pathset
        self.config = config
        self.rng = rng
        #: Optional probe-plane fault model: any object exposing
        #: ``outcome(label, now) -> ProbeFaultKind | None``.
        self.fault_model = fault_model
        self._options: dict[str, OverlayPathOption] = {
            option.name: option for option in pathset.options
        }
        self.labels: tuple[str, ...] = ("direct", *self._options)
        #: All paths are due immediately so the controller starts informed.
        self._next_due: dict[str, float] = {label: 0.0 for label in self.labels}
        self.last_result: dict[str, ProbeResult] = {}
        self._attempts: dict[str, int] = {label: 0 for label in self.labels}
        self.total_bytes = 0
        self.probes_sent = 0
        self.probes_skipped = 0
        self.probes_lost = 0
        self.probes_retried = 0
        self.probes_stale_served = 0
        self.probes_timed_out = 0
        self._window_start = 0.0
        self._window_bytes = 0
        #: Adaptive-cadence state: the interval currently in force.
        self.current_interval_s = config.interval_s
        self._last_relax = 0.0
        self.cadence_tightenings = 0
        self.cadence_relaxations = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def due(self, now: float) -> list[str]:
        """Labels whose probe timer has expired at ``now`` (sorted)."""
        return [label for label in self.labels if self._next_due[label] <= now]

    def adapt(self, now: float, all_healthy: bool) -> None:
        """Adapt the probe cadence to the controller's health view.

        While any path is unhealthy the interval tightens by
        ``tighten_factor`` per call down to the floor, and every
        pending probe timer is clamped so no path waits longer than
        one (new) interval — trouble shortens the time to the next
        look.  While all paths are healthy the interval relaxes by
        ``relax_factor`` toward the ceiling, rate-limited to one step
        per current interval so one quiet tick cannot undo the
        tightening.  No-op (and draws no randomness) unless
        :attr:`ProbeConfig.adaptive` is set.
        """
        if not self.config.adaptive:
            return
        if not all_healthy:
            self._last_relax = now
            tightened = max(
                self.config.floor_interval_s,
                self.current_interval_s * self.config.tighten_factor,
            )
            if tightened < self.current_interval_s:
                self.current_interval_s = tightened
                self.cadence_tightenings += 1
            # Pull in timers scheduled under the old, laxer cadence.
            horizon = now + self.current_interval_s
            for label in self.labels:
                if self._next_due[label] > horizon:
                    self._next_due[label] = horizon
            return
        if now - self._last_relax < self.current_interval_s:
            return
        relaxed = min(
            self.config.ceiling_interval_s,
            self.current_interval_s * self.config.relax_factor,
        )
        self._last_relax = now
        if relaxed > self.current_interval_s:
            self.current_interval_s = relaxed
            self.cadence_relaxations += 1

    def _jitter_factor(self) -> float:
        jitter = self.config.jitter_frac
        return 1.0 + float(self.rng.uniform(-jitter, jitter)) if jitter else 1.0

    def _reschedule(self, label: str, now: float) -> None:
        self._next_due[label] = now + self.current_interval_s * self._jitter_factor()

    def _schedule_next(self, label: str, now: float, ok: bool) -> None:
        """Normal interval after success; bounded backoff after failure.

        A failed (or lost) probe retries after ``retry_backoff_s * 2^n``
        (jittered, capped at the probe interval) up to ``max_retries``
        times, then gives the path its full interval back — bounded
        persistence, not a retry storm.
        """
        if ok or self.config.max_retries <= 0:
            self._attempts[label] = 0
            self._reschedule(label, now)
            return
        attempt = self._attempts[label]
        if attempt >= self.config.max_retries:
            self._attempts[label] = 0
            self._reschedule(label, now)
            return
        self._attempts[label] = attempt + 1
        self.probes_retried += 1
        backoff = self.config.retry_backoff_s * (2.0 ** attempt)
        delay = min(backoff * self._jitter_factor(), self.current_interval_s)
        self._next_due[label] = now + delay

    def _budget_allows(self, now: float, cost: int) -> bool:
        budget = self.config.budget_bytes_per_interval
        if budget is None:
            return True
        if now - self._window_start >= self.current_interval_s:
            self._window_start = now
            self._window_bytes = 0
        return self._window_bytes + cost <= budget

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(self, label: str, now: float) -> ProbeResult | None:
        """Probe one path; ``None`` when the byte budget forbids it.

        A skipped probe is rescheduled a full interval out, so a tight
        budget degrades probe freshness rather than deadlocking.
        """
        if label not in self._next_due:
            raise ControlError(f"unknown probe target {label!r}; have {list(self.labels)}")
        path = self.pathset.direct if label == "direct" else self._options[label].concatenated
        alive = path.is_alive()
        fault = self.fault_model.outcome(label, now) if self.fault_model else None
        cost = self.config.ping_count * self.config.ping_bytes
        if alive and fault is not ProbeFaultKind.LOST:
            cost *= 2  # echo replies come back
            if fault is not ProbeFaultKind.STALE:
                cost += self.config.throughput_probe_bytes
        if not self._budget_allows(now, cost):
            self.probes_skipped += 1
            self._reschedule(label, now)
            return None
        self._window_bytes += cost
        self.total_bytes += cost
        self.probes_sent += 1

        if fault is ProbeFaultKind.LOST:
            # The probe (or its reply) vanished: bytes spent, no data.
            self.probes_lost += 1
            self._schedule_next(label, now, ok=False)
            return None
        if fault is ProbeFaultKind.STALE and label in self.last_result:
            # The measurement service answered from cache: the previous
            # result is served again, original timestamp and all.
            self.probes_stale_served += 1
            self._schedule_next(label, now, ok=True)
            return self.last_result[label]

        timed_out = not alive
        rtt_ms = math.inf
        loss = 1.0
        throughput = 0.0
        if alive:
            metrics = path.metrics(now)
            rtt_ms, loss = metrics.rtt_ms, metrics.loss
            deadline = self.config.timeout_ms
            if fault is ProbeFaultKind.TIMEOUT or (
                deadline is not None and rtt_ms > deadline
            ):
                timed_out = True
                rtt_ms, loss = math.inf, 1.0
            else:
                throughput = self.pathset.rate(PathType.SPLIT_OVERLAY, label, now)
        if timed_out:
            self.probes_timed_out += 1
        result = ProbeResult(
            label=label,
            at_time=now,
            ok=not timed_out,
            rtt_ms=rtt_ms,
            loss=loss,
            throughput_mbps=throughput,
            bytes_cost=cost,
        )
        self._schedule_next(label, now, ok=result.ok)
        self.last_result[label] = result
        return result

    def probe_due(self, now: float) -> list[ProbeResult]:
        """Probe every due path; returns the results actually obtained."""
        results = []
        for label in self.due(now):
            result = self.probe(label, now)
            if result is not None:
                results.append(result)
        return results

    # ------------------------------------------------------------------
    # result ages
    # ------------------------------------------------------------------
    def result_age(self, label: str, now: float) -> float:
        """Seconds since the last result for ``label`` (inf when none).

        Stale-served results keep their original timestamp, so a probe
        plane answering from cache ages out just like a silent one.
        """
        result = self.last_result.get(label)
        return math.inf if result is None else now - result.at_time

    def freshest_age(self, now: float) -> float:
        """Age of the newest result across all paths (inf when none).

        Above the controller's blackout bound, *nothing* the scheduler
        holds is recent enough to act on.
        """
        return min((self.result_age(label, now) for label in self.labels), default=math.inf)

