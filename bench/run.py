#!/usr/bin/env python3
"""Closed-loop benchmark of the ``repro`` command line.

One client drives every workload: each ``python -m repro ...`` command
starts only after the previous one has exited, so at most two processes are
busy at once (a command's two exec workers while this process waits).  All
traffic is simulated; nothing opens a socket.

From the repository root::

    python3 bench/run.py --workload chaos --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --seed 7 --out bench-results.json
    python3 bench/run.py --quick --out quick.json

With ``--workload``, ``run.py`` measures that workload for ``--seconds`` and
prints its end-to-end metrics (``--trace 0``), or runs one more, traced
iteration and prints the per-layer metrics (``--trace 1``).  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``--workload``, a full pass runs every workload's
iterations round-robin, then one traced and one ``PYTHONHASHSEED=1``
iteration per workload, and writes a results file for ``bench/compare.py``.
``--quick`` is a smoke pass: one iteration of ``chaos`` and ``resume``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import BY_NAME, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: A calibration slower than this multiple of the fastest one seen in the
#: pass marks the host as busy: the sample around it is taken again.
NOISE_LIMIT = 1.15
NOISE_RETRIES = 2
#: Set-up samples per ``--workload`` run, even when fewer iterations fit.
MIN_SETUP_SAMPLES = 3
#: A ``--workload`` run must end within 180 s; commands share this budget.
RUN_BUDGET_S = 170.0
#: Per-command limit of a full pass.
PASS_TIMEOUT_S = 600.0
HEALTH = re.compile(rb"## Measurement health .*?(?=^## |\Z)", re.S | re.M)


def load_config() -> dict:
    """BENCHMARK.json: workload names, metric units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def calibration_kernel() -> int:
    """Fixed pure-Python work, about 0.12 s on an idle 2.1 GHz Xeon core."""
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class HostGuard:
    """Times the calibration kernel around samples and retakes noisy ones."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.retries = 0
        for _ in range(3):
            self.calibrate()

    def calibrate(self) -> float:
        start = time.perf_counter()
        calibration_kernel()
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def run(self, sample, may_retry=lambda: True):
        """``sample()``, taken again (at most twice) while the host is slow.

        Samples run back to back, so the calibration after one is the
        calibration before the next.  A sample that returns None failed and
        is never retaken.
        """
        for attempt in range(NOISE_RETRIES + 1):
            before = self.readings[-1]
            result = sample()
            after = self.calibrate()
            quiet = max(before, after) <= NOISE_LIMIT * min(self.readings)
            if result is None or quiet or attempt == NOISE_RETRIES or not may_retry():
                return result
            self.retries += 1

    @property
    def noise(self) -> float:
        """Calibration IQR / median over the whole pass."""
        return spread(self.readings)


@dataclass
class Finished:
    """One child process after it exited."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(argv: list[str], env: dict, timeout_s: float, log_dir: Path) -> Finished:
    """Run ``argv`` to completion; CPU and peak RSS come from ``wait4``.

    The rusage of the reaped child includes every descendant it waited for,
    so forked exec workers count toward the command's CPU time.
    """
    out, err = log_dir / "stdout", log_dir / "stderr"
    with out.open("wb") as stdout, err.open("wb") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT, start_new_session=True
        )
        watchdog = threading.Timer(max(timeout_s, 1.0), _kill_group, (child.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            _kill_group(child.pid)
            child.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(child.pid)  # anything the command left running in its group
    return Finished(
        code=child.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out.read_bytes(),
        stderr=err.read_bytes(),
    )


def _snapshot(directory: Path) -> list[tuple]:
    """Every file under ``directory`` with its size and mtime."""
    return sorted(
        (str(path), path.stat().st_size, path.stat().st_mtime_ns)
        for path in directory.rglob("*")
        if path.is_file()
    )


class WorkloadRun:
    """Measurement state of one workload in one benchmark process."""

    def __init__(
        self, workload: Workload, seed: int, guard: HostGuard, deadline: float | None
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.guard = guard
        self.deadline = deadline
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.setup_cache = self.work / "setup-cache"
        self.samples: list[dict] = []
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.references: list[bytes] = []
        self.expected: list[str] | None = None
        #: Output checks that apply to this workload; False once one fails.
        self.checks = {"stable_output": True, "traced_output_identical": True}
        if workload.reference:
            self.checks["matches_reference"] = True
        if workload.read_only_cache:
            self.checks["served_from_cache"] = True

    # -- child processes -------------------------------------------------
    def _env(self, hashseed: str) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=hashseed)
        return env

    def _timeout(self) -> float:
        if self.deadline is None:
            return PASS_TIMEOUT_S
        return self.deadline - time.perf_counter()

    def _fail(self, message: str) -> None:
        self.errors.append(message)
        return None

    def _command(self, template, cache: Path, trace: Path | None = None, hashseed="0"):
        """Run one command; returns (finished, comparable output, digest) or None."""
        report = self.work / "report.md"
        argv = [
            part.format(seed=self.seed, cache=cache, report=report) for part in template
        ]
        if trace is None:
            prefix = [sys.executable, "-m", "repro"]
        else:
            prefix = [sys.executable, str(ROOT / "bench" / "trace_run.py"), "--out", str(trace), "--"]
        finished = run_process(prefix + argv, self._env(hashseed), self._timeout(), self.work)
        if finished.code != 0:
            detail = finished.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return self._fail(f"{' '.join(template)}: exit {finished.code} {detail}")
        artifact = b""
        if "{report}" in template:
            # The health section prints wall time and shard tallies.
            artifact = HEALTH.sub(b"", report.read_bytes())
            report.unlink()
        digest = hashlib.sha256(finished.stdout + b"\0" + artifact).hexdigest()
        return finished, artifact or finished.stdout, digest

    # -- set-up ----------------------------------------------------------
    def prepare(self) -> bool:
        """Warm the bytecode cache, then run the workload's set-up commands."""
        self.work.mkdir(parents=True, exist_ok=True)
        if self._setup_sample() is None:
            return False
        for template in self.workload.setup:
            ran = self._command(template, self.setup_cache)
            if ran is None:
                return False
            self.references.append(ran[1])
        return True

    def _setup_sample(self) -> float | None:
        argv = ["world", "--seed", str(self.seed), "--scale", self.workload.scale]
        ran = self._command(argv, self.setup_cache)
        return None if ran is None else ran[0].wall_s

    # -- iterations ------------------------------------------------------
    def _iteration(self, traced: bool = False, hashseed: str = "0") -> dict | None:
        """Run the command list once; None if a command or a check failed."""
        workload = self.workload
        cache = self.work / "cache" if workload.fresh_cache else self.setup_cache
        before = _snapshot(cache) if workload.read_only_cache else None
        totals = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        digests, traces = [], []
        try:
            for index, template in enumerate(workload.commands):
                trace = self.work / f"trace-{index}.json" if traced else None
                ran = self._command(template, cache, trace, hashseed)
                if ran is None:
                    return None
                finished, comparable, digest = ran
                totals["wall_s"] += finished.wall_s
                totals["cpu_s"] += finished.cpu_s
                totals["peak_rss_mb"] = max(totals["peak_rss_mb"], finished.rss_mb)
                digests.append(digest)
                reference = workload.reference[index] if workload.reference else None
                if reference is not None and comparable != self.references[reference]:
                    self.checks["matches_reference"] = False
                    return self._fail(
                        f"{' '.join(template)}: output differs from set-up command "
                        f"{' '.join(workload.setup[reference])}"
                    )
                if trace is not None:
                    traces.append(json.loads(trace.read_text()))
        finally:
            if workload.fresh_cache:
                shutil.rmtree(cache, ignore_errors=True)
        if before is not None and _snapshot(cache) != before:
            self.checks["served_from_cache"] = False
            return self._fail("a --resume iteration recomputed a shard (the cache changed)")
        return dict(totals, digests=digests, traces=traces)

    def _stable(self, outcome: dict | None, check: str) -> dict | None:
        """Fail ``outcome`` unless its outputs equal the first iteration's."""
        if outcome is None:
            return None
        if self.expected is None:
            self.expected = outcome["digests"]
        if outcome["digests"] != self.expected:
            self.checks[check] = False
            return self._fail(f"{check}: output differs from the first iteration")
        return outcome

    def measure_one(self, retry_until: float | None = None) -> bool:
        """One guarded sample: a set-up sample then one iteration.

        A noisy sample is retaken only before ``retry_until``, if given.
        """

        def sample():
            setup_s = self._setup_sample()
            if setup_s is None:
                return None
            outcome = self._stable(self._iteration(), "stable_output")
            return None if outcome is None else (setup_s, outcome)

        self.attempted += 1
        taken = self.guard.run(
            sample, lambda: retry_until is None or time.perf_counter() < retry_until
        )
        if taken is None:
            self.failed += 1
            return False
        self.setup_s.append(taken[0])
        self.samples.append({k: taken[1][k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        return True

    def extra_setup(self) -> None:
        """Top the set-up samples up to MIN_SETUP_SAMPLES."""
        while len(self.setup_s) < MIN_SETUP_SAMPLES:
            setup_s = self.guard.run(self._setup_sample)
            if setup_s is None:
                self.attempted += 1
                self.failed += 1
                return
            self.setup_s.append(setup_s)

    def traced(self, retake: bool = True) -> dict | None:
        """One traced iteration: per-layer metrics, top self times, spans."""
        self.attempted += 1
        outcome = self.guard.run(
            lambda: self._stable(self._iteration(traced=True), "traced_output_identical"),
            lambda: retake,
        )
        if outcome is None:
            self.failed += 1
            return None
        walls = [sample["wall_s"] for sample in self.samples]
        overhead = outcome["wall_s"] / statistics.median(walls) - 1.0 if walls else 0.0
        traces = outcome["traces"]
        return {
            "metrics": layers.summarize(traces, overhead),
            "top_self_s": layers.top_self(traces),
            "spans": {
                " ".join(template): trace["spans"]
                for template, trace in zip(self.workload.commands, traces)
            },
        }

    def hashseed_invariant(self) -> bool | None:
        """Whether one iteration under PYTHONHASHSEED=1 prints the same.

        Different output is informational; a failed command is a failure.
        """
        self.attempted += 1
        outcome = self._iteration(hashseed="1")
        if outcome is None:
            self.failed += 1
            return None
        return outcome["digests"] == self.expected

    # -- results ---------------------------------------------------------
    def end_to_end(self) -> dict[str, list[float]]:
        """Samples of every end-to-end metric."""
        values = {k: [s[k] for s in self.samples] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = self.setup_s
        return values

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, config: dict) -> int:
    """Measure one workload for ``seconds``; print metrics and the JSON line."""
    start = time.perf_counter()
    guard = HostGuard()
    run = WorkloadRun(BY_NAME[name], seed, guard, start + RUN_BUDGET_S)
    try:
        layer_values = None
        if run.prepare():
            measure_end = time.perf_counter() + seconds
            while run.measure_one(measure_end) and time.perf_counter() < measure_end:
                pass
            run.extra_setup()
            if trace and not run.failed:
                traced = run.traced(retake=False)
                layer_values = traced["metrics"] if traced else None
        else:
            run.attempted = run.failed = 1
    finally:
        run.close()
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)

    if trace:
        wanted = config["per_layer"]
        values = layer_values or {}
    else:
        wanted = config["end_to_end"]
        samples = run.end_to_end()
        values = {key: statistics.median(v) for key, v in samples.items() if v}
        for key, v in samples.items():
            if v:
                print(f"{name} {key}: {values[key]:.4f} (median of {len(v)}, IQR {spread(v):.1%})")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }
    print(
        f"{name}: calibration {statistics.median(guard.readings):.4f} s, host noise "
        f"{guard.noise:.1%}, {guard.retries} noisy samples retaken"
    )
    correct = run.failed == 0 and len(metrics) == len(wanted)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    if not values:
        return {"median": None, "n": 0, "unit": unit}
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "iqr_frac": spread(values),
        "n": len(values),
        "unit": unit,
        "samples": values,
    }


def run_pass(names: list[str], seed: int, iterations: int | None, hashseed: bool,
             config: dict, out: Path) -> int:
    """Every workload round-robin, then the traced pass; writes ``out``."""
    guard = HostGuard()
    runs = [WorkloadRun(BY_NAME[name], seed, guard, None) for name in names]
    results: dict[str, dict] = {}
    try:
        ready = [run for run in runs if run.prepare()]
        for run in runs:
            if run not in ready:
                run.attempted = run.failed = 1
        rounds = max(iterations or run.workload.iterations for run in ready) if ready else 0
        for index in range(rounds):
            for run in ready:
                if index < (iterations or run.workload.iterations):
                    run.measure_one()
        for run in ready:
            traced = run.traced()
            invariant = run.hashseed_invariant() if hashseed else None
            results[run.workload.name] = {"traced": traced, "hashseed_invariant": invariant}
    finally:
        for run in runs:
            run.close()

    units = {metric["name"]: metric["unit"] for metric in config["end_to_end"]}
    report: dict = {
        "seed": seed,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "host_noise": guard.noise,
        "noise_retries": guard.retries,
        "workloads": {},
    }
    failed = 0
    for run in runs:
        name = run.workload.name
        extra = results.get(name, {})
        traced = extra.get("traced")
        failed += run.failed
        report["workloads"][name] = {
            "attempted": run.attempted,
            "failed": run.failed,
            "error_rate": run.failed / max(run.attempted, 1),
            "errors": run.errors,
            "metrics": {k: summary(v, units[k]) for k, v in run.end_to_end().items()},
            "checks": run.checks,
            "hashseed_invariant": extra.get("hashseed_invariant"),
            "layers": traced["metrics"] if traced else {},
            "top_self_s": traced["top_self_s"] if traced else [],
            "spans": traced["spans"] if traced else {},
        }
        metrics = report["workloads"][name]["metrics"]
        line = ", ".join(
            f"{k} {m['median']:.4f} {m['unit']} (n={m['n']}, IQR {m['iqr_frac']:.1%})"
            for k, m in metrics.items()
            if m["median"] is not None
        )
        print(f"{name}: {line}; error_rate {run.failed}/{run.attempted}")
        for error in run.errors:
            print(f"  error: {error}")
    print(f"host noise {guard.noise:.1%}, {guard.retries} noisy samples retaken")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    config = load_config()
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description="repro closed-loop benchmark")
    parser.add_argument("--workload", choices=names, help="measure one workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one iteration of chaos and resume")
    parser.add_argument("--out", type=Path, default=ROOT / "bench-results.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), config)
    if args.quick:
        return run_pass(["chaos", "resume"], args.seed, 1, False, config, args.out)
    return run_pass(names, args.seed, None, True, config, args.out)


if __name__ == "__main__":
    sys.exit(main())
