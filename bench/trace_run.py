"""Run one ``repro`` command with every layer in ``layers.py`` wrapped.

    PYTHONPATH=src python bench/trace_run.py --out TRACE.json -- <repro argv>

Stdout is what ``python -m repro <argv>`` prints; the trace goes to
``TRACE.json``.  Each shard that ``ExecRunner.run`` forks resets its copy of
the table and writes it to the ``TRACE.shards/`` directory before returning;
this process then merges those files into its own totals.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shutil
import sys
import time
from pathlib import Path

import layers
from tracer import Tracer, install, when_imported


def _hook_exec(tracer: Tracer, shard_dir: Path, runners: list, runner_module) -> None:
    """Trace forked shards, and append every new ExecRunner to ``runners``."""
    from repro.exec.plan import ExecTask

    ExecRunner = runner_module.ExecRunner
    parent = os.getpid()

    def traced_shard(fn, label: str):
        def shard():
            if os.getpid() == parent:  # in-process backend: the live table counts it
                return fn()
            tracer.reset()
            start = time.perf_counter()
            payload = fn()
            compute_s = time.perf_counter() - start
            name = re.sub(r"[^A-Za-z0-9_.-]", "_", label)
            (shard_dir / f"{name}.{os.getpid()}.json").write_text(
                json.dumps(
                    {
                        "label": label,
                        "compute_s": compute_s,
                        "functions": tracer.table(),
                        "counters": tracer.counters,
                        "spans": tracer.spans,
                    }
                )
            )
            return payload

        return shard

    init, run = ExecRunner.__init__, ExecRunner.run

    @functools.wraps(init)
    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runners.append(self)

    @functools.wraps(run)
    def run_traced(self, tasks, stage="main"):
        tasks = [ExecTask(spec=t.spec, fn=traced_shard(t.fn, t.spec.label)) for t in tasks]
        return run(self, tasks, stage)

    ExecRunner.__init__ = register
    ExecRunner.run = run_traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="trace JSON to write")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- <repro argv>")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    install(tracer, layers.functions())
    shard_dir = args.out.with_suffix(".shards")
    shutil.rmtree(shard_dir, ignore_errors=True)  # left by an earlier, retaken run
    shard_dir.mkdir(parents=True)
    runners: list = []
    # Registered after install(), so it wraps the already timed ExecRunner.run.
    when_imported(
        "repro.exec.runner", functools.partial(_hook_exec, tracer, shard_dir, runners)
    )

    from repro import cli

    code = tracer.wrap(f"cli.{command[0]}", cli.main)(command)
    sys.stdout.flush()

    tables = [{"functions": tracer.table()}]
    counters = dict(tracer.counters)
    spans = [list(span) for span in tracer.spans]
    shards = []
    for path in sorted(shard_dir.glob("*.json")):
        shard = json.loads(path.read_text())
        tables.append(shard)
        for name, value in shard["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans += [
            [name, start, end, parent or f"exec.shard:{shard['label']}"]
            for name, start, end, parent in shard["spans"]
        ]
        shards.append(
            {
                "label": shard["label"],
                "compute_s": shard["compute_s"],
                "build_world_s": shard["functions"]
                .get("experiments.scenario.build_world", {})
                .get("s", 0.0),
            }
        )
    records = [record for runner in runners for record in runner.manifest.records]
    args.out.write_text(
        json.dumps(
            {
                "argv": command,
                "functions": layers.merged(tables),
                "counters": counters,
                "spans": spans,
                "exec": {
                    "workers": max((r.config.workers for r in runners), default=0),
                    "records": [
                        {"status": r.status, "attempts": r.attempts, "duration_s": r.duration_s}
                        for r in records
                    ],
                    "shards": shards,
                },
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
