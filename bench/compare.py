#!/usr/bin/env python3
"""Compare two benchmark results files, workload by workload.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py bench/baseline.json#0 bench/baseline.json#1

A and B are files written by ``bench/run.py`` (a full pass); ``FILE#N``
picks pass N of a file that holds several, such as ``bench/baseline.json``.
For each (workload, end-to-end metric) pair the verdict uses that metric's
bound in BENCHMARK.json:

* unresolved: either side's IQR, or for a time either side's host noise,
  exceeds the bound, so the runs cannot tell a change of that size from
  noise;
* regressed or improved: B's median is worse or better than A's by more
  than the bound;
* unchanged: otherwise.

Exits 1 on any regression, or when a workload's error rate rose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(spec: str) -> dict:
    """One pass: ``path`` or ``path#index`` for a file with ``passes``."""
    path, _, index = spec.partition("#")
    data = json.loads(Path(path).read_text())
    return data["passes"][int(index or 0)] if "passes" in data else data


def verdict(a: dict, b: dict, noise: float, metric: dict) -> str:
    """The verdict for B's summary of ``metric`` against A's.

    ``noise`` is the host noise; it blurs times, not memory.
    """
    if not a.get("median") or not b.get("median"):
        return "unresolved"
    bound = metric["bound"]
    if metric["unit"] != "s":
        noise = 0.0
    if max(a["iqr_frac"], b["iqr_frac"], noise) > bound:
        return "unresolved"
    change = b["median"] / a["median"] - 1.0
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, config: dict) -> tuple[list[str], bool]:
    """Report lines, and whether anything regressed or failed more often."""
    noise = max(a.get("host_noise", 0.0), b.get("host_noise", 0.0))
    lines = [f"host noise: A {a.get('host_noise', 0.0):.1%}, B {b.get('host_noise', 0.0):.1%}"]
    bad = False
    for workload in config["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            lines.append(f"{name}: missing from one side")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in config["end_to_end"]:
            ma, mb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            result = verdict(ma, mb, noise, metric)
            bad |= result == "regressed"
            unit = metric["unit"]
            if ma.get("median") and mb.get("median"):
                ratio = f"{mb['median'] / ma['median']:.3f}x of {ma['median']:.4f} {unit}"
            else:
                ratio = "no samples"
            lines.append(
                f"{name:<10} {metric['name']:<12} B {mb.get('median') or 0:.4f} {unit:<3} "
                f"= {ratio} (IQR A {ma.get('iqr_frac', 0):.1%}, B {mb.get('iqr_frac', 0):.1%}, "
                f"bound {metric['bound']:.0%})  {result}"
            )
        rate_a, rate_b = wa["error_rate"], wb["error_rate"]
        if rate_b > rate_a:
            bad = True
            lines.append(
                f"{name:<10} error_rate   B {wb['failed']}/{wb['attempted']} "
                f"> A {wa['failed']}/{wa['attempted']}  regressed"
            )
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(load(args[0]), load(args[1]), config)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
