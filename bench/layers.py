"""The layers the traced pass measures, and what each should move.

Every timed function is named ``<repro module path>.<qualname>`` and
reports ``.calls``, ``.s`` (inclusive) and ``.self_s``.  Each layer states,
before anything is measured, which end-to-end metric it should move and on
which workloads; ``test_bench.py`` checks that every per-layer metric in
BENCHMARK.json is covered here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from workloads import BY_NAME

ALL = tuple(BY_NAME)


def _duration(args: tuple, kwargs: dict) -> float:
    return args[1] if len(args) > 1 else kwargs["duration_s"]


def _tick_count(counter: str):
    """Hook for a ``run(duration_s)`` loop that steps by ``self.tick_s``."""

    def hook(args, kwargs, _result):
        return {counter: math.ceil(_duration(args, kwargs) / args[0].tick_s - 1e-9)}

    return hook


def _segments(args, _kwargs, _result):
    tcp = args[0]
    return {
        "transport.packetsim.segments": tcp.delivered_segments + tcp.retransmissions,
        "transport.packetsim.retransmissions": tcp.retransmissions,
    }


def _flows(_args, _kwargs, result):
    return {"demand.flows": result["flows"]}


@dataclass(frozen=True)
class Fn:
    """One wrapped callable: ``module`` and ``qualname`` inside ``repro``."""

    module: str
    qualname: str
    #: Called so often that only aggregates are kept (no per-call span).
    hot: bool = False
    #: ``(args, kwargs, result)`` -> counter increments, after each call.
    on_return: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('repro.')}.{self.qualname}"


@dataclass(frozen=True)
class Metric:
    """One per-layer metric as BENCHMARK.json lists it."""

    name: str
    unit: str
    better: str


@dataclass(frozen=True)
class Layer:
    """A group of layer metrics and the end-to-end metrics they should move."""

    title: str
    functions: tuple[Fn, ...]
    moves: dict[str, tuple[str, ...]]
    #: Metrics beyond the functions' calls, s and self_s.
    derived: tuple[Metric, ...] = ()


LAYERS: tuple[Layer, ...] = (
    Layer(
        "world build",
        (
            Fn("repro.experiments.scenario", "build_world"),
            Fn("repro.net.topology", "generate_topology"),
            Fn("repro.net.world", "Internet.__init__"),
        ),
        {"setup_s": ALL, "wall_s": ("paper", "resume")},
    ),
    Layer(
        "BGP and path expansion",
        (
            Fn("repro.net.bgp", "BgpRouting.routes_to", hot=True),
            Fn("repro.net.world", "Internet.resolve_path", hot=True),
            Fn("repro.net.world", "Internet.resolve_live_path", hot=True),
            Fn("repro.core.pathset", "PathSet.build", hot=True),
        ),
        {"wall_s": ("paper",)},
    ),
    Layer(
        "link-metric evaluation",
        (
            Fn("repro.net.path", "RouterPath.metrics", hot=True),
            Fn("repro.net.fastpath", "FastPath.metric_lists", hot=True),
            Fn("repro.transport.throughput", "steady_state_throughput_mbps", hot=True),
        ),
        {"wall_s": ("paper", "chaos")},
        (Metric("net.fastpath.fold_ratio", "ratio", "higher"),),
    ),
    Layer(
        "fault effects",
        (
            Fn("repro.faults.injector", "FaultInjector.apply", hot=True),
            Fn("repro.faults.injector", "FaultInjector.effects_at", hot=True),
        ),
        {"wall_s": ("chaos",)},
    ),
    Layer(
        "controller ticks",
        (
            Fn(
                "repro.control.controller",
                "OverlayController.run",
                on_return=_tick_count("control.ticks"),
            ),
            Fn("repro.control.probes", "ProbeScheduler.probe", hot=True),
        ),
        {"wall_s": ("chaos", "sharded")},
        (Metric("control.ticks", "count", "lower"),),
    ),
    Layer(
        "transport engines",
        (
            Fn(
                "repro.transport.fluid",
                "FluidSimulator.run",
                on_return=_tick_count("transport.fluid.ticks"),
            ),
            Fn("repro.transport.mptcp", "MptcpConnection.run"),
            Fn("repro.transport.packetsim", "PacketLevelTcp.run", on_return=_segments),
        ),
        {"wall_s": ("transport",)},
        (
            Metric("transport.fluid.ticks", "count", "lower"),
            Metric("transport.packetsim.segments", "count", "lower"),
            Metric("transport.packetsim.retransmit_ratio", "ratio", "lower"),
        ),
    ),
    Layer(
        "demand fixed point",
        (
            Fn("repro.demand.engine", "DemandEngine.epoch_metrics", on_return=_flows),
            Fn("repro.demand.aggregate", "solve_epoch", hot=True),
        ),
        {"wall_s": ("demand", "sharded")},
        (Metric("demand.flows", "count", "lower"),),
    ),
    Layer(
        "measurement and analysis",
        (
            Fn("repro.measure.runner", "MeasurementCampaign.run"),
            Fn("repro.analysis.c45", "C45Tree.fit"),
        ),
        {"wall_s": ("paper",)},
    ),
    Layer(
        "exec fork, cache and merge",
        (
            Fn("repro.exec.runner", "ExecRunner.run"),
            Fn("repro.exec.runner", "ExecRunner.run_inline"),
            Fn("repro.exec.cache", "ResultCache.lookup", hot=True),
            Fn("repro.exec.cache", "ResultCache.get", hot=True),
            Fn("repro.exec.cache", "ResultCache.put", hot=True),
        ),
        {"wall_s": ("sharded", "resume"), "cpu_s": ("sharded",)},
        (
            Metric("exec.shards", "count", "lower"),
            Metric("exec.shards_cached", "count", "higher"),
            Metric("exec.shards_failed", "count", "lower"),
            Metric("exec.retries", "count", "lower"),
            Metric("exec.cache_hit_ratio", "ratio", "higher"),
            Metric("exec.shard.compute_s", "s", "lower"),
            Metric("exec.shard.build_world_s", "s", "lower"),
            Metric("exec.shard.overhead_s", "s", "lower"),
            Metric("exec.parallel_efficiency", "ratio", "higher"),
        ),
    ),
    Layer(
        "glue: CLI rendering and anything unattributed",
        (),
        {"wall_s": ALL},
        tuple(
            Metric(f"cli.{verb}.self_s", "s", "lower")
            for verb in ("report", "colo", "chaos", "control", "demand", "run")
        )
        + (Metric("trace.overhead_frac", "ratio", "lower"),),
    ),
)

#: Per-function statistics and their (unit, better).
STATS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}


def functions() -> list[Fn]:
    """Every wrapped callable, in layer order."""
    return [fn for layer in LAYERS for fn in layer.functions]


def _metrics_of(layer: Layer) -> list[Metric]:
    timed = [Metric(f"{fn.name}.{stat}", *STATS[stat]) for fn in layer.functions for stat in STATS]
    return timed + list(layer.derived)


def metrics() -> list[Metric]:
    """Every per-layer metric the traced pass reports, in layer order."""
    return [metric for layer in LAYERS for metric in _metrics_of(layer)]


def layer_of(metric_name: str) -> Layer | None:
    """The layer a per-layer metric belongs to, or None."""
    for layer in LAYERS:
        if any(metric.name == metric_name for metric in _metrics_of(layer)):
            return layer
    return None


def merged(traces: list[dict]) -> dict[str, dict[str, float]]:
    """The function tables of several traced commands, summed by name."""
    table: dict[str, dict[str, float]] = {}
    for trace in traces:
        for name, row in trace["functions"].items():
            mine = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat, value in row.items():
                mine[stat] += value
    return table


def summarize(traces: list[dict], overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of one traced iteration (one trace per command)."""
    table = merged(traces)
    counters: dict[str, float] = {}
    records, shards = [], []
    worker_s = 0.0  # workers x seconds inside ExecRunner.run, per command
    for trace in traces:
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        records += trace["exec"]["records"]
        shards += trace["exec"]["shards"]
        run_s = trace["functions"].get("exec.runner.ExecRunner.run", {}).get("s", 0.0)
        worker_s += trace["exec"]["workers"] * run_s

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for fn in functions():
        for stat in STATS:
            values[f"{fn.name}.{stat}"] = table.get(fn.name, {}).get(stat, 0)
    compute_s = sum(shard["compute_s"] for shard in shards)
    executed_s = sum(r["duration_s"] for r in records if r["status"] == "ok")
    cached = sum(1 for r in records if r["status"] == "cached")
    segments = counters.get("transport.packetsim.segments", 0)
    values.update(
        {
            "net.fastpath.fold_ratio": ratio(
                calls("net.fastpath.FastPath.metric_lists"), calls("net.path.RouterPath.metrics")
            ),
            "control.ticks": counters.get("control.ticks", 0),
            "transport.fluid.ticks": counters.get("transport.fluid.ticks", 0),
            "transport.packetsim.segments": segments,
            "transport.packetsim.retransmit_ratio": ratio(
                counters.get("transport.packetsim.retransmissions", 0), segments
            ),
            "demand.flows": counters.get("demand.flows", 0),
            "exec.shards": len(records),
            "exec.shards_cached": cached,
            "exec.shards_failed": sum(1 for r in records if r["status"] == "error"),
            "exec.retries": sum(max(r["attempts"] - 1, 0) for r in records),
            "exec.cache_hit_ratio": ratio(cached, len(records)),
            "exec.shard.compute_s": compute_s,
            "exec.shard.build_world_s": sum(shard["build_world_s"] for shard in shards),
            "exec.shard.overhead_s": executed_s - compute_s if shards else 0.0,
            "exec.parallel_efficiency": ratio(compute_s, worker_s),
            "trace.overhead_frac": overhead_frac,
        }
    )
    for metric in metrics():
        if metric.name.startswith("cli."):
            verb = metric.name.removesuffix(".self_s")
            values[metric.name] = table.get(verb, {}).get("self_s", 0.0)
    return values


def top_self(traces: list[dict], n: int = 10) -> list[tuple[str, float]]:
    """The ``n`` names with the most self time across the traced commands."""
    table = merged(traces)
    ranked = sorted(table.items(), key=lambda item: item[1]["self_s"], reverse=True)
    return [(name, row["self_s"]) for name, row in ranked[:n]]
