#!/usr/bin/env python
"""Record a per-PR benchmark snapshot as ``BENCH_<area>.json``.

The BENCH trajectory: every PR that lands a perf-relevant subsystem
commits a small JSON snapshot of its headline numbers, produced by
this script, so later sessions can diff "what did this cost when it
landed" against "what does it cost now" without re-deriving the
harness.  Snapshots are measurements, not gates — the hard assertions
live in ``benchmarks/``.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_record.py demand
    PYTHONPATH=src python scripts/bench_record.py --area net --quick
    PYTHONPATH=src python scripts/bench_record.py --area net --check BENCH_net.json

Each area times a hot loop (e.g. paths/sec, epochs/sec) plus a small
sharded campaign's wall-clock at workers=1 and workers=8 (fresh
caches — measuring compute, not cache hits).  ``--quick`` shrinks the
``net`` area to CI-smoke size; ``--check`` compares the fresh
paths/sec against a committed snapshot and fails on a >2x regression.

Wall-clock numbers vary by machine; the JSON records the worker
counts and sizes alongside so the trajectory stays interpretable.  A
``baseline`` block already present in the output file (the pre-PR
numbers recorded when an optimisation landed) is preserved verbatim
across re-runs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Timed bursts per ``paths_per_sec`` reading; the median is reported.
PATH_RATE_REPEATS = 5
#: Alternating timed runs per packet engine; each engine's median is reported.
PACKET_RUN_REPEATS = 5


def _bench_demand() -> dict:
    """The demand engine's headline numbers (see DESIGN.md §13)."""
    from repro.exec.runner import ExecConfig, ExecRunner
    from repro.experiments.demand_exp import (
        DemandConfig,
        _build_engine,
        _study_inputs,
        run_demand,
    )

    config = DemandConfig(seed=7, scale="small")
    pairs, relays, model = _study_inputs(config)

    # Epoch throughput at 100x load: >= 1M concurrent flows per epoch,
    # timed as one batched call, the way the study runs an arm.
    engine = _build_engine(pairs, relays, model, "qps-weighted", 100.0, config)
    epochs = 10
    start = time.perf_counter()
    metrics = engine.run(range(epochs), config.epoch_s)
    elapsed = time.perf_counter() - start
    total_flows = sum(epoch["flows"] for epoch in metrics)

    # Campaign wall-clock at 1 and 8 workers, fresh caches each.
    campaign = DemandConfig(seed=7, scale="small", epochs=12, levels=(1.0, 8.0, 100.0))
    walls = {}
    for workers in (1, 8):
        with tempfile.TemporaryDirectory() as cache_dir:
            runner = ExecRunner(ExecConfig(workers=workers, cache_dir=cache_dir))
            begin = time.perf_counter()
            run_demand(campaign, runner)
            walls[workers] = round(time.perf_counter() - begin, 3)

    return {
        "epochs_per_sec": round(epochs / elapsed, 2),
        "flows_per_sec": round(total_flows / elapsed),
        "mean_flows_per_epoch": round(total_flows / epochs),
        "campaign": {
            "arms": len(campaign.arms),
            "epochs_per_arm": campaign.epochs,
            "wall_s_workers_1": walls[1],
            "wall_s_workers_8": walls[8],
        },
    }


def _bench_exec() -> dict:
    """The exec layer's headline numbers (see DESIGN.md §14)."""
    from repro.control.controller import OverlayController
    from repro.control.policy import BestPathPolicy
    from repro.control.probes import ProbeConfig, ProbeScheduler
    from repro.exec.runner import ExecConfig, ExecRunner
    from repro.experiments.chaos_exp import ChaosConfig, run_chaos
    from repro.experiments.control_exp import outage_plan
    from repro.experiments.scenario import build_world

    world = build_world(seed=7, scale="small")

    # Live-path resolutions per second with the path cache invalidated
    # every round — the post-convergence expansion is the hot loop
    # whenever BGP reroutes under failures.
    pairs = [
        (server, client)
        for server in world.server_names[:3]
        for client in world.client_names()[:4]
    ]
    rounds = 25
    resolved = 0
    start = time.perf_counter()
    for _ in range(rounds):
        world.internet.invalidate_path_cache()
        for src, dst in pairs:
            world.internet.resolve_live_path(src, dst)
            resolved += 1
    paths_elapsed = time.perf_counter() - start

    # Controller probe ticks per second (BestPath policy, no outage).
    pathset, _failed_links = world.first_pair(outage_plan)
    world.internet.set_time(0.0)
    tick_s, duration_s = 5.0, 3_600.0
    controller = OverlayController(
        internet=world.internet,
        pathset=pathset,
        policy=BestPathPolicy(),
        scheduler=ProbeScheduler(
            pathset,
            ProbeConfig(interval_s=15.0),
            world.streams.stream("bench.control"),
        ),
        tick_s=tick_s,
    )
    start = time.perf_counter()
    controller.run(duration_s)
    ticks_elapsed = time.perf_counter() - start

    # Chaos campaign wall-clock at 1 and 8 workers, fresh caches each.
    chaos_config = ChaosConfig(
        seed=7, scale="small", duration_s=900.0, tick_s=5.0, probe_interval_s=15.0
    )
    walls: dict[str, float] = {}

    def campaign(label: str, **exec_kwargs) -> None:
        with tempfile.TemporaryDirectory() as cache_dir:
            runner = ExecRunner(ExecConfig(cache_dir=cache_dir, **exec_kwargs))
            begin = time.perf_counter()
            run_chaos(chaos_config, runner)
            walls[label] = round(time.perf_counter() - begin, 3)

    campaign("wall_s_workers_1", workers=1)
    campaign("wall_s_workers_8", workers=8)

    return {
        "paths_per_sec_expanded": round(resolved / paths_elapsed),
        "path_pairs": len(pairs),
        "probe_ticks_per_sec": round((duration_s / tick_s) / ticks_elapsed),
        "controller_sim_speedup": round(duration_s / ticks_elapsed),
        "chaos_campaign": {
            "duration_s": chaos_config.duration_s,
            **walls,
        },
    }


def _reference(name: str):
    """A frozen test-only reference module, loaded by path from ``tests/reference``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tests" / "reference" / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_net(quick: bool = False) -> dict:
    """The vectorized network core's headline numbers (DESIGN.md §15).

    Times the hot path twice — on the mirror and in object mode, where
    every link metric comes from the frozen scalar walk
    (``tests/reference/link_metrics.py``, loaded by path) — so the
    snapshot records the speedup alongside the absolute numbers.
    """
    from repro.exec.runner import ExecConfig, ExecRunner
    from repro.experiments.chaos_exp import ChaosConfig, run_chaos
    from repro.experiments.scenario import build_world
    from repro.faults.scenarios import SCENARIOS

    reference = _reference("link_metrics")

    def in_object_mode(fn):
        with reference.object_mode():
            return fn()

    # Live-path resolutions per second with the path cache invalidated
    # every round — the post-convergence expansion hot loop (same
    # shape as the exec area's number, here measured per mode).
    def paths_per_sec() -> int:
        world = build_world(seed=7, scale="small")
        pairs = [
            (server, client)
            for server in world.server_names[:3]
            for client in world.client_names()[:4]
        ]
        rounds = 5 if quick else 25
        # One untimed warmup round: the first resolutions in a fresh
        # world pay one-off costs (BGP table faults, import warmup)
        # that would skew whichever mode is measured first.
        world.internet.invalidate_path_cache()
        for src, dst in pairs:
            world.internet.resolve_live_path(src, dst)
        # One timed burst is 10-20 ms, short enough for host noise to
        # halve it; the median of several bursts is the rate.
        rates = []
        for _ in range(PATH_RATE_REPEATS):
            resolved = 0
            start = time.perf_counter()
            for _ in range(rounds):
                world.internet.invalidate_path_cache()
                for src, dst in pairs:
                    world.internet.resolve_live_path(src, dst)
                    resolved += 1
            rates.append(resolved / (time.perf_counter() - start))
        return round(statistics.median(rates))

    pps_fast = paths_per_sec()
    pps_object = in_object_mode(paths_per_sec)

    # ``repro chaos --scenario all`` equivalent: every scenario, both
    # arms.  The headline wall is the *serial* entry point — exactly
    # what the CLI runs without --workers.  Exec shards one scenario
    # per fork, so a scenario's runs still share the mirror's cache
    # fill, but each shard fills its own.  Quick mode quarters the
    # horizon (the --fast knobs) and skips the expensive object-mode
    # and workers-8 replays.
    chaos_config = ChaosConfig(
        seed=7,
        scale="small",
        scenarios=tuple(SCENARIOS),
        duration_s=900.0 if quick else 3_600.0,
        tick_s=5.0 if quick else 10.0,
        probe_interval_s=15.0 if quick else 60.0,
    )

    def chaos_wall(runner=None) -> float:
        begin = time.perf_counter()
        run_chaos(chaos_config, runner)
        return round(time.perf_counter() - begin, 3)

    def campaign_exec(workers: int) -> float:
        with tempfile.TemporaryDirectory() as cache_dir:
            return chaos_wall(
                ExecRunner(ExecConfig(workers=workers, cache_dir=cache_dir))
            )

    walls: dict[str, float] = {
        "wall_s_serial": chaos_wall(),
    }
    if not quick:
        walls["wall_s_serial_object_mode"] = in_object_mode(chaos_wall)
        walls["speedup_vs_object_mode"] = round(
            walls["wall_s_serial_object_mode"] / walls["wall_s_serial"], 2
        )
        walls["wall_s_workers_8"] = campaign_exec(8)

    return {
        "paths_per_sec_expanded": pps_fast,
        "paths_per_sec_object_mode": pps_object,
        "path_pairs": 12,
        "quick": quick,
        "chaos_scenario_all": {
            "scenarios": len(SCENARIOS),
            "arms": 2,
            "duration_s": chaos_config.duration_s,
            **walls,
        },
    }


def _bench_colo() -> dict:
    """The colo footprint study's headline numbers (DESIGN.md §16).

    Times the pure per-(pair, site) measurement matrix — the part the
    study shards — then the full mixed-footprint pipeline wall-clock
    (serial, and sharded at 1 and 8 workers with fresh caches).
    """
    from repro.exec.runner import ExecConfig, ExecRunner
    from repro.experiments.colo_exp import (
        ColoConfig,
        _measure_pair,
        _study_inputs,
        run_colo,
    )

    config = ColoConfig(seed=7, scale="small")
    _world, sites, _cronet, endpoints, pathsets = _study_inputs(config)

    # Measurement rows per second: each row prices direct + every
    # site's split/overlay/diversity columns for one pair.
    rounds = 3
    start = time.perf_counter()
    for _ in range(rounds):
        for pathset in pathsets:
            _measure_pair(pathset, config.at_time)
    elapsed = time.perf_counter() - start
    rows = rounds * len(pathsets)

    walls = {}
    for workers in (1, 8):
        with tempfile.TemporaryDirectory() as cache_dir:
            runner = ExecRunner(ExecConfig(workers=workers, cache_dir=cache_dir))
            begin = time.perf_counter()
            run_colo(config, runner)
            walls[workers] = round(time.perf_counter() - begin, 3)

    return {
        "pair_rows_per_sec": round(rows / elapsed),
        "pairs": len(endpoints),
        "sites": len(sites),
        "pipeline": {
            "footprints": len(config.footprints),
            "wall_s_workers_1": walls[1],
            "wall_s_workers_8": walls[8],
        },
    }


def _bench_packet() -> dict:
    """The packet engine's headline numbers (DESIGN.md §17).

    Times the same long transfer with the batched engine and the frozen
    scalar reference (``tests/reference/packetsim_scalar.py``, loaded by
    path), alternating ``PACKET_RUN_REPEATS`` runs each and keeping each
    engine's median, on a representative overlay path: a lossy ingress
    hop followed by a clean 11-hop backbone chain, the shape where burst
    traversal pays most.  Then the packet-level chaos replay wall-clock
    (both default scenarios at the smoke horizon).
    """
    import numpy as np

    from repro.experiments.chaos_exp import PacketReplayConfig, run_chaos_packet
    from repro.transport.packetsim import PacketLevelTcp, SimLink

    reference = _reference("packetsim_scalar")

    links = [SimLink(400.0, 8.0, loss_prob=1e-4)] + [SimLink(1_000.0, 3.0)] * 11
    # Long enough to reach congestion-avoidance steady state: the
    # scalar engine's per-ACK timer pushes only dominate once the
    # window (and the stale-event population) has grown.
    duration_s = 10.0

    def segments_per_sec(fastpath: bool) -> tuple[float, int]:
        engine = PacketLevelTcp if fastpath else reference.PacketLevelTcp
        tcp = engine(links, np.random.default_rng(7), rwnd_bytes=4_194_304)
        begin = time.perf_counter()
        tcp.run(duration_s)
        elapsed = time.perf_counter() - begin
        segments = tcp.delivered_segments + tcp.retransmissions
        return segments / elapsed, segments

    # Untimed warmup (imports, numpy first-touch), then alternate the
    # engines: one run each put the ratio within host noise of the 5x
    # gate, so each engine's rate is the median of its runs.
    segments_per_sec(True)
    fast_rates, scalar_rates = [], []
    for _ in range(PACKET_RUN_REPEATS):
        rate, segments = segments_per_sec(True)
        fast_rates.append(rate)
        scalar_rates.append(segments_per_sec(False)[0])
    sps_fast = round(statistics.median(fast_rates))
    sps_scalar = round(statistics.median(scalar_rates))

    replay = PacketReplayConfig(duration_s=900.0, flow_s=2.5)
    begin = time.perf_counter()
    replay_result = run_chaos_packet(replay)
    replay_wall = round(time.perf_counter() - begin, 3)

    return {
        "segments_per_sec": sps_fast,
        "segments_per_sec_scalar": sps_scalar,
        "speedup_vs_scalar": round(sps_fast / sps_scalar, 2),
        "flow": {"hops": len(links), "duration_s": duration_s, "segments": segments},
        "chaos_replay": {
            "scenarios": list(replay.scenario_names),
            "duration_s": replay.duration_s,
            "flow_s": replay.flow_s,
            "samples": len(replay_result.samples),
            "wall_s": replay_wall,
        },
    }


AREAS = {
    "demand": _bench_demand,
    "exec": _bench_exec,
    "net": _bench_net,
    "colo": _bench_colo,
    "packet": _bench_packet,
}

#: Per-area headline number the ``--check`` regression gate compares.
CHECK_KEYS = {
    "demand": "epochs_per_sec",
    "exec": "paths_per_sec_expanded",
    "net": "paths_per_sec_expanded",
    "colo": "pair_rows_per_sec",
    "packet": "segments_per_sec",
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; writes the snapshot and prints a one-line summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("area_positional", nargs="?", choices=sorted(AREAS),
                        metavar="area", help="benchmark area (or use --area)")
    parser.add_argument("--area", choices=sorted(AREAS),
                        help="benchmark area (flag form of the positional)")
    parser.add_argument(
        "--out", default=None, help="output path (default: BENCH_<area>.json)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizing (net area only): fewer rounds, shorter horizon",
    )
    parser.add_argument(
        "--check", default=None, metavar="SNAPSHOT",
        help="committed BENCH_<area>.json to regression-check against; "
        "fails if the area's headline rate drops below half the committed "
        "number (and, for packet, if the fastpath speedup falls below 5x)",
    )
    args = parser.parse_args(argv)

    area = args.area or args.area_positional
    if area is None or (args.area and args.area_positional):
        parser.error("give the area exactly once (positional or --area)")
    if args.quick and area != "net":
        parser.error("--quick is only supported for the net area")

    numbers = AREAS[area](quick=True) if (area == "net" and args.quick) else AREAS[area]()
    snapshot = {"area": area, "numbers": numbers}
    target = pathlib.Path(args.out) if args.out else ROOT / f"BENCH_{area}.json"
    # Preserve a hand-recorded pre-PR baseline block across re-runs:
    # the current code cannot re-measure the implementation it replaced.
    try:
        previous = json.loads(target.read_text())
        if "baseline" in previous:
            snapshot["baseline"] = previous["baseline"]
    except (OSError, json.JSONDecodeError):
        pass
    target.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"[written {target}]")
    print(json.dumps(numbers, indent=2, sort_keys=True))

    if args.check:
        key = CHECK_KEYS[area]
        committed = json.loads(pathlib.Path(args.check).read_text())
        recorded = committed["numbers"][key]
        fresh = numbers[key]
        if fresh * 2 < recorded:
            print(
                f"[FAIL] {key} regressed >2x: fresh {fresh} vs "
                f"committed {recorded}"
            )
            return 1
        print(f"[check ok] {key} {fresh} within 2x of committed {recorded}")
        if area == "packet" and numbers["speedup_vs_scalar"] < 5.0:
            print(
                "[FAIL] packet fastpath speedup "
                f"{numbers['speedup_vs_scalar']}x below the 5x gate"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
