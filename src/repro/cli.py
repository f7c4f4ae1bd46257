"""Command-line interface: run any paper experiment from a shell.

Usage examples::

    python -m repro list
    python -m repro world --seed 7 --scale small
    python -m repro run fig2 --seed 7 --scale small
    python -m repro run fig12 --seed 7 --out /tmp/fig12.json
    python -m repro run all --scale small
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

#: Experiment id -> one-line description (keep in sync with DESIGN.md §4).
EXPERIMENTS: dict[str, str] = {
    "fig2": "E1 — web-server campaign improvement CDFs",
    "fig3-5": "E2–E4 — controlled senders: CDFs, retransmissions, RTT",
    "fig6-7": "E5–E6 — week-long persistency, node counts, Table I",
    "fig8": "E7 — path diversity scores",
    "fig9-11": "E8 — RTT/loss/throughput factor analysis",
    "c45": "E9 — C4.5 threshold extraction",
    "fig12": "E10 — MPTCP with OLIA vs overlay paths",
    "fig13": "E11 — MPTCP with uncoupled Cubic",
    "cost": "E12 — overlay vs leased-line economics",
    "placement": "extension — greedy overlay placement planning",
    "multihop": "extension — one-hop vs two-hop overlay paths",
    "availability": "extension — availability under injected link failures",
    "multicloud": "extension — one cloud provider vs two for the same node budget",
    "selection": "extension — probing vs MPTCP selection regret over a day",
    "control": "extension — runtime control plane: failover under link outages",
    "chaos": "extension — correlated fault injection: policies under chaos scenarios",
    "engines": "validation — model vs fluid vs packet-level transport engines",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CRONets (ICDCS 2016) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    world = sub.add_parser("world", help="build a world and print its summary")
    _add_common(world)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    _add_common(run)
    run.add_argument("--out", help="also dump the result as JSON to this path")
    _add_exec(run)

    control = sub.add_parser(
        "control", help="run the overlay control plane failover study"
    )
    _add_common(control)
    control.add_argument(
        "--duration", type=float, default=3_600.0, help="simulated seconds to run"
    )
    control.add_argument(
        "--probe-interval", type=float, default=60.0, help="seconds between path probes"
    )
    control.add_argument(
        "--tick", type=float, default=10.0, help="controller decision tick (seconds)"
    )
    control.add_argument(
        "--outage-start", type=float, default=900.0,
        help="when the scheduled outage begins (seconds)",
    )
    control.add_argument(
        "--outage-duration", type=float, default=1_200.0,
        help="how long the outage lasts (seconds)",
    )
    control.add_argument(
        "--probe-budget", type=int, default=None,
        help="max probe bytes per interval window (default: unlimited)",
    )
    control.add_argument(
        "--metrics", action="store_true", help="also print the metrics snapshot"
    )
    control.add_argument("--out", help="also dump the result as JSON to this path")

    chaos = sub.add_parser(
        "chaos", help="run the policies through correlated fault scenarios"
    )
    _add_common(chaos)
    chaos.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help=(
            "scenario to run (repeatable; omitted = the classic suite, "
            "'all' = every scenario including gray-detect)"
        ),
    )
    chaos.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds to run (default: 3600; 900 with --fast)",
    )
    chaos.add_argument(
        "--tick", type=float, default=None,
        help="controller decision tick in seconds (default: 10; 5 with --fast)",
    )
    chaos.add_argument(
        "--probe-interval", type=float, default=None,
        help="seconds between path probes (default: 60; 15 with --fast)",
    )
    chaos.add_argument(
        "--adaptive", action="store_true",
        help=(
            "add the adaptive arm with every knob on: health-driven probe "
            "cadence, gray-failure detection, fault-history-weighted switching"
        ),
    )
    chaos.add_argument(
        "--adaptive-cadence", action="store_true",
        help="ablation: adaptive arm with only the health-driven probe cadence",
    )
    chaos.add_argument(
        "--gray-detect", action="store_true",
        help="ablation: adaptive arm with only gray-failure detection",
    )
    chaos.add_argument(
        "--flap-margin", action="store_true",
        help="ablation: adaptive arm with only fault-history switch margins",
    )
    chaos.add_argument(
        "--probe-floor", type=float, default=None, metavar="SECONDS",
        help="adaptive cadence floor (default: probe interval / 4)",
    )
    chaos.add_argument(
        "--probe-ceiling", type=float, default=None, metavar="SECONDS",
        help="adaptive cadence ceiling (default: probe interval)",
    )
    chaos.add_argument(
        "--engine", choices=("model", "packet"), default="model",
        help=(
            "replay engine: 'model' runs the controller study on the analytic "
            "engine; 'packet' samples each scenario's fault windows and pushes "
            "real segments through the discrete-event engine (serial only)"
        ),
    )
    chaos.add_argument(
        "--fast", action="store_true",
        help=(
            "short smoke horizon (same windows as fractions, fewer ticks); "
            "an explicit --duration/--tick/--probe-interval still wins"
        ),
    )
    chaos.add_argument(
        "--list-scenarios", action="store_true", help="list scenario names and exit"
    )
    chaos.add_argument("--out", help="also dump the result as JSON to this path")
    _add_exec(chaos)

    demand = sub.add_parser(
        "demand", help="run the population demand study (load vs overlay win rate)"
    )
    _add_common(demand)
    demand.add_argument(
        "--epochs", type=int, default=None,
        help="epochs per arm (default: 24, one day; 6 with --fast)",
    )
    demand.add_argument(
        "--level", action="append", type=float, default=None, metavar="X",
        help="offered-load multiplier (repeatable; omitted = the default sweep)",
    )
    demand.add_argument(
        "--rounds", type=int, default=12,
        help="fixed-point rounds of load-aware re-selection per epoch",
    )
    demand.add_argument(
        "--fast", action="store_true",
        help=(
            "smoke sweep: six epochs over three levels; an explicit "
            "--epochs/--level still wins"
        ),
    )
    demand.add_argument("--out", help="also dump the result as JSON to this path")
    _add_exec(demand)

    colo = sub.add_parser(
        "colo", help="compare cloud-VM, colo, and mixed relay footprints"
    )
    _add_common(colo)
    colo.add_argument(
        "--colo-city", action="append", default=None, metavar="CITY",
        help=(
            "IXP hub city to place a colocation facility in (repeatable; "
            "omitted = new_york, london, tokyo)"
        ),
    )
    colo.add_argument(
        "--footprint", action="append", default=None,
        choices=["cloud", "colo", "mixed"],
        help="footprint to report (repeatable; omitted = all three)",
    )
    colo.add_argument(
        "--load-level", type=float, default=10.0, metavar="X",
        help="offered-load multiplier for the demand column (default: 10)",
    )
    colo.add_argument(
        "--epochs", type=int, default=None,
        help="epochs averaged into the demand column (default: 6; 2 with --fast)",
    )
    colo.add_argument(
        "--fast", action="store_true",
        help=(
            "smoke sizing: 6 clients, 2 servers, 2 demand epochs; an "
            "explicit --epochs still wins"
        ),
    )
    colo.add_argument("--out", help="also dump the result as JSON to this path")
    _add_exec(colo)

    report = sub.add_parser("report", help="regenerate the whole paper as Markdown")
    _add_common(report)
    report.add_argument("--out", default="report.md", help="output path (.md)")
    report.add_argument(
        "--mptcp", action="store_true", help="include the (slow) MPTCP sections"
    )
    _add_exec(report)

    executor = sub.add_parser(
        "exec", help="inspect sharded-execution state (manifests, result cache)"
    )
    exec_sub = executor.add_subparsers(dest="exec_command", required=True)
    manifest = exec_sub.add_parser("manifest", help="render a run manifest JSON")
    manifest.add_argument("path", help="manifest file written by a sharded run")
    cache = exec_sub.add_parser("cache", help="show result-cache statistics")
    cache.add_argument(
        "--cache-dir", default=".repro-cache", help="result cache directory"
    )
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scale", choices=["small", "paper"], default="small",
        help="small runs in seconds; paper matches the study's sampling plan",
    )


def _add_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "run shardable experiments on the repro.exec pool with N worker "
            "processes (results are byte-identical at any N)"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="serve already-cached shards from the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache directory (default: .repro-cache)",
    )


def _make_runner(args: argparse.Namespace):
    """An ExecRunner when exec flags were given, else None (serial path)."""
    if args.workers is None and not args.resume:
        return None
    from repro.exec.runner import ExecConfig, ExecRunner

    return ExecRunner(
        ExecConfig(
            workers=1 if args.workers is None else args.workers,
            cache_dir=args.cache_dir,
            resume=args.resume,
        )
    )


def _write_out(result, args: argparse.Namespace, suffix: str = "") -> None:
    """With ``--out``, dump ``result`` as JSON to ``args.out + suffix``."""
    if args.out:
        from repro.io import dump_json

        print(f"[written {dump_json(result, args.out + suffix)}]")


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def _cmd_world(args: argparse.Namespace) -> int:
    from repro.experiments.scenario import build_world

    world = build_world(seed=args.seed, scale=args.scale)
    internet = world.internet
    print(f"seed {args.seed}, scale {args.scale!r}")
    print(f"  ASes:    {len(internet.topology.ases)}")
    print(f"  routers: {len(internet.routers)}")
    print(f"  links:   {len(internet.links_by_id)}")
    print(f"  clients: {len(world.client_names())}  servers: {len(world.server_names)}")
    print(f"  DCs:     {', '.join(world.dc_cities)}")
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    from repro.experiments.control_exp import ControlExpConfig, run_control

    config = ControlExpConfig(
        seed=args.seed,
        scale=args.scale,
        duration_s=args.duration,
        tick_s=args.tick,
        probe_interval_s=args.probe_interval,
        outage_start_s=args.outage_start,
        outage_duration_s=args.outage_duration,
        probe_budget_bytes=args.probe_budget,
    )
    result = run_control(config)
    print(result.render())
    if args.metrics:
        print()
        print("controller metrics snapshot:")
        for key, value in result.controller_metrics.items():
            print(f"  {key} = {value}")
    _write_out(result, args)
    return 0


def _fast_default(given, fast: bool, smoke, default):
    """A flag's value: as given if given, else its ``--fast`` or full default.

    ``--fast`` only picks defaults: a flag given explicitly always wins,
    so a bad explicit value still reaches the config's validation.
    """
    if given is not None:
        return given
    return smoke if fast else default


#: ``chaos`` flags that configure the controller, which the packet
#: replay does not run.
_CONTROLLER_FLAGS = (
    "tick", "probe_interval", "adaptive", "adaptive_cadence", "gray_detect",
    "flap_margin", "probe_floor", "probe_ceiling",
)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_exp import ChaosConfig, run_chaos
    from repro.faults.scenarios import SCENARIOS

    if args.list_scenarios:
        for name in SCENARIOS:
            print(f"  {name}")
        return 0
    wanted = args.scenario or []
    if "all" in wanted:
        scenarios = tuple(SCENARIOS)
    else:
        # Omitted = () = the classic default suite, which keeps the
        # knobs-off output identical to historical runs.
        scenarios = tuple(wanted)
    # Windows sit at horizon fractions and the degradation ladder scales
    # with the probe cadence, so --fast shrinks both and keeps every
    # scenario's story intact at a quarter of the ticks.
    duration = _fast_default(args.duration, args.fast, 900.0, 3_600.0)
    if args.engine == "packet":
        from repro.errors import ExperimentError
        from repro.experiments.chaos_exp import PacketReplayConfig, run_chaos_packet

        if args.workers is not None or args.resume:
            raise ExperimentError(
                "--engine packet replays serially; drop the exec flags"
            )
        # The replay runs no controller: a controller flag would be
        # silently ignored, so it is refused instead.  Identity tests,
        # because ``--tick 0`` is given yet ``0.0 == False``.
        given = [
            f"--{dest.replace('_', '-')}"
            for dest in _CONTROLLER_FLAGS
            if getattr(args, dest) is not None and getattr(args, dest) is not False
        ]
        if given:
            raise ExperimentError(
                f"--engine packet runs no controller; drop {', '.join(given)}"
            )
        packet_config = PacketReplayConfig(
            seed=args.seed,
            scale=args.scale,
            scenarios=scenarios,
            duration_s=duration,
            # A quarter-length flow keeps the smoke replay quick while
            # still running several hundred RTTs per sample.
            flow_s=2.5 if args.fast else 10.0,
        )
        result = run_chaos_packet(packet_config)
        print(result.render())
        _write_out(result, args)
        return 0
    config = ChaosConfig(
        seed=args.seed,
        scale=args.scale,
        scenarios=scenarios,
        duration_s=duration,
        tick_s=_fast_default(args.tick, args.fast, 5.0, 10.0),
        probe_interval_s=_fast_default(args.probe_interval, args.fast, 15.0, 60.0),
        adaptive=args.adaptive,
        adaptive_cadence=args.adaptive_cadence,
        gray_detect=args.gray_detect,
        flap_margin=args.flap_margin,
        probe_floor_s=args.probe_floor,
        probe_ceiling_s=args.probe_ceiling,
    )
    result = run_chaos(config, _make_runner(args))
    print(result.render())
    _write_out(result, args)
    return 0


def _cmd_demand(args: argparse.Namespace) -> int:
    from repro.experiments.demand_exp import DemandConfig, run_demand

    kwargs: dict = {
        "seed": args.seed,
        "scale": args.scale,
        "rounds": args.rounds,
        "epochs": _fast_default(args.epochs, args.fast, 6, 24),
    }
    if args.fast:
        kwargs["levels"] = (1.0, 8.0, 100.0)
    if args.level:
        kwargs["levels"] = tuple(args.level)
    config = DemandConfig(**kwargs)
    result = run_demand(config, _make_runner(args))
    print(result.render())
    _write_out(result, args)
    return 0


def _cmd_colo(args: argparse.Namespace) -> int:
    from repro.colo.facility import DEFAULT_COLO_CITIES
    from repro.experiments.colo_exp import FOOTPRINTS, ColoConfig, run_colo

    kwargs: dict = {
        "seed": args.seed,
        "scale": args.scale,
        "colo_cities": tuple(args.colo_city) if args.colo_city else DEFAULT_COLO_CITIES,
        "footprints": tuple(args.footprint) if args.footprint else FOOTPRINTS,
        "demand_level": args.load_level,
        "demand_epochs": _fast_default(args.epochs, args.fast, 2, 6),
    }
    if args.fast:
        kwargs.update(n_clients=6, n_servers=2)
    config = ColoConfig(**kwargs)
    result = run_colo(config, _make_runner(args))
    print(result.render())
    _write_out(result, args)
    return 0


def _run_one(name: str, args: argparse.Namespace, runner=None):
    """Run one experiment; returns the result object.

    The shardable campaigns — the controlled study, the longitudinal
    sweep and the chaos study — run their shards on ``runner`` (an
    :class:`~repro.exec.runner.ExecRunner`) when given, in-process
    otherwise; every other experiment ignores it.
    """
    seed, scale = args.seed, args.scale

    if name == "fig2":
        from repro.experiments.weblab import WeblabConfig, run_weblab

        return run_weblab(WeblabConfig(seed=seed, scale=scale))

    if name in ("fig3-5", "fig6-7", "fig8", "fig9-11", "c45"):
        from repro.experiments.controlled import ControlledConfig, run_controlled

        campaign = run_controlled(ControlledConfig(seed=seed, scale=scale), runner)
        if name == "fig3-5":
            return campaign.result
        if name == "fig6-7":
            from repro.experiments.longitudinal import run_longitudinal

            top_n = 30 if scale == "paper" else 8
            samples = 50 if scale == "paper" else 10
            return run_longitudinal(campaign, top_n=top_n, samples=samples, runner=runner)
        if name == "fig8":
            from repro.experiments.diversity_exp import run_diversity

            return run_diversity(campaign)
        if name == "fig9-11":
            from repro.experiments.factors import run_factors

            return run_factors(campaign)
        from repro.experiments.classify import run_classify

        return run_classify(campaign)

    if name in ("fig12", "fig13"):
        from repro.experiments.mptcp_exp import MptcpExpConfig, run_mptcp_experiment
        from repro.transport.mptcp import MptcpScheme

        scheme = MptcpScheme.OLIA if name == "fig12" else MptcpScheme.UNCOUPLED_CUBIC
        if scale == "paper":
            config = MptcpExpConfig(seed=seed, scheme=scheme)
        else:
            config = MptcpExpConfig.small(seed, scheme)
        return run_mptcp_experiment(config)

    if name == "cost":
        from repro.experiments.cost import run_cost
        from repro.experiments.weblab import WeblabConfig, run_weblab

        return run_cost(run_weblab(WeblabConfig(seed=seed, scale=scale)))

    if name == "placement":
        from repro.experiments.placement_exp import run_placement

        return run_placement(seed=seed, scale=scale)

    if name == "availability":
        from repro.experiments.availability import AvailabilityConfig, run_availability

        return run_availability(AvailabilityConfig(seed=seed, scale=scale))

    if name == "multicloud":
        from repro.experiments.multicloud import run_multicloud

        return run_multicloud(seed=seed, scale=scale)

    if name == "selection":
        from repro.experiments.selection_exp import run_selection

        return run_selection(seed=seed, scale=scale)

    if name == "control":
        from repro.experiments.control_exp import ControlExpConfig, run_control

        return run_control(ControlExpConfig(seed=seed, scale=scale))

    if name == "chaos":
        from repro.experiments.chaos_exp import ChaosConfig, run_chaos

        return run_chaos(ChaosConfig(seed=seed, scale=scale), runner)

    if name == "engines":
        from repro.transport.validation import compare_engines, render_comparison

        class _EngineReport:
            def __init__(self) -> None:
                self.comparisons = compare_engines()

            def render(self) -> str:
                return render_comparison(self.comparisons)

        return _EngineReport()

    from repro.experiments.multihop_exp import run_multihop

    return run_multihop(seed=seed, scale=scale)


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    runner = _make_runner(args)
    for name in names:
        print(f"=== {name}: {EXPERIMENTS[name]} ===")
        result = _run_one(name, args, runner=runner)
        print(result.render())
        print()
        _write_out(result, args, f".{name}" if args.experiment == "all" else "")
    if runner is not None and runner.manifest.records:
        print(runner.manifest.render())
        print(f"[manifest {runner.write_manifest()}]")
    return 0


def _cmd_exec(args: argparse.Namespace) -> int:
    if args.exec_command == "manifest":
        from repro.exec.manifest import RunManifest

        print(RunManifest.load(args.path).render())
        return 0
    from repro.exec.cache import ResultCache

    count, size = ResultCache(args.cache_dir).stats()
    print(f"cache {args.cache_dir}: {count} entries, {size} bytes")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "world":
            return _cmd_world(args)
        if args.command == "control":
            return _cmd_control(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "demand":
            return _cmd_demand(args)
        if args.command == "colo":
            return _cmd_colo(args)
        if args.command == "exec":
            return _cmd_exec(args)
        if args.command == "report":
            from repro.report import write_report

            target = write_report(
                args.out,
                seed=args.seed,
                scale=args.scale,
                include_mptcp=args.mptcp,
                exec_runner=_make_runner(args),
            )
            print(f"report written to {target}")
            return 0
        return _cmd_run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
