"""Every numeric knob fails early on nan, ±inf, 0 and −1, or says why not.

One table-driven sweep covers the numeric fields of every ``*Config``
dataclass, the numeric flags of ``control``, ``chaos``, ``demand``,
``colo`` and ``--workers``, the simulated clock's ``set_time`` and
``advance``, and each transport engine's ``run`` horizon.  Each bad
value must raise a
:mod:`repro.errors` type (configs), make ``main()`` return 1 with
``error:`` (CLI), or appear in an acceptance table below with the
reason it is a legitimate input.

Configs are only constructed, never run, so a value that would loop
(a tiny tick, an infinite horizon) cannot hang the sweep.  CLI cases
replace each study's run function with one that raises
:class:`Reached`, so a value the config wrongly accepts fails the test
instead of starting a study.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import _build_parser, main
from repro.errors import (
    ConfigError,
    ControlError,
    ExecError,
    ExperimentError,
    ReproError,
    TransportError,
    check,
)
from repro.control.degradation import DegradationConfig
from repro.control.health import HealthConfig
from repro.control.probes import ProbeConfig
from repro.core.measure_plan import measure_four_ways_batch
from repro.exec.runner import ExecConfig
from repro.experiments.availability import AvailabilityConfig
from repro.experiments.chaos_exp import ChaosConfig, PacketReplayConfig
from repro.experiments.colo_exp import ColoConfig
from repro.experiments.control_exp import ControlExpConfig
from repro.experiments.controlled import ControlledConfig
from repro.experiments.demand_exp import DemandConfig
from repro.experiments.mptcp_exp import MptcpExpConfig
from repro.experiments.scenario import build_world
from repro.experiments.weblab import WeblabConfig
from repro.net.congestion import BackgroundLoad
from repro.net.links import Link, LinkClass
from repro.net.topology import TopologyConfig
from repro.transport.cc import RenoCC
from repro.transport.fluid import FluidSimulator
from repro.transport.packetsim import PacketLevelTcp, SimLink

#: nan, ±inf, zero and a negative: the values every numeric knob meets.
BAD_VALUES = (math.nan, math.inf, -math.inf, 0, -1)

CONFIGS = (
    AvailabilityConfig,
    ChaosConfig,
    ColoConfig,
    ControlExpConfig,
    ControlledConfig,
    DegradationConfig,
    DemandConfig,
    ExecConfig,
    HealthConfig,
    MptcpExpConfig,
    PacketReplayConfig,
    ProbeConfig,
    TopologyConfig,
    WeblabConfig,
)

#: (config, field, value) -> why the config accepts it.  ``None`` as the
#: config or the value stands for "every".
ACCEPTED_CONFIG_VALUES: dict[tuple[str | None, str, float | None], str] = {
    (None, "seed", None): (
        "a seed only names RNG streams: 0 and -1 are seeds like any other, and "
        "RandomStreams refuses a non-int seed (ConfigError) where the world is built"
    ),
    ("ExecConfig", "retries", 0): "no retry: a failed shard fails on its first attempt",
    ("TopologyConfig", "n_stub", 0): "an AS class may be empty; the topology builds",
    ("TopologyConfig", "n_academic", 0): "an AS class may be empty; the topology builds",
    ("TopologyConfig", "n_content", 0): "an AS class may be empty; the topology builds",
    ("TopologyConfig", "transit_peer_prob", 0): "no transit-transit peering",
    ("ProbeConfig", "jitter_frac", 0): "probes fire on the exact interval",
    ("ProbeConfig", "throughput_probe_bytes", 0): "0 disables the throughput probe",
    ("ProbeConfig", "max_retries", 0): "no retries: the baseline prober",
    ("HealthConfig", "recovery_hold_s", 0): "promote as soon as the counts allow",
    ("ChaosConfig", "flap_margin_per_failure", 0): "no extra switch margin",
    ("ControlExpConfig", "outage_start_s", 0): "the outage starts with the run",
    ("AvailabilityConfig", "outages", 0): "no outages: a clean-day baseline",
    ("ControlledConfig", "at_hours", 0): "midnight is an hour of the day",
    ("WeblabConfig", "at_hours", 0): "midnight is an hour of the day",
    ("DemandConfig", "at_hours", 0): "midnight is an hour of the day",
    ("ColoConfig", "at_hours", 0): "midnight is an hour of the day",
    ("MptcpExpConfig", "interval_hours", 0): "all iterations sample one instant",
}


#: Other knobs a swept value needs to mean anything: the cadence bounds
#: bound only an adaptive-cadence arm.
SWEEP_BASE: dict[str, dict] = {"ChaosConfig": {"adaptive_cadence": True}}


def _is_numeric(annotation) -> bool:
    """``int``, ``float``, or either of them ``| None``."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        members = set(typing.get_args(annotation)) - {type(None)}
    else:
        members = {annotation}
    return bool(members) and members <= {int, float}


def _config_cases():
    for cls in CONFIGS:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if field.init and _is_numeric(hints[field.name]):
                for value in BAD_VALUES:
                    yield pytest.param(cls, field.name, value,
                                       id=f"{cls.__name__}.{field.name}={value}")


def _acceptance(config: str, field: str, value) -> str | None:
    for key in ((config, field, value), (None, field, value), (None, field, None)):
        if key in ACCEPTED_CONFIG_VALUES:
            return ACCEPTED_CONFIG_VALUES[key]
    return None


class TestConfigSweep:
    @pytest.mark.parametrize("cls, field, value", _config_cases())
    def test_bad_value_raises_or_is_documented(self, cls, field, value):
        kwargs = {**SWEEP_BASE.get(cls.__name__, {}), field: value}
        if _acceptance(cls.__name__, field, value) is not None:
            cls(**kwargs)
            return
        with pytest.raises(ReproError, match=field):
            cls(**kwargs)

    def test_table_names_every_config_class(self):
        # A new *Config dataclass must join the sweep.
        src = Path(repro.__file__).parent
        found = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                    found.add(node.name)
        assert found == {cls.__name__ for cls in CONFIGS}

    def test_every_acceptance_is_a_real_case(self):
        cases = {
            (cls.__name__, field, value)
            for cls, field, value in (p.values for p in _config_cases())
        }
        fields = {(cls, field) for cls, field, _ in cases}
        for config, field, value in ACCEPTED_CONFIG_VALUES:
            if config is None:
                assert any(f == field for _, f in fields)
            else:
                assert (config, field, value) in cases


#: Clock moves accepted among :data:`BAD_VALUES`, with the reason.
ACCEPTED_CLOCK_VALUES: dict[tuple[str, float], str] = {
    ("set_time", 0): "t=0 is the start of every run",
    ("advance", 0): "a zero step leaves the clock where it is",
}


class TestClockSweep:
    """``Internet.set_time`` and ``advance``: per-call checks on the clock."""

    @pytest.mark.parametrize("method", ["set_time", "advance"])
    @pytest.mark.parametrize("value", BAD_VALUES, ids=str)
    def test_bad_clock_move_raises_or_is_documented(self, small_internet, method, value):
        move = getattr(small_internet, method)
        small_internet.set_time(60.0)
        if (method, value) in ACCEPTED_CLOCK_VALUES:
            move(value)
            return
        with pytest.raises(ConfigError, match="finite"):
            move(value)
        assert small_internet.now == 60.0


class TestEngineHorizons:
    """Each transport engine's ``run`` refuses every bad horizon, nan and inf too."""

    @pytest.fixture(scope="class")
    def one_pathset(self) -> list:
        """One pair's path set in the seed-42 small world."""
        world = build_world(seed=42, scale="small")
        return [world.cronet().path_set(world.server_names[0], world.client_names()[0])]

    @pytest.mark.parametrize("value", BAD_VALUES, ids=str)
    def test_packet_engine(self, value):
        # limit_segments ends the flow, so a horizon that slips through
        # returns a bogus result instead of hanging the suite.
        tcp = PacketLevelTcp(
            [SimLink(10.0, 1.0)], np.random.default_rng(0), limit_segments=20
        )
        with pytest.raises(TransportError, match="duration_s"):
            tcp.run(value)

    @pytest.mark.parametrize("value", BAD_VALUES, ids=str)
    def test_fluid_engine(self, small_internet, value):
        sim = FluidSimulator(at_time=0.0, rng=np.random.default_rng(0))
        sim.add_flow(small_internet.resolve_path("client", "server"), RenoCC())
        with pytest.raises(TransportError, match="duration_s"):
            sim.run(value)

    # The window is checked before any pair is read: nan used to die in
    # the mirror as "time ... got nan", at_time=-5 reported the first
    # sampled instant (-2.0), and an empty batch was not checked at all.
    @pytest.mark.parametrize("pairs", [0, 1])
    @pytest.mark.parametrize(
        "knob, value",
        [("duration_s", value) for value in BAD_VALUES]
        + [("at_time", value) for value in (math.nan, math.inf, -math.inf, -5)],
        ids=str,
    )
    def test_four_way_window(self, one_pathset, knob, value, pairs):
        window = {"at_time": 0.0, "duration_s": 30.0, knob: value}
        with pytest.raises(TransportError, match=knob):
            measure_four_ways_batch(one_pathset[:pairs], **window)


class TestFluidInputs:
    """The fluid engine refuses a bad instant, MSS or window up front."""

    # 0 is a valid instant: the world clock's epoch.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1], ids=str)
    def test_at_time(self, value):
        with pytest.raises(TransportError, match="at_time"):
            FluidSimulator(at_time=value, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("value", BAD_VALUES, ids=str)
    def test_simulator_mss(self, value):
        with pytest.raises(TransportError, match="mss_bytes"):
            FluidSimulator(at_time=0.0, rng=np.random.default_rng(0), mss_bytes=value)

    @pytest.mark.parametrize("knob", ["mss_bytes", "rwnd_bytes"])
    @pytest.mark.parametrize("value", BAD_VALUES, ids=str)
    def test_flow_knob(self, small_internet, knob, value):
        sim = FluidSimulator(at_time=0.0, rng=np.random.default_rng(0))
        path = small_internet.resolve_path("client", "server")
        with pytest.raises(TransportError, match=knob):
            sim.add_flow(path, RenoCC(), **{knob: value})
        assert not sim.flows


class TestCheck:
    """:func:`repro.errors.check`, the one bound check."""

    def test_returns_the_value(self):
        assert check(3, "n", ge=1) == 3
        assert check(0.5, "p", gt=0, le=1) == 0.5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails_with_or_without_bounds(self, value):
        with pytest.raises(ConfigError, match="finite"):
            check(value, "x")
        with pytest.raises(ConfigError):
            check(value, "x", ge=-math.inf)

    def test_message_names_field_bounds_and_value(self):
        with pytest.raises(ConfigError, match=r"^tick_s must be positive and finite, got -5$"):
            check(-5, "tick_s", gt=0)
        with pytest.raises(ConfigError, match=r"^loss must be in \[0, 1\), got 1.0$"):
            check(1.0, "loss", ge=0, lt=1)
        with pytest.raises(ConfigError, match=r"^rounds must be >= 1 and finite, got 0$"):
            check(0, "rounds", ge=1)

    def test_cross_field_bound(self):
        assert check(300.0, "blackout_after_s", ge=120.0) == 300.0
        with pytest.raises(ConfigError, match="blackout_after_s must be >= 120.0"):
            check(60.0, "blackout_after_s", ge=120.0)

    @pytest.mark.parametrize("error", [ControlError, ExecError, TransportError])
    def test_raises_the_callers_error_type(self, error):
        with pytest.raises(error):
            check(0, "x", gt=0, error=error)

    def test_large_ints_are_finite(self):
        assert check(10**400, "seed_like", gt=0) == 10**400


#: study verb -> where its run function lives (replaced in CLI cases).
STUDY_RUNNERS = {
    "control": "repro.experiments.control_exp.run_control",
    "chaos": "repro.experiments.chaos_exp.run_chaos",
    "demand": "repro.experiments.demand_exp.run_demand",
    "colo": "repro.experiments.colo_exp.run_colo",
}

#: (verb, flag, extra argv): every numeric flag of the study verbs.
#: The cadence bounds need an adaptive arm to mean anything.
NUMERIC_FLAGS = (
    ("control", "--duration", ()),
    ("control", "--probe-interval", ()),
    ("control", "--tick", ()),
    ("control", "--outage-start", ()),
    ("control", "--outage-duration", ()),
    ("control", "--probe-budget", ()),
    ("chaos", "--duration", ()),
    ("chaos", "--tick", ()),
    ("chaos", "--probe-interval", ()),
    ("chaos", "--probe-floor", ("--adaptive",)),
    ("chaos", "--probe-ceiling", ("--adaptive",)),
    ("demand", "--epochs", ()),
    ("demand", "--level", ()),
    ("demand", "--rounds", ()),
    ("colo", "--load-level", ()),
    ("colo", "--epochs", ()),
)

#: (verb, flag, text) -> why the study accepts it.
ACCEPTED_FLAG_VALUES = {
    ("control", "--outage-start", "0"): "the outage starts with the run",
}

INT_FLAGS = {"--probe-budget", "--epochs", "--rounds", "--workers"}


class Reached(Exception):
    """The study's run function was called: the config took the value."""


def _flag_cases():
    for verb, flag, extra in NUMERIC_FLAGS:
        for value in BAD_VALUES:
            text = str(value)
            yield pytest.param(verb, flag, extra, text, id=f"{verb} {flag} {text}")


class TestCliSweep:
    @pytest.fixture(autouse=True)
    def _no_study_runs(self, monkeypatch, tmp_path):
        def reached(config, runner=None):
            raise Reached(config)

        for target in STUDY_RUNNERS.values():
            monkeypatch.setattr(target, reached)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("verb, flag, extra, text", _flag_cases())
    def test_bad_flag_value_is_an_error(self, verb, flag, extra, text, capsys):
        # ``--flag=value``: argparse would read a bare ``-inf`` as a flag.
        fast = () if verb == "control" else ("--fast",)
        argv = [verb, *fast, *extra, f"{flag}={text}"]
        if (verb, flag, text) in ACCEPTED_FLAG_VALUES:
            with pytest.raises(Reached):
                main(argv)
            return
        if flag in INT_FLAGS and text not in ("0", "-1"):
            # Not an int: the parser refuses it with its usage error.
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "error:" in capsys.readouterr().err
            return
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert out.out == ""

    @pytest.mark.parametrize("text", ["0", "-1"])
    def test_any_seed_reaches_the_study(self, text):
        with pytest.raises(Reached):
            main(["chaos", "--fast", f"--seed={text}"])

    @pytest.mark.parametrize("value", BAD_VALUES, ids=str)
    def test_workers_checked_on_the_parsed_config(self, value):
        # Parsed and validated only: no pool ever starts.
        text = str(value)
        if text not in ("0", "-1"):
            with pytest.raises(SystemExit):
                _build_parser().parse_args(["chaos", f"--workers={text}"])
            return
        args = _build_parser().parse_args(["chaos", f"--workers={text}"])
        with pytest.raises(ExecError, match="workers"):
            ExecConfig(workers=args.workers)


class TestGapsClosed:
    """Values that used to pass validation silently, named one by one."""

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            pytest.param(cls, field, value, id=f"{cls.__name__}.{field}={value}")
            for cls, field, value in (
                (ControlExpConfig, "probe_budget_bytes", 0),
                (ControlExpConfig, "probe_budget_bytes", -1),
                (PacketReplayConfig, "rwnd_bytes", 0),
                (TopologyConfig, "transit_peer_prob", 1.5),
                (TopologyConfig, "transit_peer_prob", math.nan),
            )
        ],
    )
    def test_rejected(self, cls, field, value):
        with pytest.raises(ReproError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("field", ["capacity_mbps", "prop_delay_ms", "max_queue_ms"])
    def test_nan_link_knob_rejected(self, field):
        # ``units.check_positive`` and ``check_non_negative`` let nan through.
        knobs = {"capacity_mbps": 100.0, "prop_delay_ms": 5.0, "max_queue_ms": 40.0}
        with pytest.raises(ConfigError, match=field):
            Link(
                link_id=0, router_a=1, router_b=2, base_loss=0.0,
                link_class=LinkClass.ACCESS, load=BackgroundLoad(base_util=0.1),
                **{**knobs, field: math.nan},
            )

    def test_floor_above_ceiling_names_both_flags(self):
        with pytest.raises(ExperimentError, match="--probe-floor.*--probe-ceiling"):
            ChaosConfig(adaptive=True, probe_floor_s=100.0, probe_ceiling_s=10.0)

    def test_ceiling_below_the_implicit_floor_names_the_flag(self):
        # Without --probe-floor the floor is a quarter of the probe
        # interval (15 s at the default 60 s): a lower ceiling was
        # accepted and never reached.
        with pytest.raises(ExperimentError, match=r"--probe-ceiling \(7.0\).*15.0"):
            ChaosConfig(adaptive_cadence=True, probe_ceiling_s=7.0)
        ChaosConfig(adaptive_cadence=True, probe_ceiling_s=15.0)

    @pytest.mark.parametrize(
        "bounds", [{"probe_floor_s": 5.0}, {"probe_ceiling_s": 30.0}], ids=["floor", "ceiling"]
    )
    def test_cadence_bounds_need_an_adaptive_cadence_arm(self, bounds):
        with pytest.raises(ExperimentError, match="adaptive"):
            ChaosConfig(**bounds)
        with pytest.raises(ExperimentError, match="adaptive"):
            ChaosConfig(gray_detect=True, **bounds)
        ChaosConfig(adaptive_cadence=True, **bounds)
