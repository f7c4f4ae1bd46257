"""Property tests: the fastpath mirror is invisible in study output.

For each study (chaos, demand, controlled, longitudinal, weblab) and
several seeds, the dumped result JSON must be byte-identical between

* object mode (the frozen scalar per-link walk of
  ``tests/reference/link_metrics.py``), in-process,
* the mirror in-process (no runner), and
* the mirror at 1 and 8 workers — for the studies that shard; weblab
  is one batch in-process.

Each study has one entry point, ``run_X(config, runner=None)``, that
runs the same shard list in-process or on the pool, so every run is
compared against the one object-mode reference.  Byte equality of the
serialized artifact is deliberately the bar: it is what the exec cache
keys on and what the paper-repro pipeline diffs between runs.
"""

from __future__ import annotations

import pytest

from reference.link_metrics import object_mode
from repro.exec.runner import ExecConfig, ExecRunner
from repro.experiments.chaos_exp import ChaosConfig, run_chaos
from repro.experiments.controlled import ControlledConfig, run_controlled
from repro.experiments.demand_exp import DemandConfig, run_demand
from repro.experiments.longitudinal import run_longitudinal
from repro.experiments.weblab import WeblabConfig, run_weblab
from repro.io import dump_json

SEEDS = (3, 11)


def _dump(tmp_path, tag, result) -> bytes:
    return dump_json(result, tmp_path / f"{tag}.json").read_bytes()


def _runner(tmp_path, tag, workers) -> ExecRunner:
    return ExecRunner(
        ExecConfig(workers=workers, cache_dir=tmp_path / f"cache-{tag}")
    )


def _chaos_config(seed: int) -> ChaosConfig:
    # Several scenarios, so each exec shard replays one scenario's eight
    # runs under one injector while the other shards fill their own caches.
    return ChaosConfig(
        seed=seed,
        scale="small",
        scenarios=("as-outage", "route-flap", "probe-loss"),
        duration_s=600.0,
        tick_s=10.0,
        probe_interval_s=30.0,
    )


def _demand_config(seed: int) -> DemandConfig:
    return DemandConfig(
        seed=seed,
        levels=(1.0, 8.0),
        epochs=2,
        policies=("best-path", "anycast"),
        rounds=3,
    )


def _controlled_config(seed: int) -> ControlledConfig:
    return ControlledConfig(seed=seed, scale="small", n_clients=2)


def _run_longitudinal(config: ControlledConfig, runner=None):
    # Short sweep over the controlled campaign's most-improved paths;
    # both stages shard, so both run on the runner.
    campaign = run_controlled(config, runner)
    return run_longitudinal(campaign, top_n=4, samples=6, runner=runner)


def _weblab_config(seed: int) -> WeblabConfig:
    return WeblabConfig(seed=seed, scale="small", n_clients=4, n_servers=3)


STUDIES = {
    "chaos": (_chaos_config, run_chaos),
    "demand": (_demand_config, run_demand),
    "controlled": (_controlled_config, run_controlled),
    "longitudinal": (_controlled_config, _run_longitudinal),
    "weblab": (_weblab_config, run_weblab),
}
#: Studies without exec shards: compared in-process only.
UNSHARDED = {"weblab"}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_fastpath_output_byte_identical_to_object_mode(study, seed, tmp_path):
    make_config, run_study = STUDIES[study]

    with object_mode():
        reference = _dump(tmp_path, f"{study}-obj", run_study(make_config(seed)))

    fast_serial = _dump(tmp_path, f"{study}-fast-serial", run_study(make_config(seed)))
    assert fast_serial == reference, (
        f"{study} seed {seed}: in-process fastpath output differs from object mode"
    )
    for workers in () if study in UNSHARDED else (1, 8):
        fast = _dump(
            tmp_path,
            f"{study}-fast-w{workers}",
            run_study(
                make_config(seed), _runner(tmp_path, f"{study}-{workers}", workers)
            ),
        )
        assert fast == reference, (
            f"{study} seed {seed}: fastpath output at {workers} workers "
            "differs from object mode"
        )
