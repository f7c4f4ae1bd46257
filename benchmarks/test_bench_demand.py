"""Demand-engine perf signal: million-flow epochs without flow objects.

The aggregate layer's contract (DESIGN.md §13): an arm's epochs run
as one batch, a few numpy passes over the (epochs x pairs x relays)
split stack per selection round plus one aggregate solve over
(epoch, pair, relay) classes, and the cost is *independent of the flow
count*.  Two numbers the BENCH trajectory tracks:

* **million-flow epoch** — one epoch at 100x regional load pushes
  >= 1M concurrent flows through the shared relays; asserted directly
  on the epoch's ``flows`` metric and bounded in wall-clock (the
  batch's wall-clock per epoch).
* **flow-count independence** — the same epoch at 1x load (tens of
  thousands of flows) costs within a small factor of the 100x epoch
  (~2.4M flows): a 100x flow increase must not show up as wall-clock.
"""

from __future__ import annotations

import time

from repro.experiments.demand_exp import DemandConfig, _build_engine, _study_inputs

BENCH_SEED = 7

#: Epochs timed per load level (averaging out allocator noise): one
#: simulated day, so a millisecond-scale epoch still times a few tens
#: of milliseconds and one scheduler hiccup cannot fake the ratio.
BENCH_EPOCHS = 24

#: The 100x epoch may cost at most this many times the 1x epoch.  The
#: true ratio is ~1 (identical class/resource counts); 5x leaves room
#: for cache effects and CI jitter while still refuting any per-flow
#: work, which would show up as ~100x.
INDEPENDENCE_FACTOR = 5.0


def _epoch_seconds(engine, config) -> tuple[float, int]:
    """Mean wall-clock per epoch of one batched call, and the peak flows."""
    start = time.perf_counter()
    metrics = engine.run(range(BENCH_EPOCHS), config.epoch_s)
    elapsed = time.perf_counter() - start
    return elapsed / BENCH_EPOCHS, max(epoch["flows"] for epoch in metrics)


def test_demand_million_flow_epochs(benchmark):
    config = DemandConfig(seed=BENCH_SEED, scale="small")
    pairs, relays, model = _study_inputs(config)
    heavy = _build_engine(pairs, relays, model, "qps-weighted", 100.0, config)
    light = _build_engine(pairs, relays, model, "qps-weighted", 1.0, config)

    light_s, light_flows = _epoch_seconds(light, config)

    def run_heavy():
        return _epoch_seconds(heavy, config)

    heavy_s, heavy_flows = benchmark.pedantic(run_heavy, rounds=1, iterations=1)

    ratio = heavy_s / light_s
    benchmark.extra_info["light_flows"] = light_flows
    benchmark.extra_info["heavy_flows"] = heavy_flows
    benchmark.extra_info["light_epoch_s"] = round(light_s, 4)
    benchmark.extra_info["heavy_epoch_s"] = round(heavy_s, 4)
    benchmark.extra_info["cost_ratio"] = round(ratio, 2)
    print()
    print(
        f"demand epochs: {light_flows:,} flows in {light_s * 1e3:.1f} ms, "
        f"{heavy_flows:,} flows in {heavy_s * 1e3:.1f} ms "
        f"(cost ratio {ratio:.2f}x for {heavy_flows / max(light_flows, 1):.0f}x flows)"
    )

    # The headline contract: an epoch carries over a million concurrent
    # simulated flows, solved per (path, epoch) — no per-flow objects.
    assert heavy_flows >= 1_000_000
    assert heavy_s < 2.0  # a million-flow epoch stays sub-2s wall-clock
    # 100x the flows must not cost 100x the time.
    assert ratio < INDEPENDENCE_FACTOR
