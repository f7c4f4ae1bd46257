"""Packet-engine fastpath bench: the ISSUE-10 speedup gate.

Not a paper figure — the performance contract behind the packet-level
chaos replay: the batched engine (ring-buffer bookkeeping, burst hop
traversal, widened draw plane, lazy RTO re-arm) must run the
representative overlay transfer at least 5x faster than the scalar
reference it is byte-identical to (``tests/reference/packetsim_scalar.py``,
loaded by path: ``tests/`` is not a package).  ``BENCH_packet.json``
records the same numbers as a trajectory snapshot; this test is the
hard gate.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.transport.packetsim import PacketLevelTcp, SimLink

_SPEC = importlib.util.spec_from_file_location(
    "packetsim_scalar",
    Path(__file__).parents[1] / "tests" / "reference" / "packetsim_scalar.py",
)
_REFERENCE = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_REFERENCE)

#: Lossy ingress hop, then a clean 11-hop backbone chain — the shape
#: the burst traversal is built for (and the shape of a CRONets
#: intercontinental overlay path).
LINKS = [SimLink(400.0, 8.0, loss_prob=1e-4)] + [SimLink(1_000.0, 3.0)] * 11
#: Timed runs per engine, alternating; the gate compares the medians.
#: One run each put the ratio within host noise of the gate.
REPEATS = 5


def _segments_per_sec(fastpath: bool) -> float:
    engine = PacketLevelTcp if fastpath else _REFERENCE.PacketLevelTcp
    tcp = engine(LINKS, np.random.default_rng(7), rwnd_bytes=4_194_304)
    begin = time.perf_counter()
    tcp.run(10.0)
    elapsed = time.perf_counter() - begin
    return (tcp.delivered_segments + tcp.retransmissions) / elapsed


def test_packet_fastpath_speedup(benchmark):
    _segments_per_sec(True)  # untimed warmup
    fast_rates, scalar_rates = [], []

    def alternate():
        for _ in range(REPEATS):
            fast_rates.append(_segments_per_sec(True))
            scalar_rates.append(_segments_per_sec(False))

    benchmark.pedantic(alternate, rounds=1, iterations=1)
    fast = statistics.median(fast_rates)
    scalar = statistics.median(scalar_rates)
    print()
    print(
        f"packet engine: fastpath {fast:,.0f} segs/s, "
        f"scalar {scalar:,.0f} segs/s, speedup {fast / scalar:.1f}x"
    )
    assert fast >= 5.0 * scalar
