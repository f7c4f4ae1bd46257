"""What each benchmark workload runs.

BENCHMARK.json names the workloads and says why each exists; this module
holds what that file's schema has no room for: the ``repro`` command lines,
the full-pass iteration counts and the set-up each workload needs.

Placeholders in a command: ``{seed}`` (the benchmark seed), ``{cache}`` (the
iteration's exec cache directory) and ``{report}`` (the report path).
"""

from __future__ import annotations

from dataclasses import dataclass

SHARDED = ("--workers", "2", "--cache-dir", "{cache}")
REPORT = ("report", "--scale", "paper", "--seed", "{seed}", "--out", "{report}")
CHAOS = ("chaos", "--scenario", "all", "--seed", "{seed}")
DEMAND = ("demand", "--seed", "{seed}")


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: an iteration runs ``commands`` in order."""

    name: str
    #: World scale of the set-up sample (``repro world --scale``).
    scale: str
    commands: tuple[tuple[str, ...], ...]
    #: Iterations in a full pass (``bench/run.py`` without ``--workload``).
    iterations: int
    #: Commands run once before measuring; their output is the reference.
    setup: tuple[tuple[str, ...], ...] = ()
    #: For each command, the index of the set-up command whose output it
    #: must reproduce byte for byte (None: no reference).
    reference: tuple[int | None, ...] = ()
    #: Each iteration gets a fresh, empty exec cache.
    fresh_cache: bool = False
    #: Iterations must serve every shard from the set-up's cache.
    read_only_cache: bool = False


WORKLOADS: tuple[Workload, ...] = (
    Workload("paper", "paper", (REPORT, ("colo", "--seed", "{seed}")), iterations=5),
    Workload("chaos", "small", (CHAOS, ("control", "--seed", "{seed}")), iterations=5),
    Workload("demand", "small", (DEMAND,), iterations=5),
    Workload(
        "transport",
        "small",
        (
            ("run", "fig12", "--seed", "{seed}"),
            ("run", "fig13", "--seed", "{seed}"),
            # --fast: the full replay's cost swings 3x with the seed's world
            # (0.9 to 3.1 s over seeds 1-10), swamping the fluid engine's share.
            ("chaos", "--engine", "packet", "--fast", "--seed", "{seed}"),
        ),
        iterations=4,
    ),
    Workload(
        "sharded",
        "small",
        (CHAOS + SHARDED, DEMAND + SHARDED),
        iterations=3,
        setup=(CHAOS, DEMAND),
        reference=(0, 1),
        fresh_cache=True,
    ),
    Workload(
        "resume",
        "paper",
        (
            REPORT + SHARDED + ("--resume",),
            CHAOS + SHARDED + ("--resume",),
            DEMAND + SHARDED + ("--resume",),
        ),
        iterations=8,
        setup=(REPORT + SHARDED, CHAOS + SHARDED, DEMAND + SHARDED),
        reference=(0, 1, 2),
        read_only_cache=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
