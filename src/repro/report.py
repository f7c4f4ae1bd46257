"""One-shot report generation: the whole paper, regenerated.

``generate_report`` runs every experiment at the requested scale and
assembles a single Markdown document mirroring the paper's evaluation
narrative — useful as a smoke test of the entire pipeline and as the
artifact a downstream user shows around.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError


@dataclass(frozen=True, slots=True)
class ReportSection:
    """One experiment's contribution to the report."""

    title: str
    paper_reference: str
    body: str


def _section(title: str, reference: str, body: str) -> ReportSection:
    return ReportSection(title=title, paper_reference=reference, body=body)


def _measurement_health(summary, manifest=None) -> str:
    """The flaky-vantage-point table.

    Campaign per-task ok/error tallies and — on sharded runs — the exec
    manifest's per-shard error counts land in one table, so a flaky
    task and a dying shard read the same way: a nonzero error column.

    ``summary`` may be None on a fully-warm ``--resume`` run (the
    campaign never re-executed, so there is no fresh per-task tally);
    the section then reports exec-manifest health alone.
    """
    from repro.analysis.tables import format_table

    rows = []
    lines = []
    if summary is not None:
        rows.extend(
            ("campaign", task_id, counts.ok, counts.errors)
            for task_id, counts in sorted(summary.counts.items())
        )
        lines.append(
            f"campaign: {summary.total_ok} ok, {summary.total_errors} errors "
            f"across {len(summary.counts)} tasks"
        )
        flaky = summary.flaky_tasks()
        if flaky:
            lines.append(f"flaky tasks: {', '.join(flaky)}")
    else:
        lines.append(
            "campaign tallies unavailable: every campaign section was served "
            "from the exec cache (--resume), nothing re-executed"
        )
    if manifest is not None:
        rows.extend(
            ("exec", record.label, 0, 1)
            if record.status == "error"
            else ("exec", record.label, 1, 0)
            for record in manifest.records
        )
        lines.append(
            f"exec: {manifest.executed} shards executed, "
            f"{manifest.cache_hits} served from cache, {manifest.errors} failed "
            f"({manifest.workers} workers, {manifest.wall_s:.1f} s wall)"
        )
    lines.append(format_table(["source", "unit", "ok", "errors"], rows))
    return "\n\n".join(lines)


def generate_sections(
    seed: int = 7, scale: str = "small", exec_runner=None
) -> list[ReportSection]:
    """Run every experiment and collect rendered sections.

    With ``exec_runner`` (an :class:`~repro.exec.runner.ExecRunner`),
    the shardable campaigns run on the worker pool, every section
    body is content-addressed in the exec cache (kind
    ``report.section``), and the measurement-health section includes
    the run manifest.  On ``--resume``, sections whose shard keys are
    warm are *skipped entirely* — their bodies (and the experiments
    behind them) never recompute — and the skipped/recomputed counts
    are logged.
    """
    from repro.exec.plan import ExecTask, run_tasks
    from repro.exec.spec import TaskSpec

    # Shared experiment inputs, built lazily and at most once: a
    # section served from the cache never forces the campaign behind
    # it to rebuild — that laziness is what makes --resume incremental.
    # Each study module is imported inside the thunk that runs it, so
    # a fully cached report imports none of them.
    memo: dict = {}

    def once(name: str, build):
        if name not in memo:
            memo[name] = build()
        return memo[name]

    # The weblab, controlled and multi-hop studies share one world, as
    # one Internet served the paper's whole measurement campaign;
    # placement builds its own because it picks other data centers.
    def world_of():
        from repro.experiments.scenario import build_world

        return once("world", lambda: build_world(seed=seed, scale=scale))

    def weblab_of():
        from repro.experiments.weblab import WeblabConfig, run_weblab

        return once(
            "weblab",
            lambda: run_weblab(WeblabConfig(seed=seed, scale=scale), world=world_of()),
        )

    def campaign_of():
        from repro.experiments.controlled import ControlledConfig, run_controlled

        return once(
            "campaign",
            lambda: run_controlled(
                ControlledConfig(seed=seed, scale=scale), exec_runner, world=world_of()
            ),
        )

    def longitudinal_of():
        from repro.experiments.longitudinal import run_longitudinal

        top_n = 30 if scale == "paper" else 8
        samples = 50 if scale == "paper" else 10
        return once(
            "longitudinal",
            lambda: run_longitudinal(
                campaign_of(), top_n=top_n, samples=samples, runner=exec_runner
            ),
        )

    def diversity():
        from repro.experiments.diversity_exp import run_diversity

        return run_diversity(campaign_of()).render(series_points=8)

    def factors():
        from repro.experiments.factors import run_factors

        return run_factors(campaign_of()).render()

    def classify():
        from repro.experiments.classify import run_classify

        return run_classify(campaign_of()).render()

    def cost():
        from repro.experiments.cost import run_cost

        return run_cost(weblab_of()).render()

    def placement():
        from repro.experiments.placement_exp import run_placement

        return run_placement(seed=seed, scale=scale).render()

    def multihop():
        from repro.experiments.multihop_exp import run_multihop

        return run_multihop(seed=seed, scale=scale, world=world_of()).render()

    builders = [
        ("Web-server campaign", "Sec. III-A, Fig. 2",
         lambda: weblab_of().render(series_points=10)),
        ("Controlled senders", "Sec. III-B, Figs. 3-5",
         lambda: campaign_of().result.render(series_points=10)),
        ("Persistency of gains", "Sec. IV, Figs. 6-7, Table I",
         lambda: longitudinal_of().render()),
        ("Path diversity", "Sec. V-A, Fig. 8", diversity),
        ("Who gains", "Sec. V-B, Figs. 9-11", factors),
        ("C4.5 thresholds", "Sec. V-B", classify),
        ("Economics", "Abstract, Sec. VII-D", cost),
        ("Placement planning (extension)", "Sec. VII-A", placement),
        ("Multi-hop overlays (extension)", "Sec. VII-B", multihop),
    ]
    entries = [(title, reference) for title, reference, _build in builders]
    tasks = [
        ExecTask(
            spec=TaskSpec(
                "report.section", seed, index, len(builders),
                params={"scale": scale, "title": title},
            ),
            fn=build,
        )
        for index, (title, _reference, build) in enumerate(builders)
    ]
    # Inline, not pooled: section thunks drive the exec runner
    # themselves (campaign shards), so they must stay in-driver.
    bodies = run_tasks(tasks, exec_runner, stage="report.sections", inline=True)
    if exec_runner is not None:
        records = [
            record for record in exec_runner.manifest.records
            if record.stage == "report.sections"
        ]
        skipped = sum(1 for record in records if record.status == "cached")
        print(
            f"[report] sections: {skipped} served from cache (skipped), "
            f"{len(records) - skipped} recomputed"
        )

    sections = [
        _section(title, reference, body)
        for (title, reference), body in zip(entries, bodies)
    ]

    # The health section is run-specific (timings, cache hits) and is
    # therefore never cached; campaign tallies exist only when the
    # campaign actually re-executed this run.
    longitudinal = memo.get("longitudinal")
    summary = longitudinal.campaign_summary if longitudinal is not None else None
    if summary is not None or exec_runner is not None:
        manifest = exec_runner.manifest if exec_runner is not None else None
        health = _section(
            "Measurement health", "harness", _measurement_health(summary, manifest)
        )
        sections.insert(3, health)
    return sections


def generate_report(
    seed: int = 7, scale: str = "small", include_mptcp: bool = False, exec_runner=None
) -> str:
    """The full Markdown report.

    MPTCP sections are opt-in: the fluid simulations dominate runtime.
    """
    sections = generate_sections(seed=seed, scale=scale, exec_runner=exec_runner)
    if include_mptcp:
        from repro.experiments.mptcp_exp import MptcpExpConfig, run_mptcp_experiment
        from repro.transport.mptcp import MptcpScheme

        olia = run_mptcp_experiment(MptcpExpConfig.small(seed))
        cubic = run_mptcp_experiment(MptcpExpConfig.small(seed, MptcpScheme.UNCOUPLED_CUBIC))
        sections.append(_section("MPTCP with OLIA", "Sec. VI-B, Fig. 12", olia.render()))
        sections.append(_section("MPTCP with Cubic", "Sec. VI-C, Fig. 13", cubic.render()))

    lines = [
        "# CRONets reproduction report",
        "",
        f"seed {seed}, scale `{scale}` — generated by `repro.report`.",
        "",
    ]
    for section in sections:
        lines.append(f"## {section.title} ({section.paper_reference})")
        lines.append("")
        lines.append("```")
        lines.append(section.body)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_report(path: str | Path, seed: int = 7, scale: str = "small",
                 include_mptcp: bool = False, exec_runner=None) -> Path:
    """Generate and write the report; returns the written path."""
    target = Path(path)
    if target.suffix != ".md":
        raise ReproError(f"report path should end in .md, got {target}")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        generate_report(
            seed=seed, scale=scale, include_mptcp=include_mptcp, exec_runner=exec_runner
        )
    )
    return target
