"""Workload models and the report generator."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.experiments.workloads import (
    BulkTransferModel,
    InteractiveQualityModel,
    OfficeWorkload,
)
from repro.net.path import PathMetrics


def metrics(rtt=100.0, loss=1e-4):
    return PathMetrics(rtt_ms=rtt, loss=loss, available_bw_mbps=100.0, capacity_mbps=100.0)


class TestBulkTransfers:
    def test_sizes_positive_and_heavy_tailed(self):
        model = BulkTransferModel()
        sizes = model.sample_sizes(np.random.default_rng(1), 500)
        assert all(s >= 1 for s in sizes)
        assert max(sizes) > 10 * sorted(sizes)[len(sizes) // 2]  # long tail

    def test_median_near_target(self):
        model = BulkTransferModel(median_bytes=1e7, sigma=0.5)
        sizes = model.sample_sizes(np.random.default_rng(2), 2_000)
        median = sorted(sizes)[len(sizes) // 2]
        assert median == pytest.approx(1e7, rel=0.2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BulkTransferModel(median_bytes=0)
        with pytest.raises(ConfigError):
            BulkTransferModel(sigma=0)
        with pytest.raises(ConfigError):
            BulkTransferModel().sample_sizes(np.random.default_rng(1), 0)


class TestInteractiveQuality:
    def test_perfect_path_scores_100(self):
        model = InteractiveQualityModel()
        assert model.score(metrics(rtt=50.0, loss=0.0)) == 100.0

    def test_rtt_penalty(self):
        model = InteractiveQualityModel()
        good = model.score(metrics(rtt=100.0))
        bad = model.score(metrics(rtt=400.0))
        assert bad < good

    def test_loss_penalty_logarithmic(self):
        model = InteractiveQualityModel()
        p1 = model.score(metrics(loss=1e-3))
        p2 = model.score(metrics(loss=1e-2))
        p3 = model.score(metrics(loss=1e-1))
        assert p1 > p2 > p3
        # Each decade costs the same.
        assert (p1 - p2) == pytest.approx(p2 - p3, abs=1e-6)

    def test_score_bounded(self):
        model = InteractiveQualityModel()
        assert model.score(metrics(rtt=10_000.0, loss=0.5)) == 0.0

    def test_acceptable_threshold(self):
        model = InteractiveQualityModel()
        assert model.acceptable(metrics(rtt=50.0, loss=0.0))
        assert not model.acceptable(metrics(rtt=1_000.0, loss=0.1))

    def test_overlay_improves_session_quality(self, small_internet):
        """The Sec. II-B claim: RTT/loss gains help interactive apps."""
        model = InteractiveQualityModel()
        direct = small_internet.resolve_path("client", "server")
        leg1 = small_internet.resolve_path("client", "vm")
        leg2 = small_internet.resolve_path("vm", "server")
        overlay = leg1.concatenate(leg2)
        t = 6 * 3_600.0
        direct_score = model.score(direct.metrics(t))
        overlay_score = model.score(overlay.metrics(t))
        # On this seeded pair the overlay is cleaner and shorter.
        assert overlay_score >= direct_score


class TestOfficeWorkload:
    def test_daily_volume(self):
        workload = OfficeWorkload()
        volume = workload.daily_bulk_bytes(np.random.default_rng(3))
        assert volume > 0

    def test_session_times_in_day(self):
        workload = OfficeWorkload()
        times = workload.session_times(np.random.default_rng(4))
        assert len(times) == workload.interactive_sessions_per_day
        assert all(0.0 <= t < 86_400.0 for t in times)
        assert times == sorted(times)

    def test_empty_workload(self):
        workload = OfficeWorkload(bulk_transfers_per_day=0, interactive_sessions_per_day=0)
        assert workload.daily_bulk_bytes(np.random.default_rng(5)) == 0
        assert workload.session_times(np.random.default_rng(5)) == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            OfficeWorkload(bulk_transfers_per_day=-1)


class TestReport:
    def test_report_covers_all_sections(self, tmp_path):
        from repro.report import write_report

        target = write_report(tmp_path / "report.md", seed=3, scale="small")
        text = target.read_text()
        for marker in (
            "Web-server campaign",
            "Controlled senders",
            "Persistency",
            "Path diversity",
            "Who gains",
            "C4.5",
            "Economics",
            "Placement planning",
            "Multi-hop overlays",
        ):
            assert marker in text, f"missing section {marker}"
        assert text.startswith("# CRONets reproduction report")

    def test_report_path_validated(self, tmp_path):
        from repro.report import write_report

        with pytest.raises(ReproError):
            write_report(tmp_path / "report.txt")


GOLDEN = Path(__file__).parent / "golden"


def _without_health(report: str) -> str:
    """The report minus its "Measurement health" section, which lists
    exec shards and their wall time by design."""
    return re.sub(r"^## Measurement health .*?(?=^## )", "", report, flags=re.M | re.S)


class TestPaperGolden:
    # The paper itself pinned byte for byte at paper scale: E1-E9, E12
    # and the placement and multi-hop extensions in one file.
    # Regenerate with `python -m repro report --scale paper --seed 7
    # --out tests/golden/report_paper_seed7.md` only when a change is
    # meant to move the science.
    def test_paper_report_matches_committed_output(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "report.md"
        argv = ["report", "--scale", "paper", "--seed", "7", "--out", str(target)]
        assert main(argv) == 0
        golden = (GOLDEN / "report_paper_seed7.md").read_text()
        assert target.read_text() == golden

    # On the worker pool every section but the run-specific health
    # table must match the serial golden.
    def test_sharded_paper_report_matches_committed_output(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "report.md"
        argv = [
            "report", "--scale", "paper", "--seed", "7", "--out", str(target),
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        golden = (GOLDEN / "report_paper_seed7.md").read_text()
        assert "## Measurement health" in golden
        assert _without_health(target.read_text()) == _without_health(golden)
