"""The report generator."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import ReproError


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
