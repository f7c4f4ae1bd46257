"""Every script in ``examples/`` runs to completion.

The examples are documentation that executes; nothing else calls
them, so each one runs here in a fresh interpreter, as a reader would
run it, and must exit 0 with something on stdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]
EXAMPLES = Path(__file__).parents[1] / "examples"
NAMES = ["branch_office", "quickstart", "remote_worker"]


def test_every_example_is_run():
    assert sorted(path.stem for path in EXAMPLES.glob("*.py")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_example_runs(name):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
