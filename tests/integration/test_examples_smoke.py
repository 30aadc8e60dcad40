"""Smoke tests: the quickstart example finds the paper's matches, the
suspend/resume example resumes to the uninterrupted result, and every
example compiles."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_quickstart_runs_and_reports_matches():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "('e1', 'e3')" in proc.stdout  # the paper's match
    assert "('e2', 'e4')" in proc.stdout
    assert "blocks pruned" in proc.stdout


def test_operational_example_resumes_to_the_uninterrupted_run(tmp_path):
    # The example suspends into the temp directory; keep it per-test.
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "operational.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "identical to uninterrupted run: True" in proc.stdout
    assert f"written to {tmp_path / 'er_state.json'}" in proc.stdout


def test_all_examples_are_syntactically_valid():
    import py_compile

    for path in sorted(EXAMPLES.glob("*.py")):
        py_compile.compile(str(path), doraise=True)
