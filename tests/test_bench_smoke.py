"""The benchmark's smoke mode: every workload, untraced and traced, on a
tiny world, with all of its output checks on. It also fails when a function
the benchmark's tracer wraps has been renamed or removed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines, proc.stdout
    for line in lines:
        assert line.startswith("smoke ") and ": ok (" in line, line
