"""scripts/bench_carry.py: timing of the carry's two prefix-sum methods."""
from __future__ import annotations

import math
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_carry.py"


def test_bench_carry_runs_on_one_tiny_shape():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--widths", "2", "--lengths", "3",
                           "--rounds", "1", "--number", "1"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("numpy ") and "_LOOP_ROW" in lines[0]
    assert lines[1].split() == ["w", "M", "cumsum_us", "loop_us", "loop/cumsum"]
    (row,) = lines[2:]
    w, m, *times = row.split()
    assert (w, m) == ("2", "3")
    assert all(math.isfinite(float(t)) and float(t) > 0.0 for t in times)
