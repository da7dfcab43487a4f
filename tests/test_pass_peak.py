"""scripts/pass_peak.py: traced peaks of each phase of a row pass."""
from __future__ import annotations

import math
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "pass_peak.py"


def test_pass_peak_runs_on_one_tiny_shape():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--widths", "4", "--lengths", "8",
                           "--rows", "2"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("numpy ") and "_PASS_ROWS = 2" in lines[0]
    assert "_DIRECT_PASS_ROWS = 3" in lines[0] and "_PER_NODE_PASS_ROWS = 3" in lines[0]
    assert "_BLOCK_FLOATS = 16384" in lines[0]
    assert lines[1].split() == ["path", "gain", "d", "M", "steps", "flow", "row0", "B", "Bback",
                                "kicks", "kinpl", "carry", "caller", "other", "peak", "charge"]
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [(path, gain) for path in
                                            ("one-step", "midpoint", "direct", "per-node")
                                            for gain in ("dense", "pair")]
    for path, _gain, d, m, *cells in rows:
        assert (d, m) == ("4", "8")
        values = [float(c) for c in cells]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        # every pass makes its B rows in one call on so small a shape, and
        # its peak is its largest phase
        assert values[3] > 0.0 and values[4] == 0.0 and values[-2] == max(values[:-1])
