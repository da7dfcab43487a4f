"""scripts/compare_outputs.py: cell-wise comparison of two output trees."""
from __future__ import annotations

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def write_tree(root: pathlib.Path, report: str, extra: dict | None = None) -> pathlib.Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "report.csv").write_text(report)
    for name, text in (extra or {}).items():
        (root / "run" / name).write_text(text)
    return root


def compare(a, b, *options):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *options],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


REPORT = "kind,key,value\nresult,verdict,honest\nresult,defect,0.25\n"


def test_identical_trees_match(tmp_path):
    a = write_tree(tmp_path / "a", REPORT, {"notes.txt": "same"})
    b = write_tree(tmp_path / "b", REPORT, {"notes.txt": "same"})
    code, out = compare(a, b)
    assert code == 0
    assert "run/report.csv: ok: identical" in out


def test_numeric_cells_within_tolerance(tmp_path):
    a = write_tree(tmp_path / "a", REPORT)
    b = write_tree(tmp_path / "b", REPORT.replace("0.25", "0.2500001"))
    assert compare(a, b, "--rtol", "1e-6")[0] == 0
    code, out = compare(a, b, "--rtol", "1e-8")
    assert code == 1
    assert "MISMATCH" in out and "column 'value'" in out and "0.25 vs 0.2500001" in out
    assert "1 cell differs, worst cell row 2" in out


def test_reports_how_many_cells_differ(tmp_path):
    a = write_tree(tmp_path / "a", REPORT + "result,limit,1.0\nresult,last,2.0\n")
    b = write_tree(tmp_path / "b", REPORT + "result,limit,1.5\nresult,last,2.0000001\n")
    # both moved cells count, also the one within tolerance; the worst is named
    code, out = compare(a, b, "--rtol", "1.0")
    assert code == 0
    assert "run/report.csv: ok: 2 cells differ, worst cell row 3 column 'value'" in out
    code, out = compare(a, b)
    assert code == 1
    assert "run/report.csv: MISMATCH: 2 cells differ, worst cell row 3" in out


def test_text_cells_and_file_sets_must_match(tmp_path):
    a = write_tree(tmp_path / "a", REPORT)
    b = write_tree(tmp_path / "b", REPORT.replace("honest", "dishonest"))
    assert compare(a, b, "--rtol", "1.0")[0] == 1
    c = write_tree(tmp_path / "c", REPORT, {"extra.csv": "x\n1\n"})
    code, out = compare(a, c)
    assert code == 1
    assert "run/extra.csv: MISSING" in out
    d = write_tree(tmp_path / "d", REPORT + "result,n,3\n")
    assert "3 rows against 4" in compare(a, d)[1]
