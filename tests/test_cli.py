"""Command-line driver: exit codes, written files, stdout/stderr contract."""
from __future__ import annotations

import filecmp
import os
import tracemalloc

import numpy as np
import pytest

from evofam import TimeGrid, cli, defect_sequence, evolution, fragmentation, iterate_right
from evofam import two_state_exchange
from evofam.cli import main

ORACLE_INI = """\
[experiment]
kind = oracle

[engine]
dt = 0.03125
n_max = 12

[oracle]
rate = 1.0

[initial]
kind = point
node = 0
"""

SUPERCRITICAL_INI = """\
[experiment]
kind = boltzmann

[engine]
dt = 0.0625
n_max = 18

[grid]
kind = velocity
min = -1.0
max = 1.0
n = 4

[frequency]
kind = constant
value = 0.5

[kernel]
kind = uniform
value = 1.0
"""

FRAG_INI = """\
[experiment]
kind = fragmentation

[engine]
dt = 0.0625
n_max = 14

[grid]
kind = mass
xmin = 0.0625
xmax = 1.0
n = 24

[rate]
kind = linear
scale = 1.0

[daughter]
kind = binary_uniform
"""

LIFTED_INI = """\
[experiment]
kind = lifted_checks

[engine]
dt = 0.0625

[oracle]
rate = 1.0

[initial]
kind = point
node = 0

[lifted]
h = 0.0625
t_max = 1.0
lam_factorization = 2.0
lam_series = 0
n_terms = 4
lam_laplace = 8.0
laplace_t_max = 3.0
n_laplace_max = 1
"""

SHATTERING_INI = """\
[experiment]
kind = shattering_sweep

[engine]
dt = 0.0625
t_end = 0.5

[shattering]
alpha = 0.0
x_min_start = 0.0625
n_grids = 2
nodes_per_grid = 24
n_max = 12
"""


SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def shipped_ini(name, *replacements):
    """Text of a shipped config with (old, new) line replacements applied."""
    with open(os.path.join(SCRIPTS_DIR, name)) as fh:
        text = fh.read()
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new)
    return text


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def stdout_pairs(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_run_oracle_matches_library_values(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert pairs["verdict"] == "honest"
    assert pairs["experiment"] == "oracle"
    assert set(pairs["files"].split(",")) == {"report.csv", "ledger.csv", "defects.csv"}
    assert pairs["output_dir"] == str(out_dir)
    assert float(pairs["wall_time_s"]) >= 0.0

    # defects.csv reproduces the library computation byte for byte
    table = iterate_right(two_state_exchange(1.0), TimeGrid(0.0, 1.0, 0.03125),
                          np.array([1.0, 0.0]), 12)
    expected = defect_sequence(table)
    lines = (out_dir / "defects.csv").read_text().splitlines()
    assert lines[0] == "n,defect"
    assert len(lines) == 14
    for n, line in enumerate(lines[1:]):
        assert line == f"{n},{float(expected[n])!r}"

    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "row_type,name,value"
    assert "config,engine.dt,0.03125" in report
    assert any(line.startswith("result,duhamel_residual,") for line in report)
    ledger_lines = (out_dir / "ledger.csv").read_text().splitlines()
    assert ledger_lines[-1].split(",")[3] == "honest"


def test_run_missing_config_reports_error_without_outputs(tmp_path, capsys):
    out_dir = tmp_path / "never"
    code = main(["run", str(tmp_path / "absent.ini"), "--output-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "not found" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_run_unknown_key_exits_one(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI + "typo_key = 1\n")
    code = main(["run", cfg, "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown configuration keys" in err
    assert "[initial] typo_key" in err


def test_run_strict_contract_violation_names_location(tmp_path, capsys):
    cfg = write_ini(tmp_path, SUPERCRITICAL_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert "refusing to rescale" in err
    assert "(t, v) = (" in err
    assert not out_dir.exists()


def test_lenient_flag_lets_supercritical_model_run(tmp_path, capsys):
    cfg = write_ini(tmp_path, SUPERCRITICAL_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--lenient", "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0  # defect sequence still collapses; honesty is separate
    assert (out_dir / "report.csv").exists()
    # the ledger shows created mass: residual magnitudes well above rounding
    assert float(pairs["ledger_max_abs_residual"]) > 1e-6


def test_initial_point_bounds_checked(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI.replace("node = 0", "node = 9"))
    code = main(["run", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "node" in capsys.readouterr().err


def test_fragmentation_run_reports_leakage(tmp_path, capsys):
    cfg = write_ini(tmp_path, FRAG_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert pairs["verdict"] == "honest"
    assert float(pairs["leakage_last"]) > 0.0


def test_lifted_checks_run_complete(tmp_path, capsys):
    cfg = write_ini(tmp_path, LIFTED_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert pairs["verdict"] == "complete"
    assert pairs["n_checks"] == "8"  # 1 factorization + 5 series + 2 transform
    assert float(pairs["worst_residual_over_bound"]) < 1.0
    checks = (out_dir / "checks.csv").read_text().splitlines()
    assert checks[0] == "check_name,h,lambda,n,residual,truncation_bound"
    assert len(checks) == 9
    names = {line.split(",")[0] for line in checks[1:]}
    assert names == {"resolvent_factorization", "resolvent_series",
                     "laplace_transform"}


def test_shattering_run_writes_trend_rows(tmp_path, capsys):
    cfg = write_ini(tmp_path, SHATTERING_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert pairs["defect_persists"] == "False"
    rows = (out_dir / "shattering.csv").read_text().splitlines()
    assert rows[0].startswith("x_min,n_nodes,defect_last")
    assert len(rows) == 3


def test_sweep_needs_section_and_two_values(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI)
    assert main(["sweep", cfg, "--output-dir", str(tmp_path / "a")]) == 1
    assert "sweep" in capsys.readouterr().err
    single = write_ini(tmp_path, ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.01\n",
                       name="single.ini")
    assert main(["sweep", single, "--output-dir", str(tmp_path / "b")]) == 1
    assert "at least 2" in capsys.readouterr().err


def test_dt_sweep_quarter_ratio(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.04, 0.02\n")
    out_dir = tmp_path / "out"
    code = main(["sweep", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert pairs["verdicts"] == "honest;honest"
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("resolution,defect_limit,ledger_residual,leakage,"
                        "duhamel_residual,ratio,verdict")
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[5] == ""  # no predecessor for the first row
    assert float(second[5]) == pytest.approx(0.25, abs=0.05)


def test_x_min_sweep_restricted_to_fragmentation(tmp_path, capsys):
    bad = write_ini(tmp_path, ORACLE_INI + "\n[sweep]\nkind = x_min\nvalues = 0.1, 0.05\n")
    assert main(["sweep", bad, "--output-dir", str(tmp_path / "a")]) == 1
    assert "fragmentation only" in capsys.readouterr().err
    good = write_ini(tmp_path,
                     FRAG_INI + "\n[sweep]\nkind = x_min\nvalues = 0.0625, 0.03125\n",
                     name="frag_sweep.ini")
    out_dir = tmp_path / "out"
    assert main(["sweep", good, "--output-dir", str(out_dir)]) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert all(float(line.split(",")[3]) > 0.0 for line in lines[1:])  # leakage


def test_emit_svg_writes_plot(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI)
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir), "--emit-svg"])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert "plots.svg" in pairs["files"].split(",")
    svg = (out_dir / "plots.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "defect vs iterate" in svg


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI)
    dirs = [tmp_path / "first", tmp_path / "second"]
    for d in dirs:
        assert main(["run", cfg, "--output-dir", str(d), "--emit-svg"]) == 0
    capsys.readouterr()
    for name in ("report.csv", "ledger.csv", "defects.csv", "plots.svg"):
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name


def test_collision_model_validated_over_the_run_span(tmp_path, capsys):
    # frequency 1 - 0.4 t falls to 0.2 at t = 2 while the gain mass stays
    # near 0.44: subcritical on [0, 1], supercritical on part of (1, 2]
    text = shipped_ini("boltzmann_timedep.ini",
                       ("c1 = 1.0", "c1 = -0.4"), ("t_end = 1.0", "t_end = 2.0"))
    out_dir = tmp_path / "out"
    code = main(["run", write_ini(tmp_path, text), "--output-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert "refusing to rescale" in err
    assert "(t, v) = (2.0," in err
    assert not out_dir.exists()


def test_shattering_verdict_uses_configured_persistence(tmp_path, capsys):
    text = shipped_ini("shattering_sweep.ini", ("alpha = 1.0", "alpha = 0.0"))
    text += "\n[honesty]\npersistence = 13\n"
    out_dir = tmp_path / "out"
    code = main(["run", write_ini(tmp_path, text), "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    footer = (out_dir / "ledger.csv").read_text().splitlines()[-1].split(",")
    # 12 defect ratios cannot fill a 13-long tail: the verdict is open
    assert pairs["verdict"] == footer[3] == "inconclusive"
    assert code == 3


def count_engine_runs(monkeypatch):
    """Record the lattice step count of every engine pass (row generator)."""
    runs = []
    right_rows = evolution._right_rows

    def counted(*args, **kwargs):
        runs.append(args[1].n_steps)
        return right_rows(*args, **kwargs)

    monkeypatch.setattr(evolution, "_right_rows", counted)
    return runs


@pytest.mark.parametrize("text, m", [
    (ORACLE_INI.replace("n_max = 12", "n_max = 20"), 32),
    (shipped_ini("boltzmann_timedep.ini", ("dt = 0.03125", "dt = 0.0625")), 16),
    (FRAG_INI.replace("n_max = 14", "n_max = 20"), 16),
], ids=["oracle", "collision", "fragmentation"])
def test_run_makes_three_engine_passes(text, m, tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    cfg = write_ini(tmp_path, text)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    # main table, the fine pass behind both residuals, the second cocycle leg
    assert runs == [m, 8 * m, 8 * m // 2]


def test_short_table_adds_one_pass_for_the_full_value(tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    # 13 rows cannot reach the series tolerance at t_end = 1
    cfg = write_ini(tmp_path, ORACLE_INI)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert runs == [32, 8 * 32, 32, 8 * 16]


def test_sweep_row_makes_two_engine_passes(tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    cfg = write_ini(tmp_path, ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.0625, 0.03125\n")
    assert main(["sweep", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    # per row: main table and the Duhamel fine pass
    assert runs == [16, 8 * 16, 32, 8 * 32]


@pytest.mark.parametrize("command, text, n_tables", [
    ("run", FRAG_INI, 1),
    ("sweep", ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.0625, 0.03125\n", 2),
    ("run", SHATTERING_INI, 2),
], ids=["run", "sweep", "shattering"])
def test_cli_hands_row_less_tables_to_the_honesty_layer(command, text, n_tables, tmp_path,
                                                        capsys, monkeypatch):
    tables = []

    def spy(*args, **kwargs):
        table = iterate_right(*args, **kwargs)
        tables.append(table)
        return table

    monkeypatch.setattr(cli, "iterate_right", spy)
    monkeypatch.setattr(fragmentation, "iterate_right", spy)
    code = main([command, write_ini(tmp_path, text), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert len(tables) == n_tables
    assert all(t.iterates is None and t.b_applied is None for t in tables)


def test_fragmentation_run_peak_stays_below_the_row_table(tmp_path, capsys):
    # d = 64, M = 16, 61 rows: the full table would take 1.06 MB, while a
    # streamed run peaks near 0.39 MB, and one that keeps the table near
    # 1.43 MB (tracemalloc, numpy 2.4)
    text = (FRAG_INI.replace("n_max = 14", "n_max = 60")
            .replace("xmin = 0.0625", "xmin = 0.015625").replace("n = 24", "n = 64"))
    cfg = write_ini(tmp_path, text)
    table_bytes = 2 * 61 * 17 * 64 * 8
    assert main(["run", cfg, "--output-dir", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes
