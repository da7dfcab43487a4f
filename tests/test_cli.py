"""Command-line driver: exit codes, written files, stdout/stderr contract."""
from __future__ import annotations

import dataclasses
import filecmp
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evofam import (LiftedVector, TimeGrid, cli, cocycle_residual, duhamel_residual, evolution,
                    iterate_right, lifted, mass_ledger, parse_config,
                    resolvent_factorization_check, table_verdict)
from evofam import two_state_exchange
from evofam.cli import main
from evofam.config import EngineSection

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
    expected = table.defects
    lines = (out_dir / "defects.csv").read_text().splitlines()
    assert lines[0] == "n,defect"
    assert len(lines) == 14
    for n, line in enumerate(lines[1:]):
        assert line == f"{n},{float(expected[n])!r}"

    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "row_type,name,value"
    assert "config,engine.dt,0.03125" in report
    assert any(line.startswith("result,duhamel_residual,") for line in report)
    ledger, series = mass_ledger(table), table_verdict(table)
    ledger_lines = (out_dir / "ledger.csv").read_text().splitlines()
    assert ledger_lines[0] == "n,defect,partial_mass,ledger_residual"
    assert len(ledger_lines) == 2 + ledger.n_max + 1  # header + rows + footer
    first = ledger_lines[1].split(",")
    assert first[0] == "0"
    assert [float(v) for v in first[1:]] == [ledger.defects[0], ledger.partial_mass[0],
                                             ledger.residuals[0]]
    footer = ledger_lines[-1].split(",")
    assert footer[0] == "limit_estimate" and footer[2] == "verdict"
    assert float(footer[1]) == series.limit_estimate
    assert footer[3] == series.verdict == "honest"


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


def test_run_oversized_lattice_exits_one(tmp_path, capsys):
    cfg = write_ini(tmp_path, ORACLE_INI.replace("dt = 0.03125", "dt = 1e-12"))
    code = main(["run", cfg, "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: time lattice would need")


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
    # [model] strict_subcritical is the one switch, and the report says so
    cfg = write_ini(tmp_path, SUPERCRITICAL_INI + "\n[model]\nstrict_subcritical = false\n")
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0  # defect sequence still collapses; honesty is separate
    assert "config,model.strict_subcritical,false\n" in (out_dir / "report.csv").read_text()
    # the ledger shows created mass: residual magnitudes well above rounding
    assert float(pairs["ledger_max_abs_residual"]) > 1e-6


@pytest.mark.parametrize("flag", ["--strict", "--lenient"])
def test_strictness_flags_are_not_options(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", write_ini(tmp_path, SUPERCRITICAL_INI), flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_emit_svg_is_not_an_option(command, tmp_path, capsys):
    # [output] emit_svg is the one switch, and report.csv echoes it
    with pytest.raises(SystemExit) as exit_:
        main([command, write_ini(tmp_path, ORACLE_INI), "--emit-svg"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --emit-svg" in capsys.readouterr().err


def test_readme_flag_table_lists_every_option():
    # the rows of README's "Command line" flag table against the options
    # the parser accepts, for each subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    documented = {flag for cell in re.findall(r"^\| (`--.*?) \|", section, re.M)
                  for flag in re.findall(r"`(--[\w-]+)", cell)}
    commands = cli._PARSER._subparsers._group_actions[0].choices
    assert set(commands) == {"run", "sweep"}
    for parser in commands.values():
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert options - {"-h", "--help"} == documented


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
    # the first row is the library's factorization check on the run's profile
    model = two_state_exchange(1.0)
    axis = TimeGrid(0.0, 1.0, 0.0625)
    f = LiftedVector(grid=model.grid, axis=axis,
                     values=np.outer(axis.nodes * np.exp(-axis.nodes), [1.0, 0.0]))
    row = resolvent_factorization_check(model, 2.0, f)
    fields = checks[1].split(",")
    assert fields[0] == row.check_name == "resolvent_factorization"
    assert (float(fields[1]), float(fields[2]), int(fields[3])) == (0.0625, 2.0, 0)
    assert (float(fields[4]), float(fields[5])) == (row.residual, 0.0)
    last = checks[-1].split(",")
    assert (last[0], float(last[2]), int(last[3])) == ("laplace_transform", 8.0, 1)
    assert float(last[5]) > 0.0  # the horizon-truncation bound


@pytest.mark.parametrize("case", ["t_max_zero", "zero_csv", "negative_lam_series"])
def test_lifted_run_refuses_inputs_without_a_meaning(case, tmp_path, capsys):
    # a zero-norm history leaves every check without a bound, and a negative
    # lam_series is neither a lam nor the automatic 0
    (tmp_path / "u0.csv").write_text("0.0\n0.0\n")
    text, match = {
        "t_max_zero": (LIFTED_INI.replace("t_max = 1.0", "t_max = 0.0"),
                       r"history .* on \[0, 0\.0\] has zero norm"),
        "zero_csv": (LIFTED_INI.replace("kind = point\nnode = 0\n",
                                        f"kind = csv\npath = {tmp_path / 'u0.csv'}\n"),
                     r"history .* on \[0, 1\.0\] has zero norm"),
        "negative_lam_series": (LIFTED_INI.replace("lam_series = 0", "lam_series = -5"),
                                r"\[lifted\] lam_series must be >= 0"),
    }[case]
    out_dir = tmp_path / "out"
    code = main(["run", write_ini(tmp_path, text), "--output-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert re.search(match, err), err
    assert not out_dir.exists()


def test_lifted_run_builds_each_check_once(tmp_path, monkeypatch):
    # each of the three checks reads the loss rates once; the factorization
    # and series checks build their kick blocks once and invert them once,
    # and the automatic lam_series builds one more set for its norm
    counts = {"blocks": 0, "loss_rate": 0, "inv": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    build = cli.build_oracle_model
    monkeypatch.setattr(lifted, "_gain_blocks", counted("blocks", lifted._gain_blocks))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(cli, "build_oracle_model", lambda cfg: dataclasses.replace(
        build(cfg), loss_rate=counted("loss_rate", build(cfg).loss_rate)))
    code = main(["run", os.path.join(SCRIPTS_DIR, "lifted_checks.ini"),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert counts == {"blocks": 3, "loss_rate": 3, "inv": 2}


def test_library_residual_defaults_give_the_report_rows(tmp_path):
    # one series tolerance: the library's defaults are the config's
    cfg_path = os.path.join(SCRIPTS_DIR, "oracle.ini")
    cfg = parse_config(cfg_path)
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "out")]) == 0
    report = dict(line.split(",")[1:] for line in
                  (tmp_path / "out" / "report.csv").read_text().splitlines()
                  if line.startswith("result,"))
    model, tg = cli.build_model(cfg, None), cli._engine_grid(cfg)
    u0 = cli.initial_coefficients(cfg, model.grid)
    assert repr(duhamel_residual(model, tg, u0)) == report["duhamel_residual"]
    assert repr(cocycle_residual(model, tg, u0, 0.5)) == report["cocycle_residual"]
    assert cfg.engine.series_tol == EngineSection(dt=1.0).series_tol


def test_shattering_run_writes_trend_rows(tmp_path, capsys):
    # the shattering probe is an x_min sweep: one sweep.csv row per cutoff
    out_dir = tmp_path / "out"
    code = main(["sweep", write_ini(tmp_path, shipped_ini("shattering_sweep.ini")),
                 "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 3
    assert pairs["sweep_kind"] == "x_min"
    assert pairs["verdicts"] == "honest;inconclusive;inconclusive;inconclusive"
    assert pairs["files"] == "report.csv,ledger.csv,defects.csv,sweep.csv"
    rows = [line.split(",") for line in (out_dir / "sweep.csv").read_text().splitlines()]
    assert rows[0][:4] == ["resolution", "defect_limit", "ledger_residual", "leakage"]
    assert [float(row[0]) for row in rows[1:]] == [0.0625, 0.03125, 0.015625, 0.0078125]
    assert all(float(row[3]) > 0.0 for row in rows[1:])  # mass lost below each cutoff


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


def test_sweep_reads_initial_csv_once(tmp_path, monkeypatch):
    (tmp_path / "u0.csv").write_text("1.0\n0.5\n")
    text = ORACLE_INI.replace("kind = point\nnode = 0\n",
                              f"kind = csv\npath = {tmp_path / 'u0.csv'}\n")
    cfg = write_ini(tmp_path, text + "\n[sweep]\nkind = dt\nvalues = 0.04, 0.02, 0.01\n")
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    assert main(["sweep", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("values, bad", [("1.0\n-0.5\n", "grid node 1 holds -0.5"),
                                         ("nan\n0.5\n", "grid node 0 holds nan"),
                                         ("1.0\ninf\n", "grid node 1 holds inf")],
                         ids=["negative", "nan", "inf"])
def test_initial_csv_error_names_the_first_bad_entry(values, bad, tmp_path, capsys):
    (tmp_path / "u0.csv").write_text(values)
    cfg = write_ini(tmp_path, ORACLE_INI.replace("kind = point\nnode = 0\n",
                                                 f"kind = csv\npath = {tmp_path / 'u0.csv'}\n"))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"[initial] csv data must be finite and nonnegative; {bad}" in err, err


def test_malformed_initial_csv_exits_one_naming_the_path(tmp_path, capsys):
    path = tmp_path / "u0.csv"
    path.write_text("abc\n0.5\n")
    cfg = write_ini(tmp_path, ORACLE_INI.replace("kind = point\nnode = 0\n",
                                                 f"kind = csv\npath = {path}\n"))
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: [initial] path {str(path)!r}: ")
    assert "'abc'" in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not out_dir.exists()


def test_unwritable_output_directory_exits_one(tmp_path, capsys):
    # the output directory would sit under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "sub"
    code = main(["run", os.path.join(SCRIPTS_DIR, "oracle.ini"), "--output-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write outputs to {str(out_dir)!r}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


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


def with_svg(text):
    """``text`` with ``[output] emit_svg = true`` set."""
    if "[output]\n" in text:
        return text.replace("[output]\n", "[output]\nemit_svg = true\n")
    return text + "\n[output]\nemit_svg = true\n"


def test_emit_svg_writes_plot(tmp_path, capsys):
    cfg = write_ini(tmp_path, with_svg(ORACLE_INI))
    out_dir = tmp_path / "out"
    code = main(["run", cfg, "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    assert code == 0
    assert "plots.svg" in pairs["files"].split(",")
    svg = (out_dir / "plots.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "defect vs iterate" in svg


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    cfg = write_ini(tmp_path, with_svg(ORACLE_INI))
    dirs = [tmp_path / "first", tmp_path / "second"]
    for d in dirs:
        assert main(["run", cfg, "--output-dir", str(d)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "ledger.csv", "defects.csv", "plots.svg"):
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name


OUTPUT_NAMES = ("report.csv", "ledger.csv", "defects.csv", "checks.csv", "sweep.csv",
                "plots.svg")


@pytest.mark.parametrize("name", ["oracle.ini", "lifted_checks.ini"])
def test_rewritten_outputs_match_a_fresh_directory(name, tmp_path, capsys):
    # every output name already holds a longer file; the run writes over
    # each in place and must leave no old byte after its own
    cfg = write_ini(tmp_path, with_svg(Path(SCRIPTS_DIR, name).read_text()), name=name)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    for out_name in OUTPUT_NAMES:
        (reused / out_name).write_text("garbage,\n" * 20000)
    codes = [main(["run", cfg, "--output-dir", str(d)]) for d in (fresh, reused)]
    written = stdout_pairs(capsys)["files"].split(",")
    assert codes == [0, 0]
    assert "plots.svg" in written
    for out_name in written:
        assert (fresh / out_name).read_bytes() == (reused / out_name).read_bytes(), out_name


def test_failed_write_cuts_the_file_at_what_was_written(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old,row\n" * 1000)

    def rows():
        for k in range(3):
            yield k, repr(k / 3)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        cli._write_csv(path, ("n", "value"), rows())
    assert path.read_text() == "n,value\n0,0.0\n1,0.3333333333333333\n2,0.6666666666666666\n"


def test_outputs_linked_to_a_device_are_written_uncut(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "report.csv").symlink_to(os.devnull)
    assert main(["run", write_ini(tmp_path, ORACLE_INI), "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "report.csv").is_symlink()
    assert (out_dir / "ledger.csv").read_text().startswith("n,defect,")


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


# the bounded control, a(x) = x**0: honest on every row of the shipped sweep
BOUNDED_SHATTERING = ("exponent = -1.0", "exponent = 0.0")


def test_shattering_verdict_uses_configured_persistence(tmp_path, capsys):
    text = shipped_ini("shattering_sweep.ini", BOUNDED_SHATTERING)
    text += "\n[honesty]\npersistence = 13\n"
    out_dir = tmp_path / "out"
    code = main(["sweep", write_ini(tmp_path, text), "--output-dir", str(out_dir)])
    pairs = stdout_pairs(capsys)
    footer = (out_dir / "ledger.csv").read_text().splitlines()[-1].split(",")
    # 12 defect ratios cannot fill a 13-long tail: every row stays open
    assert pairs["verdicts"] == ";".join(["inconclusive"] * 4)
    assert footer[3] == "inconclusive"
    assert code == 3


def test_shattering_reads_engine_n_max_and_honesty_threshold(tmp_path, capsys):
    text = shipped_ini("shattering_sweep.ini", BOUNDED_SHATTERING, ("n_max = 12", "n_max = 6"))
    out_dir = tmp_path / "out"
    # 7 rows leave every cutoff's defect above the threshold: inconclusive
    assert main(["sweep", write_ini(tmp_path, text), "--output-dir", str(out_dir)]) == 3
    assert stdout_pairs(capsys)["verdicts"] == ";".join(["inconclusive"] * 4)
    assert len((out_dir / "ledger.csv").read_text().splitlines()) == 2 + 7
    # honest at the default threshold; every cutoff's limit estimate (at
    # most about 5e-14) stays above 1e-300
    text = shipped_ini("shattering_sweep.ini", BOUNDED_SHATTERING)
    text += "\n[honesty]\nthreshold = 1e-300\n"
    code = main(["sweep", write_ini(tmp_path, text), "--output-dir", str(tmp_path / "tiny")])
    assert stdout_pairs(capsys)["verdicts"] == ";".join(["inconclusive"] * 4)
    assert code == 3


def test_run_refuses_a_sweep_config(tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = os.path.join(SCRIPTS_DIR, "shattering_sweep.ini")
    assert main(["run", config, "--output-dir", str(out_dir)]) == 1
    assert "sweep subcommand" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("text, message", [
    (ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.04, 0.0\n", "dt values must be positive"),
    (shipped_ini("shattering_sweep.ini", ("values = 0.0625,", "values = 1.0,")),
     "x_min values must lie inside the grid span"),
    (shipped_ini("shattering_sweep.ini", ("0.0078125", "0.0")),
     "x_min values must lie inside the grid span"),
], ids=["dt-zero", "x_min-at-x_max", "x_min-zero"])
def test_sweep_value_guards(text, message, tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    out_dir = tmp_path / "out"
    assert main(["sweep", write_ini(tmp_path, text), "--output-dir", str(out_dir)]) == 1
    assert message in capsys.readouterr().err
    # every value is checked before the first row, a bad last one too
    assert runs == []
    assert not out_dir.exists()


def test_dt_sweep_makes_every_lattice_before_the_first_row(tmp_path, capsys, monkeypatch):
    # 0.003 does not divide [0, 1]: refused before any row builds its model
    built = []
    build_model = cli.build_model
    monkeypatch.setattr(cli, "build_model",
                        lambda cfg, strict=None: built.append(cfg) or build_model(cfg, strict))
    text = shipped_ini("oracle_dt_sweep.ini", ("values = 0.01, 0.005, 0.0025",
                                               "values = 0.01, 0.005, 0.003"))
    out_dir = tmp_path / "out"
    assert main(["sweep", write_ini(tmp_path, text), "--output-dir", str(out_dir)]) == 1
    assert "is not an integer multiple of dt = 0.003" in capsys.readouterr().err
    assert built == []
    assert not out_dir.exists()


def count_engine_runs(monkeypatch):
    """Record the lattice step count of every engine pass (row generator)."""
    runs = []
    right_rows = evolution._right_rows

    def counted(*args, **kwargs):
        runs.append(args[1].n_steps)
        return right_rows(*args, **kwargs)

    # at each site that looks it up: the engine's own and the Laplace check's
    monkeypatch.setattr(evolution, "_right_rows", counted)
    monkeypatch.setattr(lifted, "_right_rows", counted)
    return runs


@pytest.mark.parametrize("text, m", [
    (ORACLE_INI.replace("n_max = 12", "n_max = 20"), 32),
    (shipped_ini("boltzmann_timedep.ini", ("dt = 0.03125", "dt = 0.0625")), 16),
    (FRAG_INI.replace("n_max = 14", "n_max = 20"), 16),
], ids=["oracle", "collision", "fragmentation"])
def test_run_makes_two_engine_passes(text, m, tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    cfg = write_ini(tmp_path, text)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    # main table, and the fine pass behind both residuals
    assert runs == [m, 8 * m]


def test_short_table_adds_one_pass_for_the_full_value(tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    # 13 rows cannot reach the series tolerance at t_end = 1
    cfg = write_ini(tmp_path, ORACLE_INI)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert runs == [32, 8 * 32, 32]


def test_sweep_row_makes_two_engine_passes(tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    cfg = write_ini(tmp_path, ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.0625, 0.03125\n")
    assert main(["sweep", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    # per row: main table and the Duhamel fine pass
    assert runs == [16, 8 * 16, 32, 8 * 32]


@pytest.mark.parametrize("n_laplace_max", [1, 3])
def test_lifted_checks_make_one_laplace_pass(n_laplace_max, tmp_path, capsys, monkeypatch):
    runs = count_engine_runs(monkeypatch)
    text = LIFTED_INI.replace("n_laplace_max = 1", f"n_laplace_max = {n_laplace_max}")
    cfg = write_ini(tmp_path, text)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert stdout_pairs(capsys)["n_checks"] == str(6 + n_laplace_max + 1)
    # the main table on [0, 1] and one pass over the Laplace axis [0, 3]
    # for every check row n = 0..n_laplace_max
    assert runs == [16, 48]


@pytest.mark.parametrize("command, text, n_tables", [
    ("run", FRAG_INI, 1),
    ("sweep", ORACLE_INI + "\n[sweep]\nkind = dt\nvalues = 0.0625, 0.03125\n", 2),
    ("sweep", shipped_ini("shattering_sweep.ini", BOUNDED_SHATTERING), 4),
], ids=["run", "sweep", "shattering"])
def test_cli_hands_row_less_tables_to_the_honesty_layer(command, text, n_tables, tmp_path,
                                                        capsys, monkeypatch):
    tables = []

    def spy(*args, **kwargs):
        table = iterate_right(*args, **kwargs)
        tables.append(table)
        return table

    monkeypatch.setattr(cli, "iterate_right", spy)
    code = main([command, write_ini(tmp_path, text), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert len(tables) == n_tables
    assert all(t.iterates is None for t in tables)


def test_fragmentation_run_peak_stays_below_the_row_table(tmp_path, capsys):
    # d = 64, M = 16, 61 rows: the full table would take 0.53 MB, while a
    # streamed run peaks near 0.47 MB, and one that keeps the table near
    # 1.0 MB (tracemalloc, numpy 2.4)
    text = (FRAG_INI.replace("n_max = 14", "n_max = 60")
            .replace("xmin = 0.0625", "xmin = 0.015625").replace("n = 24", "n = 64"))
    cfg = write_ini(tmp_path, text)
    table_bytes = 61 * 17 * 64 * 8
    assert main(["run", cfg, "--output-dir", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes
