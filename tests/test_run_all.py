"""scripts/run_all.py: every bundled config, its exit code in the output root."""
from __future__ import annotations

import csv
import importlib.util
import os
import pathlib
import subprocess
import sys

from evofam.config import parse_config

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", SCRIPTS / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_all


def test_exit_codes_land_in_the_output_root(tmp_path, capsys):
    code = load_run_all()(str(tmp_path))
    stdout = capsys.readouterr().out
    with open(tmp_path / "exit_codes.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["config", "command", "exit_code"]
    configs = sorted(p.name for p in SCRIPTS.glob("*.ini"))
    assert [row[0] for row in rows] == configs
    for name, command, exit_code in rows:
        assert command == ("sweep" if "sweep" in parse_config(SCRIPTS / name).sections
                           else "run")
        assert f"{name}: exit {exit_code} wall_time_s=" in stdout
        assert (tmp_path / pathlib.Path(name).stem).is_dir()
    assert str(code) in {row[2] for row in rows}
    # wall times stay on stdout
    assert "wall" not in (tmp_path / "exit_codes.csv").read_text()


def run_script(tmp_path, *args):
    """scripts/run_all.py as a subprocess in ``tmp_path``, with no PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / "run_all.py"), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)


def test_help_prints_usage_and_runs_nothing(tmp_path):
    done = run_script(tmp_path, "--help")
    assert done.returncode == 0, done.stderr
    assert "output_root" in done.stdout
    assert list(tmp_path.iterdir()) == []


def test_an_extra_argument_is_refused(tmp_path):
    done = run_script(tmp_path, "a", "b")
    assert done.returncode == 2
    assert "unrecognized arguments: b" in done.stderr
    assert list(tmp_path.iterdir()) == []
