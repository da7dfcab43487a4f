"""Smoke test of the benchmark harness itself, not of evofam.

    python3 -m pytest perfbench/tests -q

Takes about ten seconds: two short CLI runs of the smallest workload
(one plain, one traced) plus a run in a directory without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracing import Counters, Span, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_follow_the_seed(tmp_path):
    for wl in WORKLOADS.values():
        a = wl.make_inputs(7, tmp_path / "a")
        b = wl.make_inputs(7, tmp_path / "b")
        c = wl.make_inputs(8, tmp_path / "c")
        assert np.array_equal(a.u0, b.u0)
        assert not np.array_equal(a.u0, c.u0)
        assert a.u0.shape == (wl.dim,) and np.all(a.u0 > 0.0)
        written = np.loadtxt(tmp_path / "a" / f"{wl.name}_u0.csv", ndmin=1)
        assert np.array_equal(written, a.u0)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.counters[1] = Counters()
    tracer.spans = [
        Span(0, None, 1, "cli.main", "perfbench", 0.0, 10.0),
        Span(1, 0, 1, "evolution.iterate_right", "evofam.cli", 1.0, 4.0),
        Span(2, 1, 1, "honesty.mass_ledger", "evofam.evolution", 2.0, 3.0),
        Span(3, 0, 1, "evolution.series_sum", "evofam.evolution", 5.0, 6.0),
    ]
    m = tracer.metrics(1)
    assert m["cli.self_s"] == 6.0
    assert m["evolution.self_s"] == 3.0
    assert m["honesty.self_s"] == 1.0
    assert m["evolution.iterate_right.s"] == 3.0
    assert m["evolution.iterate_right.calls"] == 1
    assert m["traced_run_s"] == 10.0


def test_errors_count_once_in_the_innermost_layer():
    from evofam.errors import ConfigError

    tracer = Tracer()
    with pytest.raises(ConfigError):
        with tracer.invocation(1):
            with tracer.span("cli.build_model", "evofam.cli"):
                with tracer.span("config.parse_config", "evofam.cli"):
                    raise ConfigError("bad key")
    m = tracer.metrics(1)
    assert m["config.errors"] == 1
    assert m["cli.errors"] == 0


def test_installed_patches_every_lookup_site_and_restores_them():
    import evofam.cli
    import evofam.evolution
    import evofam.lifted

    original = evofam.evolution.iterate_right
    with Tracer().installed():
        assert evofam.cli.iterate_right is not original
        assert evofam.lifted.iterate_right.__wrapped__ is original
    assert evofam.cli.iterate_right is original
    assert evofam.lifted.iterate_right is original
    assert evofam.evolution.iterate_right is original


def test_plain_run_reports_every_end_to_end_metric():
    result = _result(_run("--workload", "collision_sweep", "--seconds", "0.5",
                          "--seed", "3", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert [*result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "collision_sweep", "--seconds", "0.5",
                          "--seed", "3", "--trace", "1"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert [*metrics] == [m["name"] for m in SPEC["per_layer"]]
    # three sweep rows: one main table and one strict validation each
    assert metrics["evolution.iterate_right.calls"] == 3
    assert metrics["boltzmann.collision_model.calls"] == 3
    assert metrics["evolution.b_apply.flop_computed"] == \
        metrics["evolution.b_apply.calls"] * 2 * 128 ** 2
    assert 0.0 < metrics["evolution.useful_step_ratio"] < 1.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "collision_sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
