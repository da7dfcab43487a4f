"""The names the benchmark harness in perfbench/ reads from evofam.

The harness looks up its traced functions by name and imports model
builders, so a rename in evofam that passes every other test here would
still break the benchmark.  These tests read perfbench/ and write nothing
there.
"""
from __future__ import annotations

import ast
import importlib
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from evofam import cli, iterate_right
from evofam.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SCRIPTS = ROOT / "scripts"


def _tracing() -> types.ModuleType:
    """perfbench/tracing.py, run under a name of its own and compiled in
    memory, so that no bytecode cache is written beside it."""
    path = PERFBENCH / "tracing.py"
    module = sys.modules["_perfbench_tracing"] = types.ModuleType("_perfbench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_wraps_every_traced_function_and_restores_it(tmp_path):
    tracing = _tracing()
    originals = {(mod, fn): getattr(importlib.import_module(f"evofam.{mod}"), fn)
                 for mod, fn in tracing.TRACED}
    tracer = tracing.Tracer()
    with tracer.installed():
        for (mod, fn), original in originals.items():
            assert getattr(sys.modules[f"evofam.{mod}"], fn).__wrapped__ is original
        with tracer.invocation(1):
            code = cli.main(["run", str(SCRIPTS / "lifted_checks.ini"),
                             "--output-dir", str(tmp_path / "out")])
    assert code == 0
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[f"evofam.{mod}"], fn) is original
    # the lifted run's checks and model are seen where the CLI calls them
    spans = {(span.name, span.site) for span in tracer.spans}
    assert {("cli.build_oracle_model", "evofam.cli"),
            ("lifted.resolvent_factorization_check", "evofam.cli"),
            ("lifted.resolvent_series_check", "evofam.cli"),
            ("cli.write_outputs", "evofam.cli")} <= spans
    assert tracer.counters[1].b_apply > 0


def test_every_name_the_harness_imports_exists():
    imported = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evofam"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    imported.add(alias.name)
    assert {"TimeGrid", "uniform_mass_grid", "daughter_matrix", "fragmentation_model",
            "fragmentation_rate", "mol_reference", "build_model", "parse_config"} <= imported


def test_build_model_takes_the_harness_arguments():
    # perfbench/run.py times build_model(parse_config(ini), None)
    for name in ("fragmentation_binary.ini", "boltzmann_conservative.ini",
                 "lifted_checks.ini"):
        model = cli.build_model(parse_config(os.fspath(SCRIPTS / name)), None)
        assert model.grid.size > 0


@pytest.mark.parametrize("name", ["oracle.ini", "boltzmann_conservative.ini",
                                  "fragmentation_binary.ini"])
def test_counted_model_runs_the_engine_bitwise_as_the_model(name):
    # the tracer counts operator calls by swapping in counting wrappers
    # through dataclasses.replace on the model's operator holders: the engine
    # must make every U and B call through them, and get the same bits back
    cfg = parse_config(os.fspath(SCRIPTS / name))
    model = cli.build_model(cfg)
    tg, n_max = cli._engine_grid(cfg), cfg.engine.n_max
    u0 = cli.initial_coefficients(cfg, model.grid)
    tracer = _tracing().Tracer()
    with tracer.invocation(1) as counters:
        counted = tracer._counted_model(model)
        defects = iterate_right(counted, tg, u0, n_max, keep_rows=False).defects
    assert np.array_equal(defects, iterate_right(model, tg, u0, n_max, keep_rows=False).defects)
    assert counters.u_apply > 0
    assert counters.b_apply == n_max + 1
