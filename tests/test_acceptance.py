"""Acceptance gate: the ten headline guarantees, one test each.

Every test here states a quantitative claim about the released behavior
(closed-form agreement, tolerance ceilings, convergence ratios, runtime
budgets, byte determinism) and fails loudly if the claim degrades.  Unit
suites cover the fine-grained behavior; this file is the go/no-go list.
"""
from __future__ import annotations

import filecmp
import glob
import math
import os
import time

import numpy as np
import pytest

from evofam import (
    CollisionKernel,
    LiftedVector,
    TimeGrid,
    TimeProfile,
    binary_fragmentation_model,
    cocycle_residual,
    collision_model,
    collision_perturbed_model,
    daughter_factors,
    daughter_matrix,
    defect,
    detailed_balance_certificate,
    duhamel_residual,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    frequency_matching_kernel,
    gaussian_kernel_matrix,
    iterate_left,
    iterate_right,
    kernel_mass_check,
    kick_block_norm,
    laplace_transform_check,
    left_right_discrepancy,
    lifted_norm,
    mass_ledger,
    mol_reference,
    outflow_kernel_matrix,
    parse_config,
    resolvent_factorization_check,
    resolvent_series_check,
    series_sum,
    table_verdict,
    two_state_exchange,
    uniform_kernel_matrix,
    uniform_mass_grid,
    uniform_velocity_grid,
)
from evofam.cli import main as cli_main
from evofam.coefficients import SeparableCoefficient
from evofam.state_space import weighted_norm_array

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def build_conservative_collision():
    grid = uniform_velocity_grid(-1.0, 1.0, 8)
    kernel = CollisionKernel(profile=TimeProfile(kind="constant", c0=1.0),
                             matrix=uniform_kernel_matrix(grid))
    return collision_model(grid, frequency_matching_kernel(grid, kernel), kernel)


def build_timedep_collision():
    grid = uniform_velocity_grid(-1.0, 1.0, 8)
    kernel = CollisionKernel(profile=TimeProfile(kind="constant", c0=1.0),
                             matrix=gaussian_kernel_matrix(grid, 0.5, 0.5))
    frequency = SeparableCoefficient(
        profile=TimeProfile(kind="affine", c0=1.0, c1=1.0),
        space=np.ones(grid.size))
    return collision_model(grid, frequency, kernel)


def builtin_models():
    grid = uniform_velocity_grid(-1.0, 1.0, 8)
    gauss = CollisionKernel(profile=TimeProfile(kind="constant", c0=1.0),
                            matrix=gaussian_kernel_matrix(grid, 0.5, 0.5))
    subcritical = collision_model(
        grid, SeparableCoefficient(profile=TimeProfile(kind="constant", c0=1.0),
                                   space=np.ones(grid.size)), gauss)
    mass_grid = uniform_mass_grid(1.0 / 64.0, 1.0, 64)
    powerlaw, powerlaw_pair = (
        fragmentation_model(mass_grid, fragmentation_rate(mass_grid, "linear"),
                            daughter(mass_grid, "powerlaw", nu=0.5))
        for daughter in (daughter_matrix, daughter_factors))
    return [
        two_state_exchange(1.0),
        collision_perturbed_model(build_conservative_collision()),
        collision_perturbed_model(subcritical),
        collision_perturbed_model(build_timedep_collision()),
        fragmentation_perturbed_model(binary_fragmentation_model()),
        fragmentation_perturbed_model(powerlaw),
        fragmentation_perturbed_model(powerlaw_pair),
    ]


def test_criterion_01_oracle_series_closed_form_fast():
    model = two_state_exchange(1.0)
    tg = TimeGrid(0.0, 1.0, 1e-3)
    start = time.perf_counter()
    result = series_sum(model, tg, np.array([1.0, 0.0]), tol=0.0, n_max=20)
    elapsed = time.perf_counter() - start
    expected = np.array([math.exp(-1.0) * math.cosh(1.0),
                         math.exp(-1.0) * math.sinh(1.0)])
    rel = np.max(np.abs(result.value - expected) / expected)
    assert rel <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_first_defects_closed_form():
    model = two_state_exchange(1.0)
    table = iterate_right(model, TimeGrid(0.0, 1.0, 1e-3), np.array([1.0, 0.0]), 2)
    assert abs(defect(table, 0) - (1.0 - math.exp(-1.0))) <= 1e-6
    assert abs(defect(table, 1) - (1.0 - 2.0 * math.exp(-1.0))) <= 1e-6


def test_criterion_03_mass_ledger_closes():
    models = [two_state_exchange(1.0),
              collision_perturbed_model(build_conservative_collision())]
    for model in models:
        u0 = np.ones(model.grid.size)
        table = iterate_right(model, TimeGrid(0.0, 1.0, 1e-3), u0, 20)
        ledger = mass_ledger(table)
        assert np.max(np.abs(ledger.residuals)) <= 1e-6 * ledger.u0_norm, model.name


def test_criterion_04_defects_monotone_and_honest():
    dt = 1.0 / 32.0
    for model in builtin_models():
        u0 = np.ones(model.grid.size)
        table = iterate_right(model, TimeGrid(0.0, 1.0, dt), u0, 20)
        series = table_verdict(table)
        u0_norm = weighted_norm_array(model.grid, u0)
        steps = np.diff(series.values)
        assert np.all(steps <= 10.0 * dt ** 2 * u0_norm), model.name
        assert series.verdict == "honest", model.name
        assert series.values[-1] < 1e-8 * u0_norm, model.name


def test_criterion_05_left_right_iterates_agree():
    models = [two_state_exchange(1.0),
              collision_perturbed_model(build_timedep_collision())]
    for model in models:
        u0 = np.ones(model.grid.size)
        gaps = {}
        for rule in ("trapezoid", "midpoint"):
            for m in (32, 64):
                tg = TimeGrid(0.0, 1.0, 1.0 / m, rule)
                right = iterate_right(model, tg, u0, 8)
                left = iterate_left(model, tg, u0, 8)
                gaps[rule, m] = left_right_discrepancy(left, right)
        assert gaps["trapezoid", 32] <= 1e-12, model.name
        assert gaps["midpoint", 32] <= 1e-4, model.name
        # the midpoint gap is a genuine quadrature effect and shrinks fast
        assert gaps["midpoint", 32] / gaps["midpoint", 64] >= 3.0, model.name


def test_criterion_06_integral_identities_second_order():
    models = [two_state_exchange(1.0),
              collision_perturbed_model(build_timedep_collision())]
    for model in models:
        u0 = np.ones(model.grid.size)
        duhamel = {}
        cocycle = {}
        for dt in (1e-2, 5e-3):
            tg = TimeGrid(0.0, 1.0, dt)
            duhamel[dt] = duhamel_residual(model, tg, u0)
            cocycle[dt] = cocycle_residual(model, tg, u0, 0.5)
        assert duhamel[1e-2] <= 1e-3, model.name
        assert cocycle[1e-2] <= 1e-3, model.name
        assert duhamel[5e-3] / duhamel[1e-2] == pytest.approx(0.25, abs=0.1)
        assert cocycle[5e-3] / cocycle[1e-2] == pytest.approx(0.25, abs=0.1)


def test_criterion_07_balance_certificate_decides():
    conservative = build_conservative_collision()
    ones = np.ones(conservative.grid.size)
    cert = detailed_balance_certificate(conservative, ones, 1.0, [0.25, 0.5, 1.0])
    assert cert.accepted
    assert cert.symmetry_residual <= 1e-8
    engine = table_verdict(iterate_right(collision_perturbed_model(conservative),
                                         TimeGrid(0.0, 1.0, 1.0 / 64.0), ones, 20))
    assert engine.verdict == "honest"

    grid = conservative.grid
    lopsided = CollisionKernel(
        profile=TimeProfile(kind="constant", c0=1.0),
        matrix=outflow_kernel_matrix(grid, np.exp(-grid.nodes ** 2)))
    lenient = collision_model(
        grid, SeparableCoefficient(profile=TimeProfile(kind="constant", c0=1.0),
                                   space=np.full(grid.size, 2.0)), lopsided)
    bad = detailed_balance_certificate(lenient, ones, 1.0, [0.5, 1.0])
    assert not bad.accepted
    assert bad.symmetry_residual > 1e-3


def test_criterion_08_fragmentation_matches_reference():
    model = binary_fragmentation_model()  # a(t, x) = x, 64 nodes on [1/64, 1]
    x = model.grid.nodes
    assert np.all(kernel_mass_check(model, 0.0) <= 2.0 * model.dx / x)

    series_model = fragmentation_perturbed_model(model)
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    u0 = np.ones(model.grid.size)
    table = iterate_right(series_model, tg, u0, 20)
    series_end = np.sum(table.iterates[:, -1, :], axis=0)
    reference = mol_reference(model, tg, u0, substeps=8)
    w = model.grid.weights
    rel = (w @ np.abs(series_end - reference)) / (w @ np.abs(reference))
    assert rel <= 1e-3


def test_criterion_09_lifted_check_suite():
    model = two_state_exchange(1.0)

    def history(axis):
        shape = axis.nodes * np.exp(-axis.nodes)
        return LiftedVector(grid=model.grid, axis=axis,
                            values=np.outer(shape, [1.0, 0.0]))

    start = time.perf_counter()
    h = 1.0 / 64.0
    f = history(TimeGrid(0.0, 1.0, h))
    f_norm = lifted_norm(f)

    fact = resolvent_factorization_check(model, 2.0, f)
    assert fact.residual <= 0.1 * f_norm

    lam_series = 4.0 * kick_block_norm(model, f.axis)
    residuals = resolvent_series_check(model, lam_series, f, 8)
    assert np.all(residuals <= 0.1 * f_norm)
    assert np.all(residuals[1:] / residuals[:-1] <= 0.3)

    g = history(TimeGrid(0.0, 3.0, h))
    g_norm = lifted_norm(g)
    laplace = [laplace_transform_check(model, 8.0, n, g) for n in range(4)]
    for row in laplace:
        assert row.residual <= 0.1 * g_norm
        assert row.truncation_bound <= 1e-10 * g_norm
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    # discretization-driven residuals halve with the axis step
    f2 = history(TimeGrid(0.0, 1.0, h / 2.0))
    fact2 = resolvent_factorization_check(model, 2.0, f2)
    assert fact2.residual / fact.residual <= 0.65
    g2 = history(TimeGrid(0.0, 3.0, h / 2.0))
    for n, row in enumerate(laplace):
        finer = laplace_transform_check(model, 8.0, n, g2)
        assert finer.residual / row.residual <= 0.65


def test_criterion_10_experiment_outputs_deterministic(tmp_path, capsys):
    configs = sorted(glob.glob(os.path.join(SCRIPTS_DIR, "*.ini")))
    assert len(configs) >= 8
    for index, config in enumerate(configs):
        subcommand = "sweep" if "sweep" in parse_config(config).sections else "run"
        dirs = [tmp_path / f"{index}_a", tmp_path / f"{index}_b"]
        codes = [cli_main([subcommand, config, "--output-dir", str(d)])
                 for d in dirs]
        capsys.readouterr()
        name = os.path.basename(config)
        assert codes[0] == codes[1], name
        assert codes[0] in (0, 3), name
        files = sorted(os.listdir(dirs[0]))
        assert files == sorted(os.listdir(dirs[1])), name
        assert files, name
        for written in files:
            assert filecmp.cmp(dirs[0] / written, dirs[1] / written,
                               shallow=False), f"{name}:{written}"
