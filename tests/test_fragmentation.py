"""Fragmentation model: kernel constraints, leakage accounting, references."""
from __future__ import annotations

import numpy as np
import pytest

from evofam import (
    Grid,
    ModelContractError,
    PreconditionError,
    StructureError,
    TimeGrid,
    daughter_matrix,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    grid_leakage,
    iterate_right,
    kernel_mass_check,
    mass_ledger,
    mol_reference,
    shattering_experiment,
    uniform_mass_grid,
    uniform_velocity_grid,
    vn_identity_residual,
)
from evofam.fragmentation import KERNEL_STRICT_LIMIT


# ---------------------------------------------------------------------------
# daughter kernels and the mass constraint
# ---------------------------------------------------------------------------

def test_binary_daughter_entries():
    grid = uniform_mass_grid(0.1, 1.0, 8)
    mat = daughter_matrix(grid, "binary_uniform")
    x = grid.nodes
    for j in range(8):
        for i in range(8):
            expected = 2.0 / x[j] if x[i] < x[j] else 0.0
            assert mat[i, j] == pytest.approx(expected)
    assert np.all(np.tril(mat) == 0.0)


def test_powerlaw_daughter_entries_and_guard():
    grid = uniform_mass_grid(0.1, 1.0, 6)
    nu = 0.5
    mat = daughter_matrix(grid, "powerlaw", nu=nu)
    x = grid.nodes
    i, j = 1, 4
    assert mat[i, j] == pytest.approx((nu + 2.0) * x[i] ** nu / x[j] ** (nu + 1.0))
    assert np.all(np.tril(mat) == 0.0)
    with pytest.raises(StructureError):
        daughter_matrix(grid, "powerlaw", nu=-2.0)
    with pytest.raises(StructureError):
        daughter_matrix(grid, "unknown")


def test_kernel_mass_check_truncation_bound(binary_frag):
    residuals = kernel_mass_check(binary_frag, 0.0)
    x = binary_frag.grid.nodes
    # smallest parent has no grid fragments: its whole mass leaks
    assert residuals[0] == 1.0
    # every parent sits within the quadrature + truncation envelope 2*dx/y
    assert np.all(residuals <= 2.0 * binary_frag.dx / x)
    assert kernel_mass_check(binary_frag, 0.0, y_index=5) == pytest.approx(residuals[5])
    # large parents are quadrature-limited, far below the truncation-driven start
    assert residuals[-1] < 2.0e-2 < residuals[0]


def test_rate_builtins():
    grid = uniform_mass_grid(0.125, 1.0, 8)
    x = grid.nodes
    np.testing.assert_allclose(
        fragmentation_rate(grid, "constant", {"value": 3.0}).value(0.7), 3.0 * np.ones(8))
    np.testing.assert_allclose(
        fragmentation_rate(grid, "linear", {"scale": 2.0}).value(0.7), 2.0 * x)
    np.testing.assert_allclose(
        fragmentation_rate(grid, "power", {"scale": 1.5, "exponent": -1.0}).value(0.7),
        1.5 / x)
    np.testing.assert_allclose(
        fragmentation_rate(grid, "product_t", {"scale": 2.0, "exponent": 1.0}).value(0.5),
        np.asarray(2.0 * 0.5 * x))
    with pytest.raises(StructureError):
        fragmentation_rate(grid, "unknown")


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------

def test_model_requires_uniform_mass_grid():
    vgrid = uniform_velocity_grid(0.1, 1.0, 8)
    rate = fragmentation_rate(uniform_mass_grid(0.1, 1.0, 8), "constant")
    with pytest.raises(StructureError, match="mass grid"):
        fragmentation_model(vgrid, rate, np.zeros((8, 8)))
    nodes = np.array([0.1, 0.2, 0.45])  # nonuniform spacing
    crooked = Grid(nodes=nodes, weights=nodes * 0.1, kind="mass")
    with pytest.raises(StructureError, match="uniformly spaced"):
        fragmentation_model(crooked, rate, np.zeros((3, 3)))


def test_model_rejects_bad_daughter_matrices():
    grid = uniform_mass_grid(0.1, 1.0, 4)
    rate = fragmentation_rate(grid, "constant")
    good = daughter_matrix(grid, "binary_uniform")
    neg = good.copy()
    neg[0, 2] = -1.0
    with pytest.raises(ModelContractError, match=r"\(i, j\) = \(0, 2\)"):
        fragmentation_model(grid, rate, neg)
    lower = good.copy()
    lower[3, 1] = 1.0
    with pytest.raises(ModelContractError, match=r"must vanish for x >= y"):
        fragmentation_model(grid, rate, lower)
    with pytest.raises(StructureError, match="does not match grid size"):
        fragmentation_model(grid, rate, np.zeros((3, 3)))
    # the first offender in row-major order is named: below the diagonal in
    # a later row, ahead of that row's own upper entry and of later rows
    later = good.copy()
    later[2, 2] = later[2, 1] = later[3, 0] = 1.0
    with pytest.raises(ModelContractError, match=r"nonzero at \(i, j\) = \(2, 1\)"):
        fragmentation_model(grid, rate, later)
    nan = good.copy()
    nan[1, 3] = np.nan
    with pytest.raises(ModelContractError, match="not finite"):
        fragmentation_model(grid, rate, nan)


def test_model_rejects_negative_rate():
    grid = uniform_mass_grid(0.1, 1.0, 4)
    rate = fragmentation_rate(grid, "constant", {"value": -1.0})
    with pytest.raises(ModelContractError, match="negative at t"):
        fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"))


def test_strict_gate_rejects_truncated_grid(binary_frag):
    grid = binary_frag.grid
    rate = fragmentation_rate(grid, "linear")
    with pytest.raises(ModelContractError, match="strict gate") as err:
        fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"),
                            strict=True)
    assert f"{KERNEL_STRICT_LIMIT:.0e}" in str(err.value)


def test_force_normalize_fixes_columns_with_support():
    grid = uniform_mass_grid(1.0 / 64.0, 1.0, 64)
    rate = fragmentation_rate(grid, "linear")
    model = fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"),
                                force_normalize=True)
    assert model.normalized
    quad = model.dx * (grid.nodes @ model.daughter)
    supported = quad > 0.0
    np.testing.assert_allclose(quad[supported], grid.nodes[supported], rtol=1e-13)
    # recorded residuals describe the kernel before normalization
    assert model.normalization_residuals[0] == 1.0


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_breakup_decay_composes_exactly(binary_frag_perturbed):
    flow = binary_frag_perturbed.unperturbed
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, flow.grid.size)
    one_hop = flow.apply(0.9, 0.1, u)
    two_hop = flow.apply(0.9, 0.5, flow.apply(0.5, 0.1, u))
    np.testing.assert_allclose(two_hop, one_hop, rtol=1e-14)
    # linear rate a(x) = x gives the closed-form factor exp(-x (t - s))
    np.testing.assert_allclose(one_hop, np.exp(-flow.grid.nodes * 0.8) * u, rtol=1e-14)
    np.testing.assert_array_equal(flow.apply(0.4, 0.4, u), u)


def test_fragment_gain_formula_and_support(binary_frag, binary_frag_perturbed):
    grid = binary_frag.grid
    gain = binary_frag_perturbed.perturbation
    rng = np.random.default_rng(9)
    u = rng.uniform(0.0, 1.0, grid.size)
    a = binary_frag.rate_values(0.3)
    np.testing.assert_allclose(gain.apply(0.3, u),
                               binary_frag.dx * (binary_frag.daughter @ (a * u)),
                               rtol=1e-14)
    assert np.all(gain.apply(0.3, u) >= 0.0)
    # mass on the smallest node has nowhere to go on the grid
    smallest = np.zeros(grid.size)
    smallest[0] = 1.0
    assert np.all(gain.apply(0.3, smallest) == 0.0)


def test_perturbed_adapter_consistency(binary_frag, binary_frag_perturbed):
    model = binary_frag_perturbed
    rng = np.random.default_rng(13)
    u = rng.uniform(0.0, 1.0, model.grid.size)
    survival = np.exp(-np.asarray(binary_frag.rate.integral(0.2, 0.8)))
    np.testing.assert_allclose(model.unperturbed.apply(0.8, 0.2, u), survival * u,
                               rtol=1e-15)
    np.testing.assert_allclose(model.perturbation.as_matrix(0.6) @ u,
                               model.perturbation.apply(0.6, u), rtol=1e-13)
    assert not model.conservative
    np.testing.assert_allclose(model.loss_rate(0.4), binary_frag.rate_values(0.4))


# ---------------------------------------------------------------------------
# identities, references, leakage
# ---------------------------------------------------------------------------

def test_vn_identity_second_order(binary_frag, binary_frag_perturbed):
    u0 = np.ones(binary_frag_perturbed.grid.size)
    residuals = []
    for dt in (1.0 / 16.0, 1.0 / 32.0):
        table = iterate_right(binary_frag_perturbed, TimeGrid(0.0, 1.0, dt), u0, 6)
        residuals.append(vn_identity_residual(binary_frag, table, 3))
    assert residuals[0] < 1e-2
    assert residuals[1] / residuals[0] == pytest.approx(0.25, abs=0.1)
    with pytest.raises(PreconditionError):
        vn_identity_residual(binary_frag, table, 7)


def test_vn_identity_exact_for_zero_rate():
    grid = uniform_mass_grid(0.1, 1.0, 8)
    rate = fragmentation_rate(grid, "constant", {"value": 0.0})
    model = fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"))
    series_model = fragmentation_perturbed_model(model)
    table = iterate_right(series_model, TimeGrid(0.0, 1.0, 0.25), np.ones(8), 3)
    assert vn_identity_residual(model, table, 2) == 0.0


def test_mol_reference_agrees_with_series(binary_frag, binary_frag_perturbed):
    tg = TimeGrid(0.0, 1.0, 1.0 / 32.0)
    u0 = np.ones(binary_frag.grid.size)
    table = iterate_right(binary_frag_perturbed, tg, u0, 16)
    series_end = np.sum(table.iterates[:, -1, :], axis=0)
    reference = mol_reference(binary_frag, tg, u0, substeps=4)
    w = binary_frag.grid.weights
    rel = (w @ np.abs(series_end - reference)) / (w @ np.abs(reference))
    assert rel < 1e-4
    with pytest.raises(PreconditionError):
        mol_reference(binary_frag, tg, u0, substeps=0)


def test_leakage_is_ledger_residual_not_defect(binary_frag_perturbed):
    tg = TimeGrid(0.0, 1.0, 1.0 / 32.0)
    u0 = np.ones(binary_frag_perturbed.grid.size)
    table = iterate_right(binary_frag_perturbed, tg, u0, 12)
    leakage = grid_leakage(table)
    ledger = mass_ledger(table)
    np.testing.assert_array_equal(leakage, ledger.residuals)
    # the model leaks real mass below x_min while the defect tail vanishes
    assert leakage[-1] > 1e-3 * ledger.u0_norm
    assert ledger.defects[-1] < 1e-6 * ledger.u0_norm


# ---------------------------------------------------------------------------
# shattering sweep
# ---------------------------------------------------------------------------

def test_shattering_bounded_control_is_honest():
    tg = TimeGrid(0.0, 0.5, 1.0 / 16.0)
    report = shattering_experiment(0.0, tg, x_min_start=1.0 / 16.0, n_grids=2,
                                   nodes_per_grid=32, n_max=14)
    assert report.alpha == 0.0
    assert not report.defect_persists
    assert all(row.verdict == "honest" for row in report.rows)
    assert report.rows[1].x_min == pytest.approx(1.0 / 32.0)
    # the finest grid's ledger and verdict travel with the report
    assert report.series.verdict == report.rows[-1].verdict
    assert report.ledger.n_max == 14


def test_shattering_singular_rate_defect_persists():
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    report = shattering_experiment(1.0, tg, x_min_start=1.0 / 16.0, n_grids=3,
                                   nodes_per_grid=32, n_max=10)
    assert report.defect_persists
    assert all(row.verdict != "honest" for row in report.rows)
    # refining the truncation strengthens the singular loss
    defects = [row.defect_last for row in report.rows]
    assert defects[-1] > defects[0]


def test_shattering_preconditions():
    tg = TimeGrid(0.0, 0.5, 0.25)
    with pytest.raises(PreconditionError):
        shattering_experiment(-0.5, tg)
    with pytest.raises(PreconditionError):
        shattering_experiment(1.0, tg, x_min_start=2.0)
    with pytest.raises(PreconditionError, match="n_grids"):
        shattering_experiment(1.0, tg, n_grids=0)


def test_binary_model_defaults(binary_frag):
    grid = binary_frag.grid
    assert grid.kind == "mass"
    assert grid.size == 64
    assert grid.nodes[0] > 1.0 / 64.0 and grid.nodes[-1] < 1.0
    np.testing.assert_allclose(binary_frag.rate_values(0.0), grid.nodes)
    assert not binary_frag.normalized
