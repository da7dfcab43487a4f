"""Fragmentation model: kernel constraints, leakage accounting, references."""
from __future__ import annotations

import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evofam import (
    EvofamError,
    Grid,
    ModelContractError,
    PreconditionError,
    StructureError,
    TimeGrid,
    TimeProfile,
    daughter_factors,
    daughter_matrix,
    duhamel_residual,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    grid_leakage,
    iterate_right,
    kernel_mass_check,
    mass_ledger,
    mol_reference,
    uniform_mass_grid,
    uniform_velocity_grid,
)
from evofam.cli import main
from evofam.coefficients import SeparableCoefficient
from evofam.evolution import _dense
from test_cli import BOUNDED_SHATTERING, shipped_ini, write_ini


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


@pytest.mark.parametrize("kind", ["binary_uniform", "powerlaw"])
@pytest.mark.parametrize("flags", [{}, {"force_normalize": True}])
def test_pair_and_matrix_build_the_same_model(kind, flags):
    grid = uniform_mass_grid(1.0 / 256.0, 1.0, 256)
    rate = fragmentation_rate(grid, "product_t", {"scale": 2.0, "exponent": 1.0})
    pair = fragmentation_model(grid, rate, daughter_factors(grid, kind, nu=0.5), **flags)
    matrix = fragmentation_model(grid, rate, daughter_matrix(grid, kind, nu=0.5), **flags)
    # the pair's column quadrature is a prefix sum, the matrix's a matvec:
    # the same sums in another order, so equal to rounding only
    np.testing.assert_allclose(pair.normalization_residuals,
                               matrix.normalization_residuals, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(pair.daughter, matrix.daughter, rtol=1e-14, atol=0.0)
    assert pair.normalized == matrix.normalized == bool(flags)
    assert matrix.daughter is matrix.kernel
    # a pair model builds its dense daughter once, on first read
    assert pair.daughter is pair.daughter
    f, g = pair.kernel
    np.testing.assert_allclose(np.triu(np.outer(f, g), 1), pair.daughter, rtol=1e-15)
    tg = TimeGrid(0.0, 0.5, 1.0 / 16.0)
    u0 = np.where(grid.nodes >= 0.5, 1.0, 0.25)
    by_pair, by_matrix = (
        iterate_right(fragmentation_perturbed_model(model), tg, u0, 10, keep_rows=False)
        for model in (pair, matrix))
    np.testing.assert_allclose(by_pair.end_rows, by_matrix.end_rows, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(by_pair.defects, by_matrix.defects, rtol=1e-12, atol=0.0)


def _negative(f, g):
    f[2] = -1.0
    return f, g


def _nan(f, g):
    g[3] = np.nan
    return f, g


def _inf(f, g):
    f[1] = np.inf
    return f, g


def _short(f, g):
    return f, g[:-1]


@pytest.mark.parametrize("spoil, flags, message", [
    (_negative, {}, r"negative at \(i, j\) = \(2, 3\)"),
    (_nan, {}, r"not finite at \(i, j\) = \(0, 3\)"),
    # normalizing columns skips no check
    (_inf, {"force_normalize": True}, r"not finite at \(i, j\) = \(1, 2\)"),
    (_short, {}, r"shape \(5, 4\) does not match"),
])
def test_bad_pair_raises_as_its_matrix(spoil, flags, message):
    grid = uniform_mass_grid(0.1, 1.0, 5)
    rate = fragmentation_rate(grid, "constant")
    f, g = spoil(*daughter_factors(grid, "powerlaw", nu=0.5))
    with pytest.raises((ModelContractError, StructureError), match=message) as by_pair:
        fragmentation_model(grid, rate, (f, g), **flags)
    with pytest.raises(type(by_pair.value), match=re.escape(str(by_pair.value))):
        fragmentation_model(grid, rate, np.triu(np.outer(f, g), 1), **flags)


# factor entries whose products are exact, overflow, underflow to +-0.0 or
# are not finite; the corners f[-1] and g[0] are never part of a product
_CLEAN = [0.0, 1e-200, 1.0, 1e200]
_ANY = _CLEAN + [-1e-200, -1.0, -1e200, np.nan, np.inf, -np.inf]


@st.composite
def _factor_pairs(draw):
    d = draw(st.integers(2, 12))
    # both factors negative keeps the products nonnegative
    sign = draw(st.sampled_from([1.0, -1.0]))
    f, g = (sign * np.array(draw(st.lists(st.sampled_from(_CLEAN), min_size=d, max_size=d)))
            for _ in range(2))
    for h in (f, g):
        for k in draw(st.lists(st.integers(0, d - 1), max_size=2)):
            h[k] = draw(st.sampled_from(_ANY))
    f[-1], g[0] = draw(st.sampled_from(_ANY)), draw(st.sampled_from(_ANY))
    return f, g


def _build_or_error(grid, rate, daughter):
    try:
        return fragmentation_model(grid, rate, daughter)
    except EvofamError as exc:
        return exc


@settings(max_examples=300)
@given(_factor_pairs())
# every f_i g_j is 1e8, but the prefix sum of x_i f_i overflows unscaled
@example((np.full(8, 1e308), np.full(8, 1e-300)))
def test_pair_validates_as_its_dense_matrix(pair):
    f, g = pair
    grid = uniform_mass_grid(0.1, 1.0, f.size)
    rate = fragmentation_rate(grid, "constant")
    with np.errstate(all="ignore"):
        dense = np.triu(np.outer(f, g), 1)
    by_pair = _build_or_error(grid, rate, (f, g))
    by_matrix = _build_or_error(grid, rate, dense)
    assert type(by_pair) is type(by_matrix)
    if isinstance(by_matrix, Exception):
        assert str(by_pair) == str(by_matrix)
    else:
        # residuals are relative deviations; huge kernels give huge ones
        np.testing.assert_allclose(by_pair.normalization_residuals,
                                   by_matrix.normalization_residuals, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("flags", [{}, {"force_normalize": True}])
def test_pair_model_builds_without_a_dense_daughter(flags):
    # the dense 4096 x 4096 daughter would take 134 MB
    grid = uniform_mass_grid(1.0 / 4096.0, 1.0, 4096)
    rate = fragmentation_rate(grid, "linear")
    pair = daughter_factors(grid, "binary_uniform")
    tracemalloc.start()
    try:
        model = fragmentation_model(grid, rate, pair, **flags)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.normalized == bool(flags)
    assert peak < 1e6
    assert held < 1e6
    assert "daughter" not in vars(model)


def test_model_rejects_negative_rate():
    grid = uniform_mass_grid(0.1, 1.0, 4)
    rate = fragmentation_rate(grid, "constant", {"value": -1.0})
    with pytest.raises(ModelContractError, match="negative at t"):
        fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"))


def test_engine_refuses_a_lattice_past_the_sampled_rate(oracle_model):
    # the rate 2 - 1.5 t turns negative at t = 4/3, past the default samples
    grid = uniform_mass_grid(0.1, 1.0, 4)
    rate = SeparableCoefficient(TimeProfile(kind="affine", c0=2.0, c1=-1.5), grid.nodes)
    daughter = daughter_factors(grid, "binary_uniform")
    model = fragmentation_perturbed_model(fragmentation_model(grid, rate, daughter))
    assert model.validated_span == (0.0, 1.0)
    with pytest.raises(PreconditionError, match=r"leaves the span \[0.0, 1.0\]"):
        iterate_right(model, TimeGrid(0.0, 2.0, 0.25), np.ones(4), 2)
    with pytest.raises(ModelContractError, match="negative at t"):
        fragmentation_model(grid, rate, daughter, time_samples=np.linspace(0.0, 2.0, 9))
    # a model built straight from its families carries no span
    assert oracle_model.validated_span is None
    iterate_right(oracle_model, TimeGrid(0.0, 2.0, 0.25), np.ones(2), 2)


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
    u = rng.uniform(0.0, 1.0, binary_frag_perturbed.grid.size)
    one_hop = flow.apply(0.9, 0.1, u)
    two_hop = flow.apply(0.9, 0.5, flow.apply(0.5, 0.1, u))
    np.testing.assert_allclose(two_hop, one_hop, rtol=1e-14)
    # linear rate a(x) = x gives the closed-form factor exp(-x (t - s))
    np.testing.assert_allclose(one_hop, np.exp(-binary_frag_perturbed.grid.nodes * 0.8) * u, rtol=1e-14)
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
    np.testing.assert_allclose(_dense(model.perturbation.apply, model.grid.size, 0.6) @ u,
                               model.perturbation.apply(0.6, u), rtol=1e-13)
    np.testing.assert_allclose(model.loss_rate(0.4), binary_frag.rate_values(0.4))


# ---------------------------------------------------------------------------
# identities, references, leakage
# ---------------------------------------------------------------------------

def test_vn_identity_second_order(binary_frag_perturbed):
    # the variation-of-constants (Duhamel) residual of the series is second
    # order in dt on a fragmentation model: halving dt quarters it
    u0 = np.ones(binary_frag_perturbed.grid.size)
    residuals = [duhamel_residual(binary_frag_perturbed, TimeGrid(0.0, 1.0, dt), u0)
                 for dt in (1.0 / 16.0, 1.0 / 32.0)]
    assert residuals[0] < 1e-2
    assert residuals[1] / residuals[0] == pytest.approx(0.25, abs=0.1)


def test_vn_identity_exact_for_zero_rate():
    # with zero breakup rate nothing moves: U is the identity and B is 0,
    # so the variation-of-constants identity holds exactly
    grid = uniform_mass_grid(0.1, 1.0, 8)
    rate = fragmentation_rate(grid, "constant", {"value": 0.0})
    model = fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"))
    series_model = fragmentation_perturbed_model(model)
    assert duhamel_residual(series_model, TimeGrid(0.0, 1.0, 0.25), np.ones(8)) == 0.0


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
# shattering: the shipped x_min sweep under a(x) = x**-alpha
# ---------------------------------------------------------------------------

def shattering_rows(tmp_path, capsys, *replacements):
    """Exit code and sweep.csv rows of the shipped shattering sweep."""
    out_dir = tmp_path / "out"
    code = main(["sweep", write_ini(tmp_path, shipped_ini("shattering_sweep.ini", *replacements)),
                 "--output-dir", str(out_dir)])
    capsys.readouterr()
    with open(out_dir / "sweep.csv", newline="") as fh:
        return code, list(csv.DictReader(fh))


def test_shattering_bounded_control_is_honest(tmp_path, capsys):
    code, rows = shattering_rows(tmp_path, capsys, BOUNDED_SHATTERING)
    assert code == 0
    assert [row["verdict"] for row in rows] == ["honest"] * 4


def test_shattering_singular_rate_defect_persists(tmp_path, capsys):
    code, rows = shattering_rows(tmp_path, capsys)
    assert code == 3
    assert all(row["verdict"] != "honest" for row in rows[1:])
    # each halving of the cutoff strengthens the singular loss
    limits = [float(row["defect_limit"]) for row in rows]
    assert all(a < b for a, b in zip(limits, limits[1:]))


def test_binary_model_defaults(binary_frag):
    grid = binary_frag.grid
    assert grid.kind == "mass"
    assert grid.size == 64
    assert grid.nodes[0] > 1.0 / 64.0 and grid.nodes[-1] < 1.0
    np.testing.assert_allclose(binary_frag.rate_values(0.0), grid.nodes)
    assert not binary_frag.normalized
