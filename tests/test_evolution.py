"""Iteration engine: lattices, closed-form agreement, identity residuals."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evofam import (
    EvaluationError,
    EvolutionFamily,
    ModelContractError,
    PerturbationFamily,
    PerturbedModel,
    PreconditionError,
    SizeCapError,
    StateVector,
    StructureError,
    TimeGrid,
    abstract_grid,
    cocycle_residual,
    duhamel_residual,
    iterate_binomial_check,
    iterate_left,
    iterate_right,
    left_right_discrepancy,
    mass_balance_identity,
    mol_reference,
    partial_sum_states,
    series_sum,
    summed_family_values,
    two_state_exchange,
    validate_family,
    vn_identity_residual,
)
from evofam import evolution
from evofam.coefficients import SeparableCoefficient, TimeProfile
from evofam.evolution import loss_gain_model, prefix_weights
from evofam.state_space import weighted_norm_array


def swapped(u0: np.ndarray, n: int) -> np.ndarray:
    return u0 if n % 2 == 0 else u0[::-1]


def oracle_iterate(n: int, elapsed: float, u0: np.ndarray) -> np.ndarray:
    return math.exp(-elapsed) * elapsed ** n / math.factorial(n) * swapped(u0, n)


def oracle_sum(elapsed: float, u0: np.ndarray) -> np.ndarray:
    return math.exp(-elapsed) * (math.cosh(elapsed) * u0
                                 + math.sinh(elapsed) * u0[::-1])


# ---------------------------------------------------------------------------
# time lattice
# ---------------------------------------------------------------------------

def test_time_grid_nodes_and_index():
    tg = TimeGrid(0.5, 1.5, 0.25)
    assert tg.n_steps == 4
    np.testing.assert_allclose(tg.nodes, [0.5, 0.75, 1.0, 1.25, 1.5])
    assert tg.node_index(1.0) == 2
    with pytest.raises(PreconditionError):
        tg.node_index(1.1)
    with pytest.raises(PreconditionError):
        tg.node_index(2.0)


def test_time_grid_degenerate_and_errors():
    degenerate = TimeGrid(1.0, 1.0, 0.1)
    assert degenerate.n_steps == 0
    with pytest.raises(StructureError):
        TimeGrid(0.0, 1.0, 0.3)  # not an integer multiple
    with pytest.raises(StructureError):
        TimeGrid(1.0, 0.0, 0.1)
    with pytest.raises(StructureError):
        TimeGrid(0.0, 1.0, -0.1)
    with pytest.raises(StructureError):
        TimeGrid(0.0, 1.0, 0.1, "simpson")


@pytest.mark.parametrize("rule", ["trapezoid", "midpoint"])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 7, 8])
def test_prefix_weights_integrate_linear_exactly(rule, j):
    dt = 0.125
    w = prefix_weights(rule, j, dt)
    assert w.shape == (j + 1,)
    span = j * dt
    nodes = dt * np.arange(j + 1)
    assert float(w.sum()) == pytest.approx(span, abs=1e-15)
    assert float(w @ nodes) == pytest.approx(span ** 2 / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# closed-form agreement on the exchange oracle
# ---------------------------------------------------------------------------

def test_low_iterates_exact_on_trapezoid(oracle_model):
    # rows 0..2 have integrands of degree <= 1, so the trapezoid rule is exact
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    u0 = np.array([1.0, 0.0])
    table = iterate_right(oracle_model, tg, u0, 5)
    for j, tau in enumerate(tg.nodes):
        for n in range(3):
            np.testing.assert_allclose(table.iterates[n, j],
                                       oracle_iterate(n, tau, u0),
                                       rtol=1e-13, atol=1e-15)
    # higher rows carry quadrature error at second order
    worst = max(
        abs(table.iterates[n, -1] - oracle_iterate(n, 1.0, u0)).max()
        for n in range(3, 6)
    )
    assert worst < 10.0 * tg.dt ** 2


def test_series_matches_closed_form(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    u0 = np.array([1.0, 0.0])
    result = series_sum(oracle_model, tg, u0, tol=1e-12)
    assert result.converged
    np.testing.assert_allclose(result.value, oracle_sum(1.0, u0),
                               rtol=5.0 * tg.dt ** 2)


def test_degenerate_interval_rows(oracle_model):
    tg = TimeGrid(1.0, 1.0, 0.5)
    u0 = np.array([0.3, 0.7])
    table = iterate_right(oracle_model, tg, u0, 3)
    np.testing.assert_array_equal(table.iterates[0, 0], u0)
    assert np.all(table.iterates[1:] == 0.0)


def test_partial_sum_states_and_range(oracle_model):
    tg = TimeGrid(0.0, 0.5, 0.125)
    table = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 4)
    np.testing.assert_allclose(partial_sum_states(table, 2),
                               table.iterates[:3].sum(axis=0))
    with pytest.raises(PreconditionError):
        partial_sum_states(table, 5)


@given(u0=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
def test_iterates_stay_nonnegative(u0):
    model = two_state_exchange(1.0)
    tg = TimeGrid(0.0, 0.5, 0.125)
    table = iterate_right(model, tg, np.array(u0), 6)
    assert np.all(table.iterates >= 0.0)
    # mass defects shrink monotonically up to quadrature-level slack
    u0_norm = weighted_norm_array(model.grid, np.array(u0))
    defects = u0_norm - table.partial_norms
    slack = 10.0 * tg.dt ** 2 * max(u0_norm, 1e-30)
    assert np.all(np.diff(defects) <= slack)
    assert np.all(table.partial_norms <= u0_norm + slack)


@pytest.mark.parametrize("fixture", ["oracle_model", "timedep_collision_perturbed",
                                     "binary_frag_perturbed"])
def test_direct_trapezoid_matches_one_step(fixture, request):
    model = request.getfixturevalue(fixture)
    tg = TimeGrid(0.0, 0.5, 1.0 / 16.0)
    u0 = np.linspace(1.0, 2.0, model.grid.size)
    one_step = iterate_right(model, tg, u0, 4)
    direct = iterate_right(model, tg, u0, 4, direct=True)
    np.testing.assert_allclose(direct.iterates, one_step.iterates, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(direct.b_applied, one_step.b_applied, rtol=1e-13, atol=0.0)


def test_signed_data_resolved_linearly(oracle_model):
    tg = TimeGrid(0.0, 0.5, 0.125)
    u0 = np.array([1.0, -2.0])
    table = iterate_right(oracle_model, tg, u0, 4)
    pos = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 4)
    neg = iterate_right(oracle_model, tg, np.array([0.0, 2.0]), 4)
    np.testing.assert_allclose(table.iterates, pos.iterates - neg.iterates,
                               atol=1e-15)


def test_summed_family_values_final_node(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 32.0)
    u0 = np.array([1.0, 0.0])
    values = summed_family_values(oracle_model, tg, u0, tol=1e-12)
    assert values.shape == (tg.n_steps + 1, 2)
    reference = series_sum(oracle_model, tg, u0, tol=1e-12).value
    np.testing.assert_allclose(values[-1], reference, rtol=1e-13)


# ---------------------------------------------------------------------------
# left recursion cross-check
# ---------------------------------------------------------------------------

def test_left_right_agree_exactly_on_trapezoid(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    u0 = np.array([1.0, 0.5])
    right = iterate_right(oracle_model, tg, u0, 6)
    left = iterate_left(oracle_model, tg, u0, 6)
    assert left_right_discrepancy(left, right) < 1e-12


def test_left_right_midpoint_gap_shrinks(oracle_model):
    u0 = np.array([1.0, 0.0])
    gaps = []
    for m in (16, 32):
        tg = TimeGrid(0.0, 1.0, 1.0 / m, "midpoint")
        right = iterate_right(oracle_model, tg, u0, 6)
        left = iterate_left(oracle_model, tg, u0, 6)
        gaps.append(left_right_discrepancy(left, right))
    assert gaps[0] > 1e-9  # the midpoint gap is genuine, not rounding
    assert gaps[0] / gaps[1] >= 3.0


def test_left_recursion_size_cap(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 128.0)
    with pytest.raises(SizeCapError):
        iterate_left(oracle_model, tg, np.array([1.0, 0.0]), 2)


def test_binomial_composition_identity(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    left = iterate_left(oracle_model, tg, np.array([1.0, 0.0]), 5)
    assert iterate_binomial_check(left, 0.5) < 1e-12


# ---------------------------------------------------------------------------
# integral identity residuals
# ---------------------------------------------------------------------------

def test_duhamel_residual_second_order(oracle_model):
    u0 = np.array([1.0, 0.0])
    res = [duhamel_residual(oracle_model, TimeGrid(0.0, 1.0, dt), u0)
           for dt in (1.0 / 32.0, 1.0 / 64.0)]
    assert res[0] < 1e-3
    assert res[1] / res[0] == pytest.approx(0.25, abs=0.1)


def test_duhamel_accepts_supplied_values(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 32.0)
    u0 = np.array([1.0, 0.0])
    exact = np.stack([oracle_sum(tau, u0) for tau in tg.nodes])
    res = duhamel_residual(oracle_model, tg, u0, v_values=exact)
    assert res < 1e-3
    # same-lattice engine values satisfy the discrete identity exactly
    own = summed_family_values(oracle_model, tg, u0, tol=1e-14)
    assert duhamel_residual(oracle_model, tg, u0, v_values=own) < 1e-12


def test_cocycle_residual_second_order(oracle_model):
    u0 = np.array([1.0, 0.0])
    res = [cocycle_residual(oracle_model, TimeGrid(0.0, 1.0, dt), u0, 0.5)
           for dt in (1.0 / 32.0, 1.0 / 64.0)]
    assert res[0] < 1e-3
    assert res[1] / res[0] == pytest.approx(0.25, abs=0.1)


def test_cocycle_with_closed_form_apply(oracle_model):
    tg = TimeGrid(0.0, 1.0, 0.25)
    u0 = np.array([1.0, 0.0])

    def v_apply(t, s, u):
        return oracle_sum(t - s, np.asarray(u))

    assert cocycle_residual(oracle_model, tg, u0, 0.5, v_apply=v_apply) < 1e-14
    with pytest.raises(PreconditionError):
        cocycle_residual(oracle_model, tg, u0, 0.1)


def test_cocycle_needs_a_finer_reference(oracle_model):
    # at one shared resolution the legs compose exactly: the check is blind
    tg = TimeGrid(0.0, 1.0, 0.25)
    with pytest.raises(PreconditionError, match="refine must be >= 2"):
        cocycle_residual(oracle_model, tg, np.array([1.0, 0.0]), 0.5, refine=1)


def jump_after_split_model():
    """Weak loss up to t = 0.5, then a loss 200 times stronger: the series
    tail at t_end dies out rows before the tail at 0.5 does."""
    grid = abstract_grid(np.ones(3))
    loss = SeparableCoefficient(
        profile=TimeProfile(kind="pwlinear", times=np.array([0.0, 0.5, 0.5625, 1.0]),
                            values=np.array([1.0, 1.0, 200.0, 200.0])),
        space=np.ones(3))
    gain = np.array([[0.0, 0.6, 0.2], [0.5, 0.0, 0.4], [0.3, 0.2, 0.0]])
    return loss_gain_model("jump", grid, loss, TimeProfile(kind="constant", c0=1.0),
                           gain, np.ones(3))


def reference_residuals(model, tg, u0, r, tol, refine=8):
    """The two residuals from separate runs: the full value and each
    composed leg summed by series_sum on its own lattice, the Duhamel values
    summed at every fine node and restricted back."""
    fine_dt = tg.dt / refine
    fine = TimeGrid(tg.s, tg.t_end, fine_dt)
    values = summed_family_values(model, fine, u0, tol=tol)[::refine]
    duhamel = duhamel_residual(model, tg, u0, v_values=values)
    full = series_sum(model, tg, u0, tol=tol).value
    first = series_sum(model, TimeGrid(tg.s, r, fine_dt), u0, tol=tol).value
    second = series_sum(model, TimeGrid(r, tg.t_end, fine_dt), first, tol=tol).value
    return duhamel, weighted_norm_array(model.grid, full - second)


@pytest.mark.parametrize("case", [
    ("oracle_model", None, "mid", 20),
    ("timedep_collision_perturbed", None, "mid", 20),
    ("binary_frag_perturbed", None, "mid", 20),
    ("oracle_model", "signed", "mid", 20),
    ("oracle_model", None, "first", 20),
    ("timedep_collision_perturbed", None, "last", 20),
    ("timedep_collision_perturbed", None, "mid", 3),
    ("jump", None, "mid", 20),
    ("timedep_collision_perturbed", None, "odd", 20),
], ids=["oracle", "collision", "fragmentation", "signed", "split_first", "split_last",
        "short_table", "tail_outlasts_at_split", "odd_split_two_carry_levels"])
def test_shared_pass_residuals_match_separate_runs(case, request):
    fixture, data, where, table_rows = case
    model = jump_after_split_model() if fixture == "jump" else request.getfixturevalue(fixture)
    d = model.grid.size
    # "odd": a fine lattice of 320 > K**2 steps, so the carry recurses
    # twice, split at coarse node 13, inside a block of the second level
    tg = TimeGrid(0.0, 1.0, 1.0 / (40.0 if where == "odd" else 16.0))
    u0 = np.linspace(1.0, 0.5, d)
    if data == "signed":
        u0 = np.array([1.0, -0.5])
    r = {"first": 0.0, "mid": 0.5, "last": 1.0, "odd": tg.nodes[13]}[where]
    tol = 1e-12
    table = iterate_right(model, tg, u0, table_rows)
    # the short table cannot give the full value; every other case reads it
    assert (evolution._table_series(table, u0, tol, 40) is None) == (table_rows == 3)
    if fixture == "jump":
        first = series_sum(model, TimeGrid(0.0, r, tg.dt / 8), u0, tol=tol)
        whole = series_sum(model, TimeGrid(0.0, 1.0, tg.dt / 8), u0, tol=tol)
        assert first.n_used > whole.n_used

    duhamel, cocycle = reference_residuals(model, tg, u0, r, tol)
    assert evolution._flat_residuals(model, tg, u0, r, table, tol=tol) == (duhamel, cocycle)
    assert duhamel_residual(model, tg, u0, tol=tol) == duhamel
    assert cocycle_residual(model, tg, u0, r, tol=tol) == cocycle


def counting_b(model):
    calls = []

    def apply(t, u):
        calls.append(np.shape(t))
        return model.perturbation.apply(t, u)

    return with_perturbation(model, apply), calls


@pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-12])
def test_series_sum_applies_b_only_to_rows_it_builds_on(oracle_model, tol):
    model, calls = counting_b(oracle_model)
    result = series_sum(model, TimeGrid(0.0, 1.0, 0.125), np.array([1.0, 0.0]), tol=tol)
    # rows 0..n_used - 1 feed the next row; B of row n_used is never read
    assert result.converged and result.n_used >= 2
    assert len(calls) == result.n_used


# ---------------------------------------------------------------------------
# blocked carry recursion
# ---------------------------------------------------------------------------

K = evolution._CARRY_BLOCK


def sequential_carry(steps, out):
    out = out.copy()
    for j in range(1, len(out)):
        out[j] = steps[j - 1] * out[j - 1] + out[j]
    return out


def carry_data(seed, m, d, zeros, tinies):
    """Nonnegative factors in [0, 1) with exact zeros and 1e-300 mixed in,
    and nonnegative start and inputs with exact zeros mixed in."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.0, 1.0, (m, d))
    pick = rng.uniform(size=(m, d))
    steps[pick < zeros] = 0.0
    steps[(pick >= zeros) & (pick < zeros + tinies)] = 1e-300
    out = rng.uniform(0.0, 2.0, (m + 1, d))
    out[rng.uniform(size=out.shape) < zeros] = 0.0
    return steps, out


@given(m=st.sampled_from([0, 1, K, K + 1, K * K, K * K + 1, 2000]),
       d=st.sampled_from([1, 2, 33]), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.floats(0.0, 0.5), tinies=st.floats(0.0, 0.5))
def test_carry_matches_sequential_loop(m, d, seed, zeros, tinies):
    steps, start = carry_data(seed, m, d, zeros, tinies)
    ref = sequential_carry(steps, start)
    out = start.copy()
    evolution._carry(steps, out)
    # 1e-13 relative on every entry; below the smallest normal float the
    # products of 1e-300 factors round as subnormals, in either order
    assert np.all(np.abs(out - ref) <= 1e-13 * ref + np.finfo(float).tiny)


@pytest.mark.parametrize("d", [1, 2, 33])
def test_carry_on_a_prefix_is_bitwise_the_full_run(d):
    # three blocked levels (650, 80 and 9 steps) before the plain loop
    m = K * (K * 10 + 1) + 2
    steps, start = carry_data(d, m, d, 0.1, 0.1)
    full = start.copy()
    evolution._carry(steps, full)
    for cut in range(m + 1):
        part = start[:cut + 1].copy()
        evolution._carry(steps[:cut], part)
        assert np.array_equal(part, full[:cut + 1]), cut


def test_carry_on_wide_rows_is_the_sequential_loop():
    steps, start = carry_data(5, 100, evolution._CARRY_WIDE_ROW, 0.1, 0.1)
    out = start.copy()
    evolution._carry(steps, out)
    assert np.array_equal(out, sequential_carry(steps, start))


# ---------------------------------------------------------------------------
# engine error paths and guards
# ---------------------------------------------------------------------------

def with_perturbation(model, apply):
    return dataclasses.replace(model, perturbation=PerturbationFamily(model.grid, apply))


def test_perturbation_failure_names_iterate_and_time(oracle_model):
    def failing(t, u):
        raise RuntimeError("kernel table missing")

    model = with_perturbation(oracle_model, failing)
    with pytest.raises(EvaluationError, match="kernel table missing") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert (err.value.n, err.value.tau) == (0, 0.0)


def test_non_finite_perturbation_names_first_bad_node(oracle_model):
    def nan_late(t, u):
        out = oracle_model.perturbation.apply(t, u)
        return np.where(np.asarray(t)[..., None] > 0.3, np.nan, 1.0) * out

    model = with_perturbation(oracle_model, nan_late)
    with pytest.raises(EvaluationError, match="non-finite") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert (err.value.n, err.value.tau) == (0, 0.5)


def test_negative_flow_rejected_at_its_row(oracle_model):
    flipping = EvolutionFamily(oracle_model.grid, lambda t, s, u: -u)
    model = dataclasses.replace(oracle_model, unperturbed=flipping)
    with pytest.raises(EvaluationError, match="lost positivity") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert err.value.n == 0
    assert err.value.tau == 0.25


def test_perturbation_raising_late_names_first_raising_node(oracle_model):
    def raises_late(t, u):
        if np.any(np.asarray(t) >= 0.5):
            raise RuntimeError("kernel undefined")
        return oracle_model.perturbation.apply(t, u)

    model = with_perturbation(oracle_model, raises_late)
    with pytest.raises(EvaluationError, match="kernel undefined") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert (err.value.n, err.value.tau) == (0, 0.5)


def test_expanding_step_factor_rejected(oracle_model):
    def expanding(t, s, u):
        return np.exp(np.subtract(t, s))[..., None] * u

    model = dataclasses.replace(oracle_model,
                                unperturbed=EvolutionFamily(oracle_model.grid, expanding))
    with pytest.raises(ModelContractError, match="not substochastic") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert "tau = 0.25, node index 0" in str(err.value)


def test_scalar_time_flow_names_the_array_contract():
    # validate_family calls U on scalar times only, so this family passes it
    grid = abstract_grid([1.0, 1.0])
    model = PerturbedModel(
        name="scalar_times", grid=grid,
        unperturbed=EvolutionFamily(grid, lambda t, s, u: math.exp(-(t - s)) * u),
        perturbation=PerturbationFamily(grid, lambda t, u: 0.5 * u[..., ::-1]))
    diag = validate_family(model, [0.0, 0.5, 1.0], [np.array([1.0, 0.5])])
    assert diag.substochastic_excess <= 0.0
    with pytest.raises(ModelContractError, match="arrays of times") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert isinstance(err.value.__cause__, TypeError)


def test_right_recursion_memory_cap():
    # 2 * 41 * 4097 * 512 * 8 bytes = 1.4 GB of table: refused before any
    # allocation or operator call
    grid = abstract_grid(np.ones(512))

    def never(t, u):
        raise AssertionError("B applied before the size check")

    model = PerturbedModel(name="wide", grid=grid,
                           unperturbed=EvolutionFamily(grid, lambda t, s, u: u),
                           perturbation=PerturbationFamily(grid, never))
    with pytest.raises(SizeCapError, match="bytes"):
        iterate_right(model, TimeGrid(0.0, 1.0, 1.0 / 4096.0), np.ones(512), 40)


def test_row_pass_working_set_cap():
    # a (2**15 + 1) x 512 row is 134 MB, so no row pass may hold six of them;
    # each call is refused before any operator call, whatever it keeps
    grid = abstract_grid(np.ones(512))

    def never(t, u):
        raise AssertionError("B applied before the size check")

    model = PerturbedModel(name="wide", grid=grid,
                           unperturbed=EvolutionFamily(grid, lambda t, s, u: u),
                           perturbation=PerturbationFamily(grid, never))
    long = TimeGrid(0.0, 1.0, 2.0 ** -15)
    u0 = np.ones(512)
    runs = [
        lambda: iterate_right(model, long, u0, 1, keep_rows=False),
        lambda: series_sum(model, long, u0),
        # M = 4096 passes on its own; the Duhamel fine pass (8 M) does not
        lambda: duhamel_residual(model, TimeGrid(0.0, 1.0, 2.0 ** -12), u0),
    ]
    for run in runs:
        with pytest.raises(SizeCapError, match="row pass working set"):
            run()


def test_row_less_table_refuses_row_readers(oracle_model, binary_frag, binary_frag_perturbed):
    tg = TimeGrid(0.0, 1.0, 0.25)
    lean = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 3, keep_rows=False)
    assert lean.iterates is None and lean.b_applied is None
    left = iterate_left(oracle_model, tg, np.array([1.0, 0.0]), 3)
    frag = iterate_right(binary_frag_perturbed, tg, np.ones(binary_frag.grid.size), 3,
                         keep_rows=False)
    for name, call in [
        ("partial_sum_states", lambda: partial_sum_states(lean, 1)),
        ("left_right_discrepancy", lambda: left_right_discrepancy(left, lean)),
        ("vn_identity_residual", lambda: vn_identity_residual(binary_frag, frag, 1)),
    ]:
        with pytest.raises(PreconditionError, match=f"{name} needs the full iterate rows"):
            call()


@pytest.mark.parametrize("fixture", ["oracle_model", "conservative_collision_perturbed",
                                     "timedep_collision_perturbed", "binary_frag_perturbed"])
def test_batched_apply_matches_per_node(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 2.0, 9))
    s = t * rng.uniform(0.0, 1.0, 9)
    u = rng.uniform(0.0, 1.5, (9, model.grid.size))
    u_batch = model.unperturbed.apply(t, s, u)
    u_nodes = np.stack([model.unperturbed.apply(tj, sj, uj) for tj, sj, uj in zip(t, s, u)])
    np.testing.assert_array_equal(u_batch, u_nodes)
    b_batch = model.perturbation.apply(t, u)
    b_nodes = np.stack([model.perturbation.apply(tj, uj) for tj, uj in zip(t, u)])
    np.testing.assert_allclose(b_batch, b_nodes, rtol=1e-15, atol=0.0)


def test_families_are_grid_and_apply(oracle_model):
    for family in (EvolutionFamily, PerturbationFamily):
        assert [f.name for f in dataclasses.fields(family)] == ["grid", "apply"]
    np.testing.assert_array_equal(oracle_model.perturbation.as_matrix(0.3),
                                  [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(oracle_model.unperturbed.as_matrix(0.75, 0.25),
                               math.exp(-0.5) * np.eye(2), rtol=1e-15)


@pytest.mark.parametrize("fixture", ["timedep_collision_perturbed", "binary_frag_perturbed"])
def test_loss_flow_rejects_s_after_t(fixture, request):
    flow = request.getfixturevalue(fixture).unperturbed
    d = flow.grid.size
    with pytest.raises(PreconditionError, match=r"s = 0\.5, t = 0\.2"):
        flow.apply(0.2, 0.5, np.ones(d))
    # arrays of times name the first backward pair
    t = np.array([0.3, 0.6, 0.4, 0.9])
    s = np.array([0.1, 0.6, 0.7, 1.0])
    with pytest.raises(PreconditionError, match=r"s = 0\.7, t = 0\.4"):
        flow.apply(t, s, np.ones((4, d)))
    with pytest.raises(PreconditionError, match=r"s = 0\.6, t = 0\.5"):
        flow.apply(0.5, np.array([0.1, 0.6]), np.ones((2, d)))


def test_state_inputs_must_match_the_grid(oracle_model, subcritical_collision, binary_frag):
    tg = TimeGrid(0.0, 0.5, 0.25)
    entries = [
        (oracle_model.grid, lambda u: iterate_right(oracle_model, tg, u, 2)),
        (subcritical_collision.grid, lambda u: mass_balance_identity(subcritical_collision, tg, u)),
        (binary_frag.grid, lambda u: mol_reference(binary_frag, tg, u)),
    ]
    for grid, run in entries:
        run(StateVector(grid, np.ones(grid.size)))
        elsewhere = StateVector(abstract_grid(2.0 * grid.weights), np.ones(grid.size))
        with pytest.raises(StructureError, match="different grid"):
            run(elsewhere)
        with pytest.raises(StructureError, match="coefficients"):
            run(np.ones(grid.size + 1))
        with pytest.raises(StructureError, match="one-dimensional"):
            run(np.ones((2, grid.size)))


# ---------------------------------------------------------------------------
# family contract diagnostics
# ---------------------------------------------------------------------------

def test_validate_family_clean_on_oracle(oracle_model):
    diag = validate_family(oracle_model, [0.0, 0.5, 1.0],
                           [np.array([1.0, 0.0]), np.array([0.5, 0.5])])
    assert diag.identity_residual < 1e-14
    assert diag.substochastic_excess <= 1e-14
    assert diag.positivity_defect == 0.0
    assert diag.cocycle_residual < 1e-14
    assert diag.perturbation_positivity_defect == 0.0


def test_validate_family_flags_expanding_flow():
    grid = abstract_grid([1.0, 1.0])
    family = EvolutionFamily(grid, lambda t, s, u: math.exp(t - s) * u)
    kick = PerturbationFamily(grid, lambda t, u: 0.0 * u)
    model = PerturbedModel(name="expanding", grid=grid,
                           unperturbed=family, perturbation=kick)
    diag = validate_family(model, [0.0, 1.0], [np.array([1.0, 1.0])])
    assert diag.substochastic_excess > 1.0
