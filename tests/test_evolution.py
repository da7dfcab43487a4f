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
    PerturbationFamily,
    PerturbedModel,
    PreconditionError,
    SizeCapError,
    StructureError,
    TimeGrid,
    abstract_grid,
    cocycle_residual,
    duhamel_residual,
    iterate_binomial_check,
    iterate_left,
    iterate_right,
    left_right_discrepancy,
    partial_sum_states,
    series_sum,
    summed_family_values,
    two_state_exchange,
    validate_family,
)
from evofam.evolution import prefix_weights, write_norm_summary_csv, write_table_csv
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
        return out * np.nan if t > 0.3 else out

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


def test_families_are_grid_and_apply(oracle_model):
    for family in (EvolutionFamily, PerturbationFamily):
        assert [f.name for f in dataclasses.fields(family)] == ["grid", "apply"]
    np.testing.assert_array_equal(oracle_model.perturbation.as_matrix(0.3),
                                  [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(oracle_model.unperturbed.as_matrix(0.75, 0.25),
                               math.exp(-0.5) * np.eye(2), rtol=1e-15)


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


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def test_table_csv_round_trip_values(oracle_model, tmp_path):
    tg = TimeGrid(0.0, 0.5, 0.25)
    table = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 2)
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,tau,coeff_index,value"
    n, tau, idx, value = lines[1].split(",")
    assert (n, tau, idx) == ("0", "0.0", "0")
    assert float(value) == table.iterates[0, 0, 0]

    summary = tmp_path / "norms.csv"
    write_norm_summary_csv(table, summary)
    header, first = summary.read_text().splitlines()[:2]
    assert header == "n,tau,iterate_norm,partial_sum"
    assert float(first.split(",")[2]) == pytest.approx(1.0)
