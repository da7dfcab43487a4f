"""Mass-defect diagnostics, ledger accounting, and the balance certificate."""
from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from evofam import (
    PreconditionError,
    StateVector,
    TimeGrid,
    defect,
    defect_sequence,
    detailed_balance_certificate,
    grid_leakage,
    honesty_verdict,
    iterate_right,
    mass_ledger,
    table_verdict,
    uniform_velocity_grid,
)
from evofam import evolution
from evofam.evolution import prefix_weights
from evofam.honesty import (
    write_honesty_report,
    VERDICT_DISHONEST,
    VERDICT_HONEST,
    VERDICT_INCONCLUSIVE,
)
from evofam.state_space import weighted_norm_array


# ---------------------------------------------------------------------------
# defect sequence on the exchange oracle (closed forms)
# ---------------------------------------------------------------------------

def test_first_defects_match_closed_form(oracle_model):
    # D_n = integral_0^1 e^(-tau) tau^n / n! dtau
    tg = TimeGrid(0.0, 1.0, 1.0 / 256.0)
    table = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 3)
    tol = 5.0 * tg.dt ** 2
    assert defect(table, 0) == pytest.approx(1.0 - math.exp(-1.0), abs=tol)
    assert defect(table, 1) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=tol)
    assert defect(table, 2) == pytest.approx(1.0 - 2.5 * math.exp(-1.0), abs=tol)


def test_defect_sequence_cached_and_decaying(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    table = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 12)
    seq = defect_sequence(table)
    assert seq is defect_sequence(table)  # held on the table, not recomputed
    assert seq.shape == (13,)
    assert np.all(np.diff(seq) < 0.0)
    with pytest.raises(PreconditionError):
        defect(table, 13)
    with pytest.raises(PreconditionError):
        defect(table, -1)


# ---------------------------------------------------------------------------
# verdict classification on synthetic sequences
# ---------------------------------------------------------------------------

def test_verdict_honest_on_fast_geometric_decay():
    series = honesty_verdict(0.5 ** np.arange(41), 1.0)
    assert series.verdict == VERDICT_HONEST
    assert series.limit_estimate < 1e-8
    assert series.threshold == 1e-8


def test_verdict_inconclusive_when_decay_has_not_reached_threshold():
    series = honesty_verdict(0.5 ** np.arange(11), 1.0)
    assert series.verdict == VERDICT_INCONCLUSIVE
    assert series.limit_estimate > series.threshold


def test_verdict_dishonest_on_plateau():
    series = honesty_verdict(np.full(12, 0.3), 1.0)
    assert series.verdict == VERDICT_DISHONEST
    assert series.limit_estimate == pytest.approx(0.3)


def test_verdict_inconclusive_on_short_or_mixed_tails():
    assert honesty_verdict([1.0, 0.5, 0.25], 1.0).verdict == VERDICT_INCONCLUSIVE
    mixed = np.array([1.0, 0.5, 0.5, 0.25])  # ratios 0.5, 1.0, 0.5
    assert honesty_verdict(mixed, 1.0).verdict == VERDICT_INCONCLUSIVE


def test_verdict_handles_collapsed_tail():
    # exact zeros at the tail: 0/0 ratios count as fully decayed
    series = honesty_verdict([1.0, 1e-3, 0.0, 0.0, 0.0], 1.0)
    assert series.verdict == VERDICT_HONEST
    assert series.limit_estimate == 0.0


def test_verdict_input_validation():
    with pytest.raises(PreconditionError):
        honesty_verdict([], 1.0)
    with pytest.raises(PreconditionError):
        honesty_verdict(np.zeros((2, 2)), 1.0)
    with pytest.raises(PreconditionError):
        honesty_verdict([1.0, 0.5, 0.25, 0.125], 1.0, persistence=0)


def test_verdict_respects_custom_persistence():
    # four decaying ratios, but a plateau right before them
    values = np.array([1.0, 1.0, 1.0, 0.5, 0.25, 0.125, 0.0625]) * 1e-9
    short = honesty_verdict(values, 1.0, persistence=4)
    assert short.verdict == VERDICT_HONEST
    long = honesty_verdict(values, 1.0, persistence=6)
    assert long.verdict == VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# ledger accounting
# ---------------------------------------------------------------------------

def test_ledger_balances_for_exchange_oracle(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    table = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 15)
    ledger = mass_ledger(table)
    assert ledger.u0_norm == 1.0
    assert ledger.n_max == 15
    slack = 10.0 * tg.dt ** 2
    assert np.max(np.abs(ledger.residuals)) < slack
    np.testing.assert_allclose(
        ledger.residuals,
        ledger.u0_norm - ledger.partial_mass - ledger.defects,
    )


def test_ledger_balances_for_conservative_collision(conservative_collision_perturbed):
    model = conservative_collision_perturbed
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    u0 = np.ones(model.grid.size)
    table = iterate_right(model, tg, u0, 15)
    ledger = mass_ledger(table)
    assert np.max(np.abs(ledger.residuals)) < 10.0 * tg.dt ** 2 * ledger.u0_norm


def test_ledger_residual_nonnegative_for_dissipative_model(subcritical_collision_perturbed):
    model = subcritical_collision_perturbed
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    table = iterate_right(model, tg, np.ones(model.grid.size), 15)
    ledger = mass_ledger(table)
    assert np.all(ledger.residuals >= -10.0 * tg.dt ** 2 * ledger.u0_norm)


def test_table_verdict_honest_on_bounded_models(oracle_model,
                                                conservative_collision_perturbed):
    tg = TimeGrid(0.0, 1.0, 1.0 / 64.0)
    for model in (oracle_model, conservative_collision_perturbed):
        u0 = np.ones(model.grid.size)
        table = iterate_right(model, tg, u0, 20)
        series = table_verdict(table)
        assert series.verdict == VERDICT_HONEST
        assert series.limit_estimate < series.threshold


@pytest.mark.parametrize("fixture", ["oracle_model", "timedep_collision_perturbed",
                                     "binary_frag_perturbed"])
def test_row_less_table_matches_full_table_bitwise(fixture, request):
    model = request.getfixturevalue(fixture)
    grid = model.grid
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    u0 = np.linspace(1.0, 0.5, grid.size)
    full = iterate_right(model, tg, u0, 12)
    lean = iterate_right(model, tg, u0, 12, keep_rows=False)
    assert lean.iterates is None and lean.b_applied is None

    # the reduced fields are what the kept rows give, formula by formula
    w = prefix_weights("trapezoid", tg.n_steps, tg.dt)
    for n in range(13):
        assert full.defects[n] == float(w @ (np.abs(full.b_applied[n]) @ grid.weights))
        assert full.iterate_norms[n] == weighted_norm_array(grid, full.iterates[n, -1])
    assert np.array_equal(full.end_rows, full.iterates[:, -1])

    for name in ("end_rows", "defects", "iterate_norms", "partial_norms"):
        assert np.array_equal(getattr(lean, name), getattr(full, name)), name
    for a, b in [(mass_ledger(lean), mass_ledger(full)),
                 (table_verdict(lean), table_verdict(full))]:
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    assert np.array_equal(grid_leakage(lean), grid_leakage(full))
    for tol, n_max in [(1e-12, 40), (1e-12, 8), (1e-3, 40)]:
        assert np.array_equal(evolution._table_series(lean, u0, tol, n_max),
                              evolution._table_series(full, u0, tol, n_max))


def test_honesty_report_layout(oracle_model, tmp_path):
    tg = TimeGrid(0.0, 1.0, 1.0 / 32.0)
    table = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 6)
    ledger = mass_ledger(table)
    series = table_verdict(table)
    path = tmp_path / "honesty.csv"
    write_honesty_report(path, ledger, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,defect,partial_mass,ledger_residual"
    assert len(lines) == 2 + ledger.n_max + 1  # header + rows + footer
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == ledger.defects[0]
    footer = lines[-1].split(",")
    assert footer[0] == "limit_estimate" and footer[2] == "verdict"
    assert footer[3] == series.verdict


# ---------------------------------------------------------------------------
# detailed-balance certificate
# ---------------------------------------------------------------------------

def test_certificate_accepts_symmetric_kernel(conservative_collision):
    grid = conservative_collision.grid
    cert = detailed_balance_certificate(
        conservative_collision, np.ones(grid.size), 1.0, [0.25, 0.5, 1.0])
    assert cert.accepted
    assert cert.symmetry_residual == 0.0
    assert cert.growth_residual >= 0.0
    assert cert.time_samples == (0.25, 0.5, 1.0)


def test_certificate_accepts_balanced_nonuniform_reference():
    grid = uniform_velocity_grid(-1.0, 1.0, 6)
    m0 = np.exp(-grid.nodes ** 2)
    c = 1.0 + grid.nodes ** 2
    kern = np.outer(c, c) / m0[None, :]  # kern[i,j] m0[j] symmetric by design
    duck = SimpleNamespace(grid=grid, kernel_values=lambda t: kern)
    cert = detailed_balance_certificate(duck, StateVector(grid, m0), 2.0, [0.5, 1.0])
    assert cert.accepted
    assert cert.symmetry_residual < 1e-14


def test_certificate_rejects_asymmetric_kernel():
    grid = uniform_velocity_grid(-1.0, 1.0, 6)
    m = np.exp(-np.abs(grid.nodes))
    duck = SimpleNamespace(grid=grid, kernel_values=lambda t: np.outer(m, np.ones(6)))
    cert = detailed_balance_certificate(duck, np.ones(6), 1.0, [0.5])
    assert not cert.accepted
    assert cert.symmetry_residual > 1e-3


def test_certificate_rejects_decaying_time_profile(conservative_collision):
    grid = conservative_collision.grid
    cert = detailed_balance_certificate(
        conservative_collision, np.ones(grid.size), 0.1, [1.0, 2.0],
        beta=lambda t: t * math.exp(-5.0 * t))
    assert not cert.accepted
    assert cert.growth_residual < 0.0
    assert cert.symmetry_residual == 0.0


def test_certificate_preconditions(conservative_collision):
    grid = conservative_collision.grid
    ones = np.ones(grid.size)
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, ones, 0.0, [1.0])
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, ones, 1.0, [])
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, ones, 1.0, [-1.0, 1.0])
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, 0.0 * ones, 1.0, [1.0])
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, ones[:-1], 1.0, [1.0])
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, ones, 1.0, [1.0],
                                     beta=lambda t: 1.0 + t)
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(conservative_collision, ones, 1.0, [1.0],
                                     beta=lambda t: -t)
    other = uniform_velocity_grid(-1.0, 1.0, 4)
    with pytest.raises(PreconditionError):
        detailed_balance_certificate(
            conservative_collision, StateVector(other, np.ones(4)), 1.0, [1.0])
