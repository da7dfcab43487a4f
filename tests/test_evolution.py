"""Iteration engine: lattices, closed-form agreement, identity residuals."""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evofam import (
    EvaluationError,
    LiftedVector,
    ModelContractError,
    PreconditionError,
    SizeCapError,
    StructureError,
    TimeGrid,
    abstract_grid,
    cocycle_residual,
    duhamel_residual,
    iterate_left,
    iterate_right,
    laplace_transform_check,
    left_right_discrepancy,
    mol_reference,
    series_sum,
    two_state_exchange,
)
from evofam import evolution
from evofam.coefficients import SeparableCoefficient, TimeProfile
from evofam.evolution import TIME_RULES, loss_gain_model
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

def test_time_grids_compare_and_hash_by_their_parameters():
    tg = TimeGrid(0.0, 1.0, 0.25)
    assert tg == TimeGrid(0.0, 1.0, 0.25)
    assert hash(tg) == hash(TimeGrid(0.0, 1.0, 0.25))
    assert tg != TimeGrid(0.0, 1.0, 0.25, "midpoint")
    assert tg != TimeGrid(0.0, 1.0, 0.125)
    assert len({tg, TimeGrid(0.0, 1.0, 0.25), TimeGrid(0.0, 1.0, 0.5)}) == 2


def test_time_grid_nodes_and_index():
    tg = TimeGrid(0.5, 1.5, 0.25)
    assert tg.n_steps == 4
    np.testing.assert_allclose(tg.nodes, [0.5, 0.75, 1.0, 1.25, 1.5])
    assert tg.node_index(1.0) == 2
    with pytest.raises(PreconditionError):
        tg.node_index(1.1)
    with pytest.raises(PreconditionError):
        tg.node_index(2.0)
    for t in (float("nan"), float("inf")):
        with pytest.raises(PreconditionError, match="does not lie on the lattice"):
            tg.node_index(t)


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


def test_time_grid_refuses_an_oversized_lattice():
    # 1e12 + 1 nodes would need 8 TB: refused before the nodes are allocated
    with pytest.raises(SizeCapError, match="time lattice"):
        TimeGrid(0.0, 1.0, 1e-12)
    # so is a lattice whose step count overflows a float: no integer count
    for s, t_end, dt in ((0.0, 1.0, 1e-320), (0.0, 1e308, 1e-10), (-1e308, 1e308, 1.0)):
        with pytest.raises(SizeCapError, match="time lattice would need inf bytes"):
            TimeGrid(s, t_end, dt)


@pytest.mark.parametrize("rule", TIME_RULES)
@pytest.mark.parametrize("j", [0, 1, 2, 3, 7, 8])
def test_prefix_weights_integrate_linear_exactly(rule, j):
    dt = 0.125
    w = evolution._RULES[rule].weights(j, dt)
    assert w.shape == (j + 1,)
    span = j * dt
    nodes = dt * np.arange(j + 1)
    assert float(w.sum()) == pytest.approx(span, abs=1e-15)
    assert float(w @ nodes) == pytest.approx(span ** 2 / 2.0, abs=1e-15)


@pytest.mark.parametrize("rule", TIME_RULES)
def test_every_rule_reaches_every_path(rule, oracle_model):
    # each path that reads the lattice's rule runs under every rule, but
    # the Laplace check, which refuses a rule whose weights do not nest
    tg = TimeGrid(0.0, 1.0, 0.125, rule)
    u0 = np.array([1.0, 0.5])
    assert np.isfinite(iterate_right(oracle_model, tg, u0, 3).defects).all()
    assert np.isfinite(iterate_left(oracle_model, tg, u0, 3).iterates).all()
    assert np.isfinite(duhamel_residual(oracle_model, tg, u0))
    axis = TimeGrid(0.0, 4.0, 0.25, rule)
    f = LiftedVector(grid=oracle_model.grid, axis=axis,
                     values=np.outer(np.exp(-axis.nodes), u0))
    if evolution._RULES[rule].nested:
        assert np.isfinite(laplace_transform_check(oracle_model, 8.0, 1, f).residual)
    else:
        with pytest.raises(PreconditionError, match=f"trapezoid.*{rule!r}"):
            laplace_transform_check(oracle_model, 8.0, 1, f)


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


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_two_state_exchange_refuses_a_rate_not_positive_and_finite(rate):
    with pytest.raises(StructureError, match="exchange rate must be positive and finite"):
        two_state_exchange(rate)


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
    defects = []
    direct = list(evolution._right_rows(model, tg, u0, 4, defects, True))
    np.testing.assert_allclose(np.array(direct), one_step.iterates, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(defects, one_step.defects, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("fast", [5000.0, 6000.0])
def test_direct_trapezoid_matches_one_step_where_the_flow_restarts(fast):
    # one node decays by exp(-fast / 16) per step: at 5000 two steps leave
    # the running products' band, so every chunk is one step long; at 6000
    # every factor is below the floor itself, so every step is plain
    grid = abstract_grid(np.ones(3))
    unit = TimeProfile(kind="constant", c0=1.0)
    model = loss_gain_model("restarts", grid, SeparableCoefficient(unit, np.array([1.0, fast, 1.0])),
                            unit, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                            np.ones(3))
    tg = TimeGrid(0.0, 0.5, 1.0 / 16.0)
    flow = evolution._Flow(evolution._step_factors(model, tg.nodes))
    plain = [factor is not None for _s, _e, factor in flow.chunks]
    assert len(flow.chunks) == 8 and all(plain) == (fast == 6000.0)
    u0 = np.array([1.0, 2.0, 0.5])
    one_step = iterate_right(model, tg, u0, 4)
    direct = np.array(list(evolution._right_rows(model, tg, u0, 4, [], True)))
    np.testing.assert_allclose(direct, one_step.iterates, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("entry", ["iterate_right", "series_sum", "duhamel_residual",
                                   "cocycle_residual", "iterate_left"])
def test_signed_data_refused(entry):
    # honesty is a statement about the positive cone: every engine entry
    # refuses a negative entry of u0, naming its grid node, before any
    # operator call (the model's U and B fail if called), the left
    # recursion too; -0.0 is not negative
    model = never_applied_model(3)
    tg = TimeGrid(0.0, 1.0, 0.25)
    u0 = np.array([1.0, -0.0, -0.25])
    call = {"iterate_right": lambda: iterate_right(model, tg, u0, 3, keep_rows=False),
            "series_sum": lambda: series_sum(model, tg, u0),
            "duhamel_residual": lambda: duhamel_residual(model, tg, u0),
            "cocycle_residual": lambda: cocycle_residual(model, tg, u0, 0.5),
            "iterate_left": lambda: iterate_left(model, tg, u0, 2)}[entry]
    with pytest.raises(PreconditionError,
                       match=r"nonnegative data only; the source is negative at grid node 2$"):
        call()


def test_per_node_source_refusal_names_tau_and_grid_node():
    # a per-node source is refused at its first negative entry in lattice
    # order, when the pass is asked for, before any operator call
    model = never_applied_model(2)
    tg = TimeGrid(0.0, 1.0, 0.25)
    source = np.ones((5, 2))
    source[3, 1] = source[4, 0] = -1e-300
    with pytest.raises(PreconditionError, match=r"negative at tau = 0\.75, grid node 1$"):
        evolution._right_rows(model, tg, source, 3, [])


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


@pytest.mark.parametrize("left_grid", [TimeGrid(0.0, 1.0, 0.125, "midpoint"),
                                       TimeGrid(0.0, 1.0, 0.0625)], ids=["rule", "dt"])
def test_left_right_discrepancy_refuses_another_lattice(left_grid, oracle_model):
    u0 = np.array([1.0, 0.5])
    left = iterate_left(oracle_model, left_grid, u0, 3)
    right = iterate_right(oracle_model, TimeGrid(0.0, 1.0, 0.125), u0, 3)
    with pytest.raises(PreconditionError, match="different time lattices"):
        left_right_discrepancy(left, right)


def test_left_right_discrepancy_refuses_another_grid():
    unit = TimeProfile(kind="constant", c0=1.0)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    def swap_model(weights):
        grid = abstract_grid(weights)
        loss = SeparableCoefficient(unit, np.ones(2))
        return loss_gain_model("swap", grid, loss, unit, swap, grid.weights)

    tg = TimeGrid(0.0, 0.75, 0.25)
    u0 = np.ones(2)
    left = iterate_left(swap_model([1.0, 1.0]), tg, u0, 3)
    right = iterate_right(swap_model([1.0, 3.0]), tg, u0, 3)
    with pytest.raises(PreconditionError, match="different state grids"):
        left_right_discrepancy(left, right)


def full_table_left_iterates(model, tg, u0, n_max):
    """The left recursion on its whole (n, j, k) operator table, as it ran
    before it kept only one lattice node's row at a time."""
    m, d = tg.n_steps, model.grid.size
    nodes = tg.nodes
    u_mat = np.zeros((m + 1, m + 1, d, d))
    jj, kk = np.tril_indices(m + 1)
    u_mat[jj, kk] = evolution._dense(model.unperturbed.apply, d, nodes[jj], nodes[kk])
    kick = np.einsum("rab,rkbc->rkac", evolution._dense(model.perturbation.apply, d, nodes),
                     u_mat)
    offsets = [tg._quadrature.weights(o, tg.dt) for o in range(m + 1)]
    mats = np.zeros((n_max + 1, m + 1, m + 1, d, d))
    mats[0] = u_mat
    for j in range(1, m + 1):
        weighted = np.zeros((j + 1, d, j, d))
        for k in range(j):
            weighted[k:, :, k] = offsets[j - k][:, None, None] * kick[k:j + 1, k]
        weighted = weighted.reshape((j + 1) * d, j * d)
        for n in range(n_max):
            row = mats[n, j, :j + 1].transpose(1, 0, 2).reshape(d, (j + 1) * d)
            mats[n + 1, j, :j] = (row @ weighted).reshape(d, j, d).transpose(1, 0, 2)
    return np.einsum("njab,b->nja", mats[:, :, 0], u0)


@pytest.mark.parametrize("rule", TIME_RULES)
def test_left_recursion_peak_stays_within_its_charge(rule, timedep_collision_perturbed,
                                                      monkeypatch):
    # acceptance criterion 5's largest case: the recursion keeps one lattice
    # node's row of every iterate, not the (n+1)(M+1)^2 d^2 table, and gives
    # the table's iterates bitwise
    model, m, n_max = timedep_collision_perturbed, 64, 8
    d = model.grid.size
    tg = TimeGrid(0.0, 1.0, 1.0 / m, rule)
    u0 = np.ones(d)
    need = evolution._left_bytes(m, n_max, d)
    # beside the arrays: the rule's weights and numpy's fixed buffers
    assert traced_peak(lambda: iterate_left(model, tg, u0, n_max)) <= need + 2 ** 18
    left = iterate_left(model, tg, u0, n_max)
    assert left.iterates.tobytes() == full_table_left_iterates(model, tg, u0, n_max).tobytes()
    monkeypatch.setattr(evolution, "_TABLE_MEMORY_CAP_BYTES", need - 1)
    with pytest.raises(SizeCapError, match="left recursion working set"):
        iterate_left(model, tg, u0, n_max)


def test_left_recursion_size_cap(oracle_model):
    tg = TimeGrid(0.0, 1.0, 1.0 / 128.0)
    with pytest.raises(SizeCapError):
        iterate_left(oracle_model, tg, np.array([1.0, 0.0]), 2)


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
    res = evolution._duhamel_gap(oracle_model, tg, u0, exact)
    assert res < 1e-3
    # same-lattice engine values satisfy the discrete identity exactly
    own = summed_values(oracle_model, tg, u0, 1e-14)
    assert evolution._duhamel_gap(oracle_model, tg, u0, own) < 1e-12


def test_cocycle_residual_second_order(oracle_model):
    u0 = np.array([1.0, 0.0])
    res = [cocycle_residual(oracle_model, TimeGrid(0.0, 1.0, dt), u0, 0.5)
           for dt in (1.0 / 32.0, 1.0 / 64.0)]
    assert res[0] < 1e-3
    assert res[1] / res[0] == pytest.approx(0.25, abs=0.1)


@pytest.mark.parametrize("fixture", ["oracle_model", "timedep_collision_perturbed"])
def test_split_time_does_not_change_the_cocycle_residual(fixture, request):
    # the value is the coarse t_end sum against the fine one; r is only checked
    model = request.getfixturevalue(fixture)
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    u0 = np.linspace(1.0, 0.5, model.grid.size)
    first, middle, odd, last = (cocycle_residual(model, tg, u0, r)
                                for r in tg.nodes[[0, 8, 13, 16]])
    assert first > 0.0
    assert first == middle == odd == last


def test_cocycle_needs_a_finer_reference(oracle_model):
    # the split time must lie on the lattice
    tg = TimeGrid(0.0, 1.0, 0.25)
    for r in (0.1, float("nan"), float("inf")):
        with pytest.raises(PreconditionError, match="does not lie on the lattice"):
            cocycle_residual(oracle_model, tg, np.array([1.0, 0.0]), r)


nonneg_or_zero = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@given(d=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_factored_gain_is_the_strictly_upper_product(d, seed, data):
    f, g, v = (np.array(data.draw(st.lists(nonneg_or_zero, min_size=d, max_size=d)))
               for _ in range(3))
    profile = TimeProfile(kind="affine", c0=1.0, c1=2.0)
    model = loss_gain_model("factored", abstract_grid(np.ones(d)),
                            SeparableCoefficient(profile, np.ones(d)), profile, (f, g), v)
    mat = np.triu(np.outer(f, g), 1)
    u = np.random.default_rng(seed).uniform(0.0, 1.0, (5, d))
    times = np.linspace(0.0, 1.0, 5)
    gain = model.perturbation
    scalar = gain.apply(0.3, u[0])
    batch = gain.apply(times, u)
    dense = evolution._dense(gain.apply, d, times)
    np.testing.assert_allclose(scalar, profile.value(0.3) * (mat @ (v * u[0])),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(batch, profile.value(times)[:, None] * ((u * v) @ mat.T),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(dense, profile.value(times)[:, None, None] * (mat * v),
                               rtol=1e-13, atol=0.0)
    # nothing lies above the largest node
    assert scalar[-1] == 0.0
    assert np.all(batch[:, -1] == 0.0)
    assert np.all(dense[:, -1, :] == 0.0)


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


def summed_values(model, tg, u0, tol):
    """The series summed at every lattice node, stopped on the tail at t_end."""
    rows = evolution._row_values(model, tg, u0, 40)
    return evolution._tail_sum(rows, slice(None), model.grid, u0, tol, 40).value


def table_sum(table, tol, n_max=40):
    """The series summed off a table's t_end rows alone."""
    rows = iter(table.end_rows[:, None])
    return evolution._tail_sum(rows, -1, table.grid, table.u0, tol, n_max)


def reference_residuals(model, tg, u0, tol):
    """The two residuals from separate runs: the Duhamel values summed at
    every fine node and restricted back, and the full value against the
    whole-interval sum on the fine lattice, summed by series_sum."""
    fine = TimeGrid(tg.s, tg.t_end, tg.dt / 8)
    values = summed_values(model, fine, u0, tol)[::8]
    duhamel = evolution._duhamel_gap(model, tg, u0, values)
    full = series_sum(model, tg, u0, tol=tol).value
    composed = series_sum(model, fine, u0, tol=tol).value
    return duhamel, weighted_norm_array(model.grid, full - composed)


SPLIT_CASES = {
    "oracle": ("oracle_model", "mid", 20),
    "collision": ("timedep_collision_perturbed", "mid", 20),
    "fragmentation": ("binary_frag_perturbed", "mid", 20),
    "split_first": ("oracle_model", "first", 20),
    "split_last": ("timedep_collision_perturbed", "last", 20),
    "short_table": ("timedep_collision_perturbed", "mid", 3),
    "tail_outlasts_at_split": ("jump", "mid", 20),
    "odd_split_partial_scan_level": ("timedep_collision_perturbed", "odd", 20),
}


def split_case(case, request, rule="trapezoid"):
    """Model, lattice, u0 and split time of a ``SPLIT_CASES`` entry."""
    fixture, where, _table_rows = case
    model = jump_after_split_model() if fixture == "jump" else request.getfixturevalue(fixture)
    # "odd": a fine lattice of 320 steps split at coarse node 13 (fine
    # node 104), neither a power of two
    tg = TimeGrid(0.0, 1.0, 1.0 / (40.0 if where == "odd" else 16.0), rule)
    u0 = np.linspace(1.0, 0.5, model.grid.size)
    r = {"first": 0.0, "mid": 0.5, "last": 1.0, "odd": tg.nodes[13]}[where]
    return model, tg, u0, r


@pytest.mark.parametrize("case", list(SPLIT_CASES.values()), ids=list(SPLIT_CASES))
def test_shared_pass_residuals_match_separate_runs(case, request):
    model, tg, u0, r = split_case(case, request)
    table_rows = case[2]
    tol = 1e-12
    table = iterate_right(model, tg, u0, table_rows)
    # the short table cannot give the full value; every other case reads it
    assert table_sum(table, tol).converged == (table_rows != 3)

    duhamel, cocycle = reference_residuals(model, tg, u0, tol)
    assert evolution._flat_residuals(model, tg, u0, table, cocycle=True, tol=tol) == (
        duhamel, cocycle)
    assert duhamel_residual(model, tg, u0, tol=tol) == duhamel
    assert cocycle_residual(model, tg, u0, r, tol=tol) == cocycle


@pytest.mark.parametrize("case, rule", [
    *((case, "trapezoid") for case in SPLIT_CASES.values()),
    (SPLIT_CASES["oracle"], "midpoint"),
    (("oracle_model", "odd", 20), "midpoint"),
], ids=[*SPLIT_CASES.keys(), "oracle_midpoint", "odd_split_midpoint"])
def test_legs_on_one_fine_lattice_compose(case, rule, request):
    """V(t_end, r) V(r, s) u0 summed leg by leg on the fine lattice is the
    one-leg sum over [s, t_end]: the identity that lets the cocycle
    residual read its composed side off the fine pass."""
    model, tg, u0, r = split_case(case, request, rule)
    tol = 1e-12
    fine_dt = tg.dt / 8
    first = series_sum(model, TimeGrid(tg.s, r, fine_dt, rule), u0, tol=tol)
    two_legs = series_sum(model, TimeGrid(r, tg.t_end, fine_dt, rule), first.value, tol=tol)
    one_leg = series_sum(model, TimeGrid(tg.s, tg.t_end, fine_dt, rule), u0, tol=tol)
    assert first.converged and two_legs.converged and one_leg.converged
    if case[0] == "jump":
        # the series tail at the split outlasts the one at t_end
        assert first.n_used > one_leg.n_used
    gap = weighted_norm_array(model.grid, two_legs.value - one_leg.value)
    assert gap <= 1e-10 * weighted_norm_array(model.grid, u0)


def recorded_b_calls(monkeypatch):
    """What each of the engine's batched B calls kicks, and on how many
    nodes, in call order (the lifted layer's own kicks are not recorded)."""
    calls = []
    b_rows = evolution._b_rows

    def record(model, kicked, n, taus, states, blocks=None):
        calls.append((kicked, len(taus)))
        return b_rows(model, kicked, n, taus, states, blocks)

    monkeypatch.setattr(evolution, "_b_rows", record)
    return calls


def b_rows_of(rows, m):
    """The B calls a pass makes on rows 0..rows - 1 of an M-step lattice."""
    return [(f"iterate {n}", m + 1) for n in range(rows)]


@pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-12])
def test_series_sum_applies_b_only_to_rows_it_builds_on(oracle_model, tol, monkeypatch):
    # each pass makes a row's B row once, and only when its consumer asks
    # past the row: a consumer that stops after row n makes no B call on it
    calls = recorded_b_calls(monkeypatch)
    tg = TimeGrid(0.0, 1.0, 0.125)
    u0 = np.array([1.0, 0.0])
    result = series_sum(oracle_model, tg, u0, tol=tol)
    # rows 0..n_used - 1 feed the next row; B of row n_used is never made
    assert result.converged and result.n_used >= 2
    n = result.n_used
    assert calls == b_rows_of(n, 8)
    fine = TimeGrid(0.0, 1.0, 0.125 / 8)
    n_fine = series_sum(oracle_model, fine, u0, tol=tol).n_used
    # iterate_right to n reads every row's defect: n + 1 B rows
    calls.clear()
    iterate_right(oracle_model, tg, u0, n, keep_rows=False)
    assert calls == b_rows_of(n + 1, 8)
    # the Duhamel fine pass stops as series_sum does on its lattice, then
    # the gap kicks the family values once
    calls.clear()
    duhamel_residual(oracle_model, tg, u0, tol=tol)
    assert calls == b_rows_of(n_fine, 64) + [("the family values", 9)]
    # the Laplace pass to n (a history zero at t = 0, so no corner pass):
    # row 1's end-point rows, then B rows 0..n-1, none on its last row
    axis = TimeGrid(0.0, 3.0, 0.125)
    f = LiftedVector(oracle_model.grid, axis,
                     np.outer(axis.nodes * np.exp(-axis.nodes), [1.0, 0.5]))
    calls.clear()
    laplace_transform_check(oracle_model, 8.0, n, f)
    assert calls == [("iterate 0", 24)] + b_rows_of(n, 24)


# ---------------------------------------------------------------------------
# carry recursion
# ---------------------------------------------------------------------------

# row widths on both sides of the prefix-sum threshold (np.cumsum under
# _LOOP_ROW floats, one add per node from it), and lengths from the empty
# lattice up
LOOP_ROW = evolution._LOOP_ROW
WIDTHS = [1, 2, 8, 33, 128, LOOP_ROW - 1, LOOP_ROW, 512]
CARRY_SHAPES = [(d, m) for d in WIDTHS for m in [0, 1, 2, 3, 17, 64, 400]]


def carry(steps, out):
    evolution._Flow(steps).carry(out)


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


def decaying_data(seed, m, d):
    """Factors in [1e-40, 1e-20], so that the running products leave the
    band within a few steps and every chunk restarts by decay alone."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-40.0, -20.0, (m, d)), rng.uniform(0.0, 2.0, (m + 1, d))


def assert_close_to_loop(out, ref):
    # 1e-13 relative on every entry; below the smallest normal float the
    # products of 1e-300 factors round as subnormals, in either order
    assert np.all(np.abs(out - ref) <= 1e-13 * ref + np.finfo(float).tiny)


def every_shape_then_random(test):
    """Run ``test`` once on each of CARRY_SHAPES with exact zeros and 1e-300
    factors mixed in, once more without them on the longest lattices (which
    then restart by decay alone), then on random draws."""
    for i, shape in enumerate(CARRY_SHAPES):
        test = example(shape=shape, seed=i, zeros=0.1, tinies=0.1)(test)
        if shape[1] == 400:
            test = example(shape=shape, seed=i, zeros=0.0, tinies=0.0)(test)
    return given(shape=st.sampled_from(CARRY_SHAPES), seed=st.integers(0, 2 ** 32 - 1),
                 zeros=st.floats(0.0, 0.5), tinies=st.floats(0.0, 0.5))(test)


@every_shape_then_random
def test_carry_matches_sequential_loop(shape, seed, zeros, tinies):
    d, m = shape
    steps, start = carry_data(seed, m, d, zeros, tinies)
    out = start.copy()
    carry(steps, out)
    assert_close_to_loop(out, sequential_carry(steps, start))


@every_shape_then_random
def test_framed_kicks_carry_as_the_plain_kicks(shape, seed, zeros, tinies):
    # the one-step row formed in the flow's frame against the plain kicks
    # dt/2 (e_j b_{j-1} + b_j) run through the sequential loop, first with
    # the B row's own end points, then with separate end-point rows
    d, m = shape
    steps, b_row = carry_data(seed, m, d, zeros, tinies)
    flow = evolution._Flow(steps)
    for ends in (None, carry_data(seed + 1, m, d, zeros, tinies)[1][1:]):
        # the kicks divide the B row and the end-point rows in place
        out = flow.kicks(b_row.copy(), 0.25, None if ends is None else ends.copy())
        flow.carry(out, framed=True)
        plain = np.zeros_like(b_row)
        plain[1:] = 0.125 * (steps * b_row[:-1] + (b_row[1:] if ends is None else ends))
        assert_close_to_loop(out, sequential_carry(steps, plain))


@pytest.mark.parametrize("d", WIDTHS)
def test_carry_restarted_by_decay_matches_sequential_loop(d):
    steps, start = decaying_data(d, 40, d)
    flow = evolution._Flow(steps)
    # a product of four factors may already leave the band
    # no product of eight factors stays in the band
    assert len(flow.chunks) >= 6 and all(e - s <= 7 for s, e, _f in flow.chunks)
    assert all(factor is None for _s, _e, factor in flow.chunks)
    out = start.copy()
    flow.carry(out)
    assert_close_to_loop(out, sequential_carry(steps, start))


@pytest.mark.parametrize("tiny", [0.0, 1e-300, 1e-151])
@pytest.mark.parametrize("d", [1, 2, LOOP_ROW])
def test_a_step_below_the_floor_is_one_plain_step(d, tiny):
    # one factor below the floor in one entry, amid factors near 1: the
    # chunk ends before it, it is carried plainly, and a chunk starts after
    rng = np.random.default_rng(d)
    steps = rng.uniform(0.5, 1.0, (30, d))
    steps[11, d // 2] = tiny
    start = rng.uniform(0.0, 2.0, (31, d))
    flow = evolution._Flow(steps)
    assert [(s, e) for s, e, _f in flow.chunks] == [(0, 11), (11, 12), (12, 30)]
    assert np.array_equal(flow.chunks[1][2], steps[11])
    out = start.copy()
    flow.carry(out)
    ref = sequential_carry(steps, start)
    assert_close_to_loop(out, ref)
    # the plain step is the loop's own step, bitwise
    assert np.array_equal(out[12], steps[11] * out[11] + start[12])


def test_long_lattice_carry_matches_a_long_double_reference():
    # d = 2, M = 65536 steps of exp(-rate dt): the frame's products and
    # quotients must not lose more than the plain loop does
    m = 65536
    rates = np.array([0.5, 3.0])
    steps = np.exp(-rates * (8.0 / m)) * np.ones((m, 2))
    rng = np.random.default_rng(3)
    start = rng.uniform(0.0, 1.0, (m + 1, 2)) / m
    ref = start.astype(np.longdouble)
    ld_steps = steps.astype(np.longdouble)
    for j in range(1, m + 1):
        ref[j] += ld_steps[j - 1] * ref[j - 1]
    out = start.copy()
    carry(steps, out)
    assert float(np.max(np.abs(out - ref) / ref)) <= 1e-13


@pytest.mark.parametrize("ufunc", [np.add, np.multiply])
@pytest.mark.parametrize("m", [1, 2, 17, 300])
def test_accumulate_methods_agree_bitwise(m, ufunc):
    # the per-node loop and the whole-array accumulate, on either side of
    # _LOOP_ROW, give the same running sums and products
    rows = np.random.default_rng(m).uniform(0.5, 1.0, (m + 1, 5))
    looped, whole = rows.copy(), rows.copy()
    evolution._accumulate_loop(ufunc, looped)
    evolution._accumulate_whole(ufunc, whole)
    assert np.array_equal(looped, whole)


@pytest.mark.parametrize("d", [1, 2, 8, 9, 33, 128, 511, 512, LOOP_ROW - 1, LOOP_ROW])
def test_carry_on_a_prefix_is_bitwise_the_full_run(d):
    # chunks restarted by zeros, by 1e-300 factors and by decay: cut at
    # every node
    m = 60
    steps, start = carry_data(d, m, d, 0.02, 0.02)
    steps[30:] = decaying_data(d, m - 30, d)[0]
    full = start.copy()
    carry(steps, full)
    for cut in range(m + 1):
        part = start[:cut + 1].copy()
        carry(steps[:cut], part)
        assert np.array_equal(part, full[:cut + 1]), cut


def test_chunk_planning_is_linear_in_the_lattice(monkeypatch):
    # restarts every few steps on a long lattice: the products are formed
    # over windows that grow with the chunks, never over the rest of the
    # lattice at each restart
    steps = decaying_data(0, 20000, 1)[0]
    formed = []
    first_out_of_band = evolution._first_out_of_band

    def counting(block):
        formed.append(len(block))
        return first_out_of_band(block)

    monkeypatch.setattr(evolution, "_first_out_of_band", counting)
    flow = evolution._Flow(steps)
    assert len(flow.chunks) > 2000
    # the first window is the whole lattice; every later one is at most
    # 16 steps or twice the chunk before it
    assert sum(formed) <= 6 * len(steps)


# (m, j, d): node j early in the lattice, near the end of a long one, and
# in a long mid-width one; carry_data's zeros and 1e-300 factors end the
# chunks around node j
NON_FINITE_CASES = (
    [(m, j, d) for d in (1, 2, 8) for m, j in [(64, 1), (64, 37), (4196, 4096), (4196, 4133)]]
    + [(506, j, 33) for j in (248, 249)] + [(138, j, 128) for j in (64, 65)]
    + [(300, j, d) for d in (LOOP_ROW - 1, LOOP_ROW) for j in (1, 150)])


@pytest.mark.parametrize("m, j, d", NON_FINITE_CASES)
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("into", ["input", "factor"])
def test_carry_keeps_rows_before_a_non_finite_entry_finite(d, m, j, bad, into):
    steps, start = carry_data(j, m, d, 0.1, 0.1)
    if into == "input":
        start[j, d // 2] = bad
    else:
        start[j - 1, d // 2] = 1.0  # so the factor's product is not 0 * inf
        steps[j - 1, d // 2] = bad
    out = start.copy()
    with np.errstate(invalid="ignore"):
        carry(steps, out)
        ref = sequential_carry(steps, start)
    assert np.isfinite(out[:j]).all()
    assert not np.isfinite(out[j]).all()
    assert_close_to_loop(out[:j], ref[:j])


def stiff_conservative_model(rate):
    """5 nodes, loss rate (1 + t/2) rate a with a in [0.5, 1.5], and a
    dense gain that returns every lost unit of mass."""
    d = 5
    profile = TimeProfile(kind="affine", c0=1.0, c1=0.5)
    a = rate * np.linspace(0.5, 1.5, d)
    gain = np.random.default_rng(5).uniform(0.1, 1.0, (d, d))
    gain /= gain.sum(axis=0)
    return loss_gain_model("stiff", abstract_grid(np.ones(d)),
                           SeparableCoefficient(profile, a), profile, gain, a)


@pytest.mark.parametrize("rate, m, flow_shape", [
    (1.0, 12, "one chunk"), (300.0, 16, "restarted by decay"), (1e4, 16, "every step plain")])
def test_per_node_source_rows_sum_the_runs_from_each_node(rate, m, flow_shape):
    # row n of the per-node source pass at tau_k is the sum over i <= k of
    # row n of the run started at tau_i on source[i], read at tau_k
    model = stiff_conservative_model(rate)
    tg = TimeGrid(0.0, m * 0.125, 0.125)
    chunks = evolution._Flow(evolution._step_factors(model, tg.nodes)).chunks
    plain = [factor is not None for _s, _e, factor in chunks]
    assert {"one chunk": len(chunks) == 1 and not any(plain),
            "restarted by decay": len(chunks) > 1 and not any(plain),
            "every step plain": len(chunks) == m and all(plain)}[flow_shape]
    source = np.random.default_rng(2).uniform(0.0, 1.0, (m + 1, 5))
    # the pass owns a per-node source (it carries row 0 in it in place),
    # so it gets a copy: the loop below reads the source again; and a row
    # is valid only until the next is asked for, so each is copied
    got = np.stack([row.copy() for row in
                    evolution._right_rows(model, tg, source.copy(), 3, [])])
    ref = np.zeros_like(got)
    for k in range(m + 1):
        for i in range(k + 1):
            ref[:, k] += iterate_right(model, TimeGrid(tg.nodes[i], tg.nodes[k], 0.125),
                                       source[i], 3).end_rows
    assert_close_to_loop(got, ref)


# ---------------------------------------------------------------------------
# engine error paths and guards
# ---------------------------------------------------------------------------

def exchange(loss=(1.0, 1.0), gain=((0.0, 1.0), (1.0, 0.0)), weights=(1.0, 1.0), *,
             loss_profile=TimeProfile(kind="constant", c0=1.0),
             gain_profile=TimeProfile(kind="constant", c0=1.0)):
    """A two-node loss-gain model, by default the unit-rate oracle; each
    failure below is reached by passing data ``loss_gain_model`` takes."""
    return loss_gain_model("exchange", abstract_grid(np.ones(2)),
                           SeparableCoefficient(loss_profile, np.array(loss)), gain_profile,
                           np.array(gain), np.array(weights))


def test_perturbation_failure_names_iterate_and_time():
    # B raises only from its gain profile's domain, whose message names t
    for start, p, message in (
            (0.0, -0.5, r"iterate 0: power profile with exponent -0\.5 is singular at t = 0\.0$"),
            (-0.5, 0.5, r"iterate 0: power profile evaluated at t < 0 \(t = -0\.5\)$")):
        model = exchange(gain_profile=TimeProfile(kind="power", c0=1.0, p=p))
        with pytest.raises(EvaluationError, match=message) as err:
            iterate_right(model, TimeGrid(start, 1.0, 0.25), np.array([1.0, 0.0]), 3)
        assert err.value.n == 0
        assert isinstance(err.value.__cause__, ModelContractError)


@pytest.mark.parametrize("m, first_bad", [(64, 20), (4160, 4126)])
def test_non_finite_flow_fails_at_the_node_the_plain_loop_names(m, first_bad, monkeypatch):
    # a loss profile that turns nan after node first_bad - 1 fails the
    # step-factor check at node first_bad, naming the node the plain loop
    # would fail at, before any running product is formed or any row carried
    tg = TimeGrid(0.0, 1.0, 1.0 / m)
    cut = tg.nodes[first_bad - 1]
    nan_late = TimeProfile(kind="pwlinear", times=np.array([0.0, cut, 2.0]),
                           values=np.array([1.0, 1.0, np.nan]))

    def never(steps):
        raise AssertionError("running products formed before the step-factor check")

    model = exchange(loss_profile=nan_late)
    monkeypatch.setattr(evolution, "_Flow", never)
    with pytest.raises(ModelContractError, match="U is not substochastic") as err:
        iterate_right(model, tg, np.array([1.0, 0.5]), 2)
    assert (f"step factor nan is not <= 1 on the step ending at "
            f"tau = {float(tg.nodes[first_bad])!r}, node index 0") in str(err.value)


def overflowing_gain():
    """The oracle with gain weight 1e308 on node 0 and gain profile
    1 + 4.5 t: B's entry on node 1, (1 + 4.5 t) exp(-t) 1e308 from a unit
    mass on node 0, is finite at t = 0.25 and overflows from t = 0.5."""
    return exchange(weights=(1e308, 1.0), gain_profile=TimeProfile(kind="affine", c0=1.0, c1=4.5))


def test_non_finite_perturbation_names_first_bad_node():
    with pytest.raises(EvaluationError, match="non-finite") as err, np.errstate(over="ignore"):
        iterate_right(overflowing_gain(), TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert (err.value.n, err.value.tau, err.value.node) == (0, 0.5, 1)


def test_non_finite_b_in_a_later_block_names_its_tau_and_grid_node(monkeypatch):
    # B over blocks of two nodes (9 nodes of 2 floats: nodes 0-1, 2-3, 4-5
    # and 6-8) is checked block by block, each by one sum: a nan at
    # tau = 0.875, grid node 1, in the last block is named as one call
    # names it, and a block whose sum overflows on finite entries passes
    monkeypatch.setattr(evolution, "_BLOCK_FLOATS", 4)
    model = narrow_model(2)
    b_apply = model.perturbation.apply
    calls = []

    def nan_late(t, u):
        calls.append(len(t))
        out = b_apply(t, u)
        out[t == 0.875, 1] = np.nan
        return out

    late = dataclasses.replace(model, perturbation=evolution._Operator(nan_late))
    tg = TimeGrid(0.0, 1.0, 0.125)
    with pytest.raises(EvaluationError, match=r"perturbation produced non-finite values at "
                                              r"iterate 0, tau = 0\.875, grid node 1$") as err:
        iterate_right(late, tg, np.ones(2), 2)
    assert (err.value.n, err.value.tau, err.value.node) == (0, 0.875, 1)
    assert calls == [2, 2, 2, 3]
    blocks = evolution._node_blocks(9, 2)
    with np.errstate(over="ignore"):
        out = evolution._b_rows(model, "iterate 0", 0, tg.nodes, np.full((9, 2), 1e308), blocks)
        assert np.isfinite(out).all() and np.isinf(out[:2].sum())


def test_row_failures_name_their_grid_node():
    # each engine failure names the grid node beside tau: where B turns
    # non-finite, where a row loses positivity (a negative gain weight or
    # gain entry), where a row overflows
    u0 = np.array([1.0, 0.5])
    tg = TimeGrid(0.0, 1.0, 0.25)
    # a unit flow and a gain that keeps node 1's mass on node 1
    overflows = exchange(loss=(0.0, 0.0), gain=((0.0, 0.0), (0.0, 1.0)))
    for model, v0, message, where in (
            (overflowing_gain(), u0,
             r"perturbation produced non-finite values at iterate 0, tau = 0\.5, grid node 1$",
             (0, 0.5, 1)),
            (exchange(weights=(-1.0, 1.0)), u0,
             r"iterate row 1 lost positivity at tau = 0\.25, grid node 1 ", (1, 0.25, 1)),
            (exchange(gain=((0.0, -1.0), (-1.0, 0.0))), np.array([1.0, 0.0]),
             r"iterate row 1 lost positivity at tau = 0\.25, grid node 1 ", (1, 0.25, 1)),
            (overflows, np.array([1.0, 1.5e308]),
             r"iterate row 1 contains non-finite values at tau = 0\.25, grid node 1$",
             (1, 0.25, 1))):
        with pytest.raises(EvaluationError, match=message) as err, np.errstate(over="ignore"):
            iterate_right(model, tg, v0, 3)
        assert (err.value.n, err.value.tau, err.value.node) == where


def test_negative_flow_rejected_at_its_row():
    # no loss-gain U goes negative, but an operator swapped in through
    # dataclasses.replace (as the benchmark's tracer does) can: row 0 is
    # checked where the flipped flow first makes it negative
    model = exchange()
    flipping = dataclasses.replace(model.unperturbed, apply=lambda t, s, u: -u)
    model = dataclasses.replace(model, unperturbed=flipping)
    with pytest.raises(EvaluationError, match="lost positivity") as err:
        iterate_right(model, TimeGrid(0.0, 1.0, 0.25), np.array([1.0, 0.0]), 3)
    assert err.value.n == 0
    assert err.value.tau == 0.25


def test_expanding_step_factor_rejected():
    # a negative loss rate expands the flow
    with pytest.raises(ModelContractError, match="not substochastic") as err:
        iterate_right(exchange(loss=(-1.0, -1.0)), TimeGrid(0.0, 1.0, 0.25),
                      np.array([1.0, 0.0]), 3)
    assert "step factor 1.28" in str(err.value)
    assert "tau = 0.25, node index 0" in str(err.value)


def test_right_recursion_memory_cap():
    # 2 * 41 * 4097 * 512 * 8 bytes = 1.4 GB of table: refused before any
    # allocation or operator call
    with pytest.raises(SizeCapError, match="bytes"):
        iterate_right(never_applied_model(512), TimeGrid(0.0, 1.0, 1.0 / 4096.0), np.ones(512),
                      40)


def test_row_pass_working_set_cap():
    # a (2**15 + 1) x 512 row is 134 MB, so no row pass may hold the three it needs;
    # each call is refused before any operator call, whatever it keeps
    model = never_applied_model(512)
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


def narrow_model(d):
    """A model on d unit nodes with a unit flow (zero loss) and a halving B."""
    unit = TimeProfile(kind="constant", c0=1.0)
    return loss_gain_model("narrow", abstract_grid(np.ones(d)),
                           SeparableCoefficient(unit, np.zeros(d)), unit, 0.5 * np.eye(d),
                           np.ones(d))


def never_applied_model(d):
    """``narrow_model(d)`` with a U and a B that fail if they are ever
    called, swapped in through the operator holder."""
    def never_u(t, s, u):
        raise AssertionError("U applied before the size check")

    def never_b(t, u):
        raise AssertionError("B applied before the size check")

    return dataclasses.replace(narrow_model(d), unperturbed=evolution._Operator(never_u),
                               perturbation=evolution._Operator(never_b))


def pass_bytes(rows, m, d):
    return rows * (m + 1) * d * 8


@pytest.mark.parametrize("d, m, block", [pytest.param(d, m, block, id=f"{d}-{m}") for d, m, block in
                                         [(2, 64, 65), (128, 64, 65), (512, 8, 9), (512, 128, 33)]])
def test_row_pass_cap_counts_the_arrays_a_pass_holds(d, m, block, monkeypatch):
    # a start-state pass holds, on the one-step path, _PASS_ROWS = 2
    # arrays of (M+1) d floats and one B block of up to 16384 // d + 1
    # nodes (the whole row when it makes one block), and on the direct
    # path _DIRECT_PASS_ROWS = 3 arrays: a cap one byte under that is
    # refused before any operator call, and a cap equal to it runs
    assert (evolution._PASS_ROWS, evolution._DIRECT_PASS_ROWS) == (2, 3)
    for rule, need in (("trapezoid", pass_bytes(2, m, d) + block * d * 8),
                       ("midpoint", pass_bytes(3, m, d))):
        tg = TimeGrid(0.0, 1.0, 1.0 / m, rule)
        monkeypatch.setattr(evolution, "_TABLE_MEMORY_CAP_BYTES", need - 1)
        with pytest.raises(SizeCapError, match="row pass working set"):
            iterate_right(never_applied_model(d), tg, np.ones(d), 1, keep_rows=False)
        with pytest.raises(SizeCapError, match="row pass working set"):
            series_sum(never_applied_model(d), tg, np.ones(d))
        monkeypatch.setattr(evolution, "_TABLE_MEMORY_CAP_BYTES", need)
        table = iterate_right(narrow_model(d), tg, np.ones(d), 2, keep_rows=False)
        assert np.isfinite(table.defects).all()


def test_row_pass_cap_counts_the_per_node_source_rows(monkeypatch):
    # a per-node source also holds row 1's end-point B rows beside the
    # running products, the row and the B block of a start-state pass
    assert evolution._PER_NODE_PASS_ROWS == 3
    for d, m, block in ((2, 64, 65), (512, 128, 33)):
        tg = TimeGrid(0.0, 1.0, 1.0 / m)
        source = np.ones((m + 1, d))
        need = pass_bytes(3, m, d) + block * d * 8
        monkeypatch.setattr(evolution, "_TABLE_MEMORY_CAP_BYTES", need - 1)
        with pytest.raises(SizeCapError, match="row pass working set"):
            evolution._right_rows(never_applied_model(d), tg, source, 2, [])
        monkeypatch.setattr(evolution, "_TABLE_MEMORY_CAP_BYTES", need)
        for row in evolution._right_rows(narrow_model(d), tg, source, 2, []):
            assert np.isfinite(row).all()


def decay_model(d, gain):
    """A decaying flow on d unit nodes with a weak gain, ``gain`` being
    "dense" (a matrix) or "pair" (a factor pair)."""
    k = np.full((d, d), 0.3 / d) if gain == "dense" else (np.full(d, 0.3 / d), np.ones(d))
    return loss_gain_model(gain, abstract_grid(np.ones(d)),
                           SeparableCoefficient(TimeProfile(kind="constant", c0=1.0),
                                                np.linspace(0.5, 1.5, d)),
                           TimeProfile(kind="constant", c0=1.0), k, np.ones(d))


def traced_peak(run):
    """Traced bytes a second call of ``run`` holds at its peak, above what
    was held before it (the first folds a dense gain's weights)."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def within_charge(peak, m, d, per_node=False, direct=False):
    # beside what the guard charges: lattice vectors (the defect's
    # quadrature weights and integrand) and numpy's fixed iterator buffers
    # (about 64-197 KB)
    return peak <= evolution._pass_bytes(m, d, per_node, direct) + 2 * (m + 1) * 8 + 2 ** 18


@pytest.mark.parametrize("d, m", [(2, 8192), (33, 512), (128, 256), (512, 128)])
def test_row_pass_peak_stays_within_its_count(d, m):
    # the charge is what a pass holds: the traced peak of a row-less
    # iterate_right and of series_sum stays within _PASS_ROWS arrays and
    # one B block, for either gain form (d = 512 is where the carry loops
    # over nodes; from d = 33 here a row takes several blocks)
    tg = TimeGrid(0.0, 1.0, 1.0 / m)
    u0 = np.ones(d)
    for gain in ("dense", "pair"):
        model = decay_model(d, gain)
        runs = {"iterate_right": lambda: iterate_right(model, tg, u0, 3, keep_rows=False),
                "series_sum": lambda: series_sum(model, tg, u0, tol=0.0, n_max=3)}
        for name, run in runs.items():
            assert within_charge(traced_peak(run), m, d), (gain, name)


@pytest.mark.parametrize("gain", ["dense", "pair"])
@pytest.mark.parametrize("rule, direct", [("midpoint", False), ("trapezoid", True)])
def test_direct_pass_peak_stays_within_its_count(rule, direct, gain, monkeypatch):
    # the direct path holds _DIRECT_PASS_ROWS arrays, under the midpoint
    # rule and as the trapezoid's forced reference, which reads its
    # contiguous nodes' B rows as a view
    d, m = 512, 128
    if direct:
        monkeypatch.setattr(evolution, "_right_rows",
                            functools.partial(evolution._right_rows, direct=True))
    model = decay_model(d, gain)
    tg = TimeGrid(0.0, 1.0, 1.0 / m, rule)
    peak = traced_peak(lambda: iterate_right(model, tg, np.ones(d), 3, keep_rows=False))
    assert within_charge(peak, m, d, direct=True)


@pytest.mark.parametrize("d", [1, 2, 3, 100, 512, 20000])
def test_b_blocks_tile_the_nodes_and_none_is_one_node_long(d):
    # blocks of 16384 // d nodes (at least two), run back to back over
    # the nodes, the last taking a one-node remainder: no block is one
    # node long, since BLAS takes a one-row product by another kernel
    size = max(2, evolution._BLOCK_FLOATS // d)
    for k in range(2, 3 * size + 3):
        blocks = evolution._node_blocks(k, d)
        assert blocks[0][0] == 0 and blocks[-1][1] == k
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        lengths = [hi - lo for lo, hi in blocks]
        assert all(n == size for n in lengths[:-1]) and 2 <= lengths[-1] <= size + 1
    assert evolution._node_blocks(1, d) == [(0, 1)]


@pytest.mark.parametrize("rate, flow_shape", [
    (1.0, "one chunk"), (300.0, "restarted by decay"), (1e4, "every step plain")])
@pytest.mark.parametrize("gain", ["dense", "pair"])
def test_rows_over_several_b_blocks_are_bitwise_those_of_one_block(gain, rate, flow_shape,
                                                                   monkeypatch):
    # B on blocks of four nodes, each written back into the row it read,
    # and the kicks formed in place over them give bitwise the rows and
    # defects of one B call per row into a new array: from a start state,
    # from a per-node source (whose end-point rows take blocks too) and on
    # the direct path.  d = 16 is a multiple of 8, where this BLAS makes
    # each row of a matrix product of two or more rows alike (see _b_rows)
    d, m = 16, 32
    k = np.full((d, d), 0.3 / d) if gain == "dense" else (np.full(d, 0.3 / d), np.ones(d))
    unit = TimeProfile(kind="constant", c0=1.0)
    model = loss_gain_model(gain, abstract_grid(np.ones(d)),
                            SeparableCoefficient(unit, rate * np.linspace(0.5, 1.5, d)),
                            unit, k, np.ones(d))
    tg = TimeGrid(0.0, 2.0, 1.0 / 16.0)
    chunks = evolution._Flow(evolution._step_factors(model, tg.nodes)).chunks
    plain = [factor is not None for _s, _e, factor in chunks]
    assert {"one chunk": len(chunks) == 1 and not any(plain),
            "restarted by decay": len(chunks) > 1 and not any(plain),
            "every step plain": len(chunks) == m and all(plain)}[flow_shape]
    u0 = np.linspace(1.0, 0.5, d)
    source = np.random.default_rng(3).uniform(0.0, 1.0, (m + 1, d))

    def passes():
        one_step = iterate_right(model, tg, u0, 4)
        per_node_defects = []
        per_node = [row.copy() for row in
                    evolution._right_rows(model, tg, source.copy(), 4, per_node_defects)]
        midpoint = iterate_right(model, TimeGrid(0.0, 2.0, 1.0 / 16.0, "midpoint"), u0, 4)
        return (one_step.iterates, one_step.defects, per_node, per_node_defects,
                midpoint.iterates, midpoint.defects)

    assert evolution._node_blocks(m + 1, d) == [(0, m + 1)]
    one_block = passes()
    monkeypatch.setattr(evolution, "_BLOCK_FLOATS", 4 * d)
    assert evolution._node_blocks(m + 1, d)[-2:] == [(24, 28), (28, 33)]
    for got, expected in zip(passes(), one_block):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("gain", ["dense", "pair"])
def test_per_node_pass_peak_stays_within_its_count(gain):
    # a per-node source's pass, its caller holding each row while the pass
    # makes the next (as the Laplace check does), stays within
    # _PER_NODE_PASS_ROWS arrays and one B block.  The pass owns its
    # source, so the source is made inside the count, as the Laplace
    # check's h f is
    d, m = 512, 128
    model = decay_model(d, gain)
    tg = TimeGrid(0.0, 1.0, 1.0 / m)

    def run():
        rows = evolution._right_rows(model, tg, np.ones((m + 1, d)), 3, [])
        for _n, row in zip(range(4), rows):
            assert np.isfinite(row).all()

    assert within_charge(traced_peak(run), m, d, per_node=True)


@pytest.mark.parametrize("gain", ["dense", "pair"])
def test_defect_integrates_the_absolute_b_row(gain):
    # B is positive, so the B rows of nonnegative data are their own
    # absolute values: the pass reduces each as it is, and gives the bits
    # of the trapezoid integral of the weighted norm of |B row|, B row n
    # being rebuilt here from the kept row n
    d = 6
    model = decay_model(d, gain)
    tg = TimeGrid(0.0, 1.0, 1.0 / 16.0)
    w = evolution._trapezoid_weights(tg.n_steps, tg.dt)
    table = iterate_right(model, tg, np.linspace(1.0, 0.5, d), 4)
    b_rows = [evolution._b_rows(model, f"iterate {n}", n, tg.nodes, row)
              for n, row in enumerate(table.iterates)]
    assert min(b_row.min() for b_row in b_rows) >= 0.0
    expected = [w @ (np.abs(b_row) @ model.grid.weights) for b_row in b_rows]
    assert np.array_equal(table.defects, expected)


def factor_pair_reference(f, g, v, q, u):
    """B(t) u of a factor pair by a Python loop: out[i] is the sum of
    g_j v_j u_j from j = d-1 down to i+1, times f_i, times q(t)."""
    d = len(u)
    out = [0.0] * d
    tail = 0.0
    for i in range(d - 2, -1, -1):
        tail += float(g[i + 1] * v[i + 1]) * float(u[i + 1])
        out[i] = tail * float(f[i]) * q
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 3, 512])
def test_factor_pair_tail_sum_order_is_pinned(d):
    rng = np.random.default_rng(d)
    f, g, v = (rng.uniform(0.5, 2.0, d) for _ in range(3))
    profile = TimeProfile(kind="affine", c0=1.0, c1=2.0)
    gain = loss_gain_model("pair", abstract_grid(np.ones(d)),
                           SeparableCoefficient(profile, np.ones(d)), profile,
                           (f, g), v).perturbation
    # magnitudes spread over 12 decades under a large head, so that a sum
    # taken forwards, or as a total minus a prefix, changes the bits
    times = np.linspace(0.0, 1.0, 4)
    u = 10.0 ** rng.uniform(-6.0, 6.0, (4, d))
    u[:, 0] = 1e12
    qs = profile.value(times)
    batch = np.array([factor_pair_reference(f, g, v, q, row) for q, row in zip(qs, u)])
    assert np.array_equal(gain.apply(times, u), batch)
    assert np.array_equal(gain.apply(0.25, u[1]),
                          factor_pair_reference(f, g, v, float(profile.value(0.25)), u[1]))
    q = float(profile.value(0.75))
    columns = [factor_pair_reference(f, g, v, q, e) for e in np.eye(d)]
    assert np.array_equal(evolution._dense(gain.apply, d, 0.75), np.array(columns).T)
    terms = g * v * u
    if d >= 2:
        prefix = np.cumsum(terms, axis=-1)
        minus_prefix = (prefix[:, -1:] - prefix) * f * qs[:, None]
        assert not np.array_equal(minus_prefix[:, :-1], batch[:, :-1])
    if d >= 4:
        forward = np.zeros_like(batch)
        for k, row in enumerate(terms):
            for i in range(d - 1):
                forward[k, i] = functools.reduce(operator.add, row[i + 1:].tolist()) * f[i] * qs[k]
        assert not np.array_equal(forward, batch)


def test_row_less_table_refuses_row_readers(oracle_model):
    tg = TimeGrid(0.0, 1.0, 0.25)
    lean = iterate_right(oracle_model, tg, np.array([1.0, 0.0]), 3, keep_rows=False)
    assert lean.iterates is None
    left = iterate_left(oracle_model, tg, np.array([1.0, 0.0]), 3)
    with pytest.raises(PreconditionError,
                       match="left_right_discrepancy needs the full iterate rows"):
        left_right_discrepancy(left, lean)


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


@pytest.mark.parametrize("fixture", ["timedep_collision_perturbed", "binary_frag_perturbed"])
def test_loss_flow_rejects_s_after_t(fixture, request):
    model = request.getfixturevalue(fixture)
    flow, d = model.unperturbed, model.grid.size
    with pytest.raises(PreconditionError, match=r"s = 0\.5, t = 0\.2"):
        flow.apply(0.2, 0.5, np.ones(d))
    # arrays of times name the first backward pair
    t = np.array([0.3, 0.6, 0.4, 0.9])
    s = np.array([0.1, 0.6, 0.7, 1.0])
    with pytest.raises(PreconditionError, match=r"s = 0\.7, t = 0\.4"):
        flow.apply(t, s, np.ones((4, d)))
    with pytest.raises(PreconditionError, match=r"s = 0\.6, t = 0\.5"):
        flow.apply(0.5, np.array([0.1, 0.6]), np.ones((2, d)))


def test_state_inputs_must_match_the_grid(oracle_model, binary_frag):
    tg = TimeGrid(0.0, 0.5, 0.25)
    entries = [
        (oracle_model.grid, lambda u: iterate_right(oracle_model, tg, u, 2)),
        (binary_frag.grid, lambda u: mol_reference(binary_frag, tg, u)),
    ]
    for grid, run in entries:
        run(np.ones(grid.size))
        with pytest.raises(StructureError, match="coefficients"):
            run(np.ones(grid.size + 1))
        with pytest.raises(StructureError, match="one-dimensional"):
            run(np.ones((2, grid.size)))
