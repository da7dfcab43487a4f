"""Trajectory-space lift: resolvents, discounted kicks, transform identities."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from evofam import (
    CollisionKernel,
    EvaluationError,
    LiftedVector,
    PreconditionError,
    SizeCapError,
    StructureError,
    TimeGrid,
    abstract_grid,
    collision_model,
    collision_perturbed_model,
    duhamel_residual,
    gaussian_kernel_matrix,
    iterate_right,
    kick_block_norm,
    laplace_transform_check,
    lifted_norm,
    resolvent_factorization_check,
    resolvent_series_check,
    uniform_velocity_grid,
)
from evofam import evolution, lifted
from evofam.coefficients import SeparableCoefficient, TimeProfile
from evofam.evolution import _trapezoid_weights, loss_gain_model
from evofam.lifted import HORIZON_TAIL_LIMIT, _laplace_rows, _Resolvent

U0 = np.array([1.0, 0.5])


def make_history(axis: TimeGrid) -> LiftedVector:
    grid = abstract_grid([1.0, 1.0])
    values = np.outer(np.exp(-axis.nodes), U0)
    return LiftedVector(grid=grid, axis=axis, values=values)


def resolvent(model, lam, f, perturbed=False) -> np.ndarray:
    """The free or perturbed resolvent of f's history, from a fresh
    ``_Resolvent``: the free one is term 0 of its series."""
    op = _Resolvent(model, lam, f)
    return op.perturbed(f.values)[0] if perturbed else next(op.series(f.values))


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

def test_lifted_vector_validation():
    grid = abstract_grid([1.0, 1.0])
    with pytest.raises(StructureError, match="must start at 0"):
        LiftedVector(grid=grid, axis=TimeGrid(0.5, 1.5, 0.25), values=np.zeros((5, 2)))
    with pytest.raises(StructureError, match="shape"):
        LiftedVector(grid=grid, axis=TimeGrid(0.0, 1.0, 0.25), values=np.zeros((5, 3)))


def test_lifted_vector_freezes_a_copy():
    values = np.zeros((3, 2))
    f = LiftedVector(grid=abstract_grid([1.0, 1.0]), axis=TimeGrid(0.0, 1.0, 0.5),
                     values=values)
    values[0, 0] = 4.0
    assert f.norm() == 0.0
    assert not f.values.flags.writeable


def test_lifted_norm_hand_value():
    grid = abstract_grid([1.0, 2.0])
    axis = TimeGrid(0.0, 1.0, 0.5)
    f = LiftedVector(grid=grid, axis=axis,
                     values=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    # h * sum of weighted node norms = 0.5 * (1 + 2 + 3)
    assert f.norm() == pytest.approx(3.0)
    assert lifted_norm(f) == pytest.approx(3.0)
    zero = LiftedVector(grid=grid, axis=axis, values=np.zeros((3, 2)))
    assert zero.norm() == 0.0
    assert zero.h == 0.5


# ---------------------------------------------------------------------------
# discounted kick and resolvents
# ---------------------------------------------------------------------------

def stiff_exchange(rate):
    """Two nodes losing at (1 + t/2) rate (0.5, 1.5), each gaining what the
    other loses."""
    profile = TimeProfile(kind="affine", c0=1.0, c1=0.5)
    a = rate * np.array([0.5, 1.5])
    return loss_gain_model("stiff", abstract_grid([1.0, 1.0]), SeparableCoefficient(profile, a),
                           profile, np.array([[0.0, 1.0], [1.0, 0.0]]), a)


def test_laplace_kick_matches_explicit_quadrature(oracle_model):
    # the oracle's flow is one chunk; at rate 4000 every discounted step
    # is below the floor and plain, and at rate 200 a chunk of three steps
    # restarts by decay, so the framed kicks take both chunk-head branches
    axis = TimeGrid(0.0, 1.0, 0.25)
    f = make_history(axis)
    lam = 2.0
    chunks = []
    for model in (oracle_model, stiff_exchange(4000.0), stiff_exchange(200.0)):
        steps = evolution._step_factors(model, axis.nodes) * math.exp(-lam * axis.dt)
        chunks.append([(s, e, factor is not None)
                       for s, e, factor in evolution._Flow(steps).chunks])
        out = _Resolvent(model, lam, f).kick(f.values)
        ref = np.zeros_like(out)
        for k in range(axis.n_steps + 1):
            w = _trapezoid_weights(k, axis.dt)
            acc = np.zeros(2)
            for i in range(k + 1):
                gap = axis.nodes[k] - axis.nodes[i]
                acc += w[i] * math.exp(-lam * gap) * model.unperturbed.apply(
                    axis.nodes[k], axis.nodes[i], f.values[i])
            ref[k] = model.perturbation.apply(axis.nodes[k], acc)
        np.testing.assert_allclose(out, ref, rtol=0.0,
                                   atol=1e-15 * max(1.0, float(np.abs(ref).max())))
    assert chunks == [[(0, 4, False)], [(j, j + 1, True) for j in range(4)],
                      [(0, 3, False), (3, 4, False)]]
    with pytest.raises(PreconditionError, match="lam must be positive"):
        _Resolvent(oracle_model, 0.0, f)


def test_resolvent_free_geometric_decay(oracle_model):
    axis = TimeGrid(0.0, 2.0, 0.125)
    grid = abstract_grid([1.0, 1.0])
    pulse = np.zeros((axis.n_steps + 1, 2))
    pulse[0] = U0
    f = LiftedVector(grid=grid, axis=axis, values=pulse)
    lam = 1.5
    out = resolvent(oracle_model, lam, f)
    h = axis.dt
    base = U0 / (lam + 1.0 / h + 1.0)
    ratio = 1.0 / (1.0 + h * (lam + 1.0))
    for k in range(axis.n_steps + 1):
        np.testing.assert_allclose(out[k], base * ratio ** k, rtol=1e-13)


def lifted_generator_matrix(model, axis, perturbed):
    """Dense generator over the (time-node, grid-node) index set, unknown
    k * d + i for axis node k and grid node i: -d/dt by the upwind
    difference with zero inflow at time 0, minus the loss rate, plus B(t)
    when ``perturbed``."""
    nodes, h, d = axis.nodes, axis.dt, model.grid.size
    rates = model.loss_rate(nodes)
    mat = np.zeros((nodes.size * d, nodes.size * d))
    for k, tau in enumerate(nodes):
        block = -np.diag(1.0 / h + rates[k])
        if perturbed:
            block = block + evolution._dense(model.perturbation.apply, d, tau)
        mat[k * d:(k + 1) * d, k * d:(k + 1) * d] = block
        if k > 0:
            mat[k * d:(k + 1) * d, (k - 1) * d:k * d] = np.eye(d) / h
    return mat


def test_resolvents_match_dense_generator(oracle_model):
    axis = TimeGrid(0.0, 1.5, 0.25)
    grid = abstract_grid([1.0, 1.0])
    rng = np.random.default_rng(17)
    f = LiftedVector(grid=grid, axis=axis,
                     values=rng.uniform(0.0, 1.0, (axis.n_steps + 1, 2)))
    lam = 1.2
    size = (axis.n_steps + 1) * 2
    for perturbed in (False, True):
        gen = lifted_generator_matrix(oracle_model, axis, perturbed)
        dense = np.linalg.solve(lam * np.eye(size) - gen, f.values.ravel())
        sweep = resolvent(oracle_model, lam, f, perturbed=perturbed)
        np.testing.assert_allclose(sweep.ravel(), dense, rtol=1e-12)
        # nonnegative data in, nonnegative solution out (M-matrix blocks)
        assert np.all(sweep >= 0.0)
    with pytest.raises(PreconditionError, match="lam must be positive"):
        _Resolvent(oracle_model, -1.0, f)


def per_node_solve_sweep(model, lam, f, perturbed):
    """Forward substitution with one np.linalg.solve per axis node."""
    nodes, h = f.axis.nodes, f.axis.dt
    rates = model.loss_rate(nodes)
    out = np.zeros_like(f.values)
    prev = np.zeros(f.grid.size)
    for k, tau in enumerate(nodes):
        block = np.diag(lam + 1.0 / h + rates[k])
        if perturbed:
            block = block - evolution._dense(model.perturbation.apply, f.grid.size, tau)
        out[k] = prev = np.linalg.solve(block, f.values[k] + prev / h)
    return out


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("fixture", ["oracle_model", "timedep_collision_perturbed"])
def test_resolvent_sweeps_match_per_node_solves(fixture, perturbed, request):
    model = request.getfixturevalue(fixture)
    # 96 steps, inside the collision model's validated span [0, 1]
    axis = TimeGrid(0.0, 1.0, 1.0 / 96.0)
    rng = np.random.default_rng(23)
    f = LiftedVector(grid=model.grid, axis=axis,
                     values=rng.uniform(0.0, 1.0, (axis.n_steps + 1, model.grid.size)))
    sweep = resolvent(model, 1.2, f, perturbed=perturbed)
    np.testing.assert_allclose(sweep, per_node_solve_sweep(model, 1.2, f, perturbed),
                               rtol=1e-13, atol=0.0)


def test_resolvent_refuses_a_nonpositive_diagonal():
    # a negative loss rate, which a direct loss_gain_model caller can
    # pass, leaves lam + 1/h + rate = 1 + 2 - 9 < 0; a nan rate after
    # t = 0.5 is not positive either
    unit = TimeProfile(kind="constant", c0=1.0)
    nan_late = TimeProfile(kind="pwlinear", times=np.array([0.0, 0.5, 2.0]),
                           values=np.array([1.0, 1.0, np.nan]))
    grid = abstract_grid([1.0, 1.0])
    f = LiftedVector(grid=grid, axis=TimeGrid(0.0, 1.0, 0.5), values=np.zeros((3, 2)))
    for profile, a in ((unit, -9.0), (nan_late, 1.0)):
        model = loss_gain_model("bad_loss", grid, SeparableCoefficient(profile, np.full(2, a)),
                                unit, np.zeros((2, 2)), np.ones(2))
        with pytest.raises(PreconditionError, match="diagonal must be positive"):
            resolvent(model, 1.0, f)


def test_kick_block_norm_on_exchange(oracle_model):
    axis = TimeGrid(0.0, 1.0, 0.5)
    assert kick_block_norm(oracle_model, axis) == 1.0


def test_kick_blocks_memory_cap(oracle_model, monkeypatch):
    # 9 axis nodes of 2 x 2 blocks need 288 bytes
    monkeypatch.setattr(evolution, "_TABLE_MEMORY_CAP_BYTES", 287)
    axis = TimeGrid(0.0, 1.0, 0.125)
    with pytest.raises(SizeCapError, match="kick block"):
        kick_block_norm(oracle_model, axis)
    with pytest.raises(SizeCapError, match="kick block"):
        resolvent(oracle_model, 1.0, make_history(axis), perturbed=True)


def test_lifted_layer_names_where_b_turns_non_finite(oracle_model):
    apply = oracle_model.perturbation.apply

    def nan_past_half(t, u):
        # at grid node 1 only, so that a kick block is non-finite in row 1
        return np.where((np.asarray(t) > 0.5)[..., None] & (np.arange(2) == 1), np.nan,
                        apply(t, u))

    model = dataclasses.replace(oracle_model, perturbation=dataclasses.replace(
        oracle_model.perturbation, apply=nan_past_half))
    axis = TimeGrid(0.0, 3.0, 1.0 / 16.0)
    f = make_history(axis)
    # every B call the lifted layer makes is checked as the engine checks its
    # B rows, and the first bad node (axis node 9) is named with what was
    # kicked; the Laplace check's engine pass fails before its series terms
    for call, kicked in (
            (lambda: _Resolvent(model, 8.0, f).kick(f.values), r"the discounted history"),
            (lambda: next(itertools.islice(_Resolvent(model, 8.0, f).series(f.values), 1,
                                           None)),
             r"resolvent series term 0"),
            (lambda: resolvent_factorization_check(model, 8.0, f), r"the discounted history"),
            (lambda: laplace_transform_check(model, 8.0, 2, f), r"iterate 0"),
            (lambda: duhamel_residual(model, axis, U0, f.values), r"the family values")):
        with pytest.raises(EvaluationError, match=rf"at {kicked}, tau = 0\.5625"):
            call()
    # a kick block names its first non-finite entry: B(tau) e_0 at grid
    # node 1, carried as the failure's node
    for call in (lambda: kick_block_norm(model, axis),
                 lambda: resolvent(model, 8.0, f, perturbed=True),
                 lambda: resolvent_series_check(model, 8.0, f, 2)):
        with pytest.raises(EvaluationError,
                           match=r"axis node 9, tau = 0\.5625, grid row 1, column 0$") as err:
            call()
        assert err.value.node == 1


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def test_factorization_residual_first_order(oracle_model):
    rows = []
    for h in (1.0 / 32.0, 1.0 / 64.0):
        f = make_history(TimeGrid(0.0, 1.0, h))
        rows.append(resolvent_factorization_check(oracle_model, 2.0, f))
    scale = make_history(TimeGrid(0.0, 1.0, 1.0 / 32.0)).norm()
    assert rows[0].check_name == "resolvent_factorization"
    assert rows[0].truncation_bound == 0.0
    assert rows[0].residual < 0.01 * scale
    assert 0.3 < rows[1].residual / rows[0].residual < 0.75


def test_factorization_check_inverts_the_kick_blocks_once(oracle_model, monkeypatch):
    # both perturbed solves share one block inverse, and the residual is
    # bitwise the one the three separate resolvents give
    f = make_history(TimeGrid(0.0, 1.0, 1.0 / 32.0))
    kicked = LiftedVector(grid=f.grid, axis=f.axis,
                          values=_Resolvent(oracle_model, 2.0, f).kick(f.values))
    separate = LiftedVector(grid=f.grid, axis=f.axis, values=(
        resolvent(oracle_model, 2.0, kicked, perturbed=True)
        - resolvent(oracle_model, 2.0, f, perturbed=True)
        + resolvent(oracle_model, 2.0, f))).norm()
    calls = []
    gain_blocks = lifted._gain_blocks
    monkeypatch.setattr(lifted, "_gain_blocks",
                        lambda *args: calls.append(args) or gain_blocks(*args))
    row = resolvent_factorization_check(oracle_model, 2.0, f)
    assert len(calls) == 1
    assert row.residual == separate


def test_series_expansion_geometric(oracle_model):
    f = make_history(TimeGrid(0.0, 1.0, 1.0 / 32.0))
    lam = 4.0 * kick_block_norm(oracle_model, f.axis)
    residuals = resolvent_series_check(oracle_model, lam, f, 6)
    assert residuals.shape == (7,)
    ratios = residuals[1:] / residuals[:-1]
    assert np.all(ratios <= 0.3)
    assert residuals[-1] < 1e-5 * residuals[0]
    with pytest.raises(PreconditionError):
        resolvent_series_check(oracle_model, lam, f, -1)


def test_series_expansion_warns_outside_convergence(oracle_model):
    f = make_history(TimeGrid(0.0, 0.5, 0.25))
    with pytest.warns(UserWarning, match="no convergence claim"):
        resolvent_series_check(oracle_model, 0.5, f, 1)


def test_laplace_transform_check_levels(oracle_model):
    lam = 8.0
    axis = TimeGrid(0.0, 3.0, 1.0 / 32.0)
    f = make_history(axis)
    scale = f.norm()
    for n in (0, 1, 2):
        row = laplace_transform_check(oracle_model, lam, n, f)
        assert row.check_name == "laplace_transform"
        assert row.n == n and row.lam == lam
        assert row.residual < 0.01 * scale
        assert row.truncation_bound == pytest.approx(
            math.exp(-lam * 3.0) / lam * scale)
        assert row.truncation_bound < 1e-10 * scale


def _laplace_residual_per_start(model, lam, n, f):
    """Reference Laplace residual: one iterate_right run per start node.

    Axis node k collects w_{k-i} exp(-lam (tau_k - tau_i)) (row n from
    tau_i to tau_k) f(tau_i) over start nodes i <= k, with the trapezoid
    weights w of the whole axis.
    """
    axis = f.axis
    nodes = axis.nodes
    m = axis.n_steps
    discount = _trapezoid_weights(m, axis.dt) * np.exp(-lam * nodes)
    lhs = np.zeros_like(f.values)
    for i in range(m + 1):
        sub = TimeGrid(nodes[i], nodes[-1], axis.dt)
        row = iterate_right(model, sub, f.values[i], n).iterates[n]
        lhs[i:] += discount[:m - i + 1, None] * row
    rhs = resolvent(model, lam, f)
    for _ in range(n):
        kicked = LiftedVector(grid=f.grid, axis=axis,
                              values=model.perturbation.apply(nodes, rhs))
        rhs = resolvent(model, lam, kicked)
    return LiftedVector(grid=f.grid, axis=axis, values=lhs - rhs).norm()


def _time_scaled_collision():
    """Loss 1 + t and gain profile 1 + t/2 on 6 velocity nodes."""
    grid = uniform_velocity_grid(-1.0, 1.0, 6)
    kernel = CollisionKernel(profile=TimeProfile(kind="affine", c0=1.0, c1=0.5),
                             matrix=gaussian_kernel_matrix(grid, amplitude=0.5, width=0.5))
    frequency = SeparableCoefficient(profile=TimeProfile(kind="affine", c0=1.0, c1=1.0),
                                     space=np.ones(grid.size))
    return collision_perturbed_model(collision_model(grid, frequency, kernel))


def _histories(grid, axis):
    """Nonnegative lifted histories: zero at t = 0, and nonzero there."""
    d = grid.size
    shape = 0.5 + np.arange(d) / d
    t = axis.nodes[:, None]
    return {
        "zero_start": t * np.exp(-t) * shape,
        "nonzero_start": np.exp(-t) * shape[::-1],
    }


@pytest.mark.parametrize("which", ["oracle", "time_scaled_collision"])
def test_laplace_check_matches_per_start_runs(which, oracle_model):
    model = oracle_model if which == "oracle" else _time_scaled_collision()
    lam = 32.0
    axis = TimeGrid(0.0, 0.75, 1.0 / 32.0)
    for name, values in _histories(model.grid, axis).items():
        f = LiftedVector(grid=model.grid, axis=axis, values=values)
        suite = _laplace_rows(model, lam, f, 3)
        for n in range(4):
            expected = _laplace_residual_per_start(model, lam, n, f)
            assert suite[n].n == n
            assert suite[n].residual == pytest.approx(expected, rel=1e-12, abs=0.0), (name, n)
            # a suite cut at n is bitwise the first n + 1 rows of the suite to 3
            assert _laplace_rows(model, lam, f, n) == suite[:n + 1], (name, n)
            assert laplace_transform_check(model, lam, n, f) == suite[n], (name, n)


def test_laplace_check_engine_runs_do_not_grow_with_axis(oracle_model, monkeypatch):
    runs = []
    right_rows = evolution._right_rows

    def counted(*args, **kwargs):
        runs.append(args[1].n_steps)
        return right_rows(*args, **kwargs)

    # iterate_right reads the engine's name, the Laplace check its own import
    monkeypatch.setattr(evolution, "_right_rows", counted)
    monkeypatch.setattr(lifted, "_right_rows", counted)
    for t_max in (3.0, 6.0):
        axis = TimeGrid(0.0, t_max, 1.0 / 32.0)
        zero_start = LiftedVector(grid=oracle_model.grid, axis=axis,
                                  values=np.outer(axis.nodes * np.exp(-axis.nodes), U0))
        for f, expected in ((zero_start, 1), (make_history(axis), 2)):
            for n in (0, 3):
                runs.clear()
                laplace_transform_check(oracle_model, 8.0, n, f)
                # every run spans the whole axis: one O(n M) pass each
                assert runs == [axis.n_steps] * expected


def test_laplace_check_needs_trapezoid_axis(oracle_model):
    f = make_history(TimeGrid(0.0, 4.0, 0.25, rule="midpoint"))
    with pytest.raises(PreconditionError, match="trapezoid.*'midpoint'"):
        laplace_transform_check(oracle_model, 8.0, 1, f)
    # so is the discounted kick, a trapezoid quadrature: run on a midpoint
    # axis it silently gave the residual of the trapezoid axis
    for call in (lambda: _Resolvent(oracle_model, 2.0, f).kick(f.values),
                 lambda: resolvent_factorization_check(oracle_model, 2.0, f)):
        with pytest.raises(PreconditionError,
                           match="discounted kick needs an axis rule whose weights nest"):
            call()
    # the resolvents take no quadrature and run on either rule
    resolvent(oracle_model, 2.0, f, perturbed=True)
    resolvent_series_check(oracle_model, 8.0, f, 2)


def test_laplace_transform_check_horizon_gate(oracle_model):
    f = make_history(TimeGrid(0.0, 1.0, 0.25))
    with pytest.raises(PreconditionError, match="need T_max >="):
        laplace_transform_check(oracle_model, 8.0, 0, f)
    with pytest.raises(PreconditionError):
        laplace_transform_check(oracle_model, -2.0, 0, f)
    long_axis = make_history(TimeGrid(0.0, 4.0, 0.25))
    with pytest.raises(PreconditionError):
        laplace_transform_check(oracle_model, 8.0, -1, long_axis)


def test_required_horizon_inverts_tail(oracle_model):
    # the horizon a too-short axis is told to reach is where the Laplace
    # tail weight exp(-lam T_max) drops to the tail limit
    short = make_history(TimeGrid(0.0, 1.0, 0.25))
    for lam in (8.0, 2.0):
        with pytest.raises(PreconditionError, match=r"need T_max >= [0-9.]+$") as err:
            laplace_transform_check(oracle_model, lam, 0, short)
        horizon = float(str(err.value).rsplit(" ", 1)[1])
        assert horizon == pytest.approx(math.log(1.0 / HORIZON_TAIL_LIMIT) / lam, abs=5e-4)


def test_laplace_check_refuses_a_signed_history(oracle_model):
    # the check's engine pass runs on h f at every axis node: a negative
    # entry is refused at its tau and grid node before any row is made
    axis = TimeGrid(0.0, 3.0, 1.0 / 32.0)
    values = np.outer(np.exp(-axis.nodes), U0)
    values[5, 1] = -1e-3
    f = LiftedVector(grid=oracle_model.grid, axis=axis, values=values)
    with pytest.raises(PreconditionError,
                       match=r"negative at tau = 0\.15625, grid node 1$"):
        laplace_transform_check(oracle_model, 8.0, 1, f)

