"""Trajectory-space lift: shift actions, resolvents, transform identities."""
from __future__ import annotations

import math

import numpy as np
import pytest

from evofam import (
    CheckRow,
    CollisionKernel,
    EvolutionFamily,
    LiftedVector,
    PerturbationFamily,
    PerturbedModel,
    PreconditionError,
    SizeCapError,
    StructureError,
    TimeGrid,
    abstract_grid,
    apply_lifted_free,
    collision_model,
    collision_perturbed_model,
    gaussian_kernel_matrix,
    iterate_right,
    kick_block_norm,
    laplace_kick,
    laplace_transform_check,
    lifted_generator_matrix,
    lifted_norm,
    lifted_resolvent,
    lifted_zero,
    required_horizon,
    resolvent_factorization_check,
    resolvent_series_check,
    uniform_velocity_grid,
    write_check_suite_csv,
)
from evofam import evolution
from evofam.coefficients import SeparableCoefficient, TimeProfile
from evofam.evolution import prefix_weights
from evofam.lifted import HORIZON_TAIL_LIMIT

U0 = np.array([1.0, 0.5])


def make_history(axis: TimeGrid) -> LiftedVector:
    grid = abstract_grid([1.0, 1.0])
    values = np.outer(np.exp(-axis.nodes), U0)
    return LiftedVector(grid=grid, axis=axis, values=values)


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

def test_lifted_vector_validation():
    grid = abstract_grid([1.0, 1.0])
    with pytest.raises(StructureError, match="must start at 0"):
        LiftedVector(grid=grid, axis=TimeGrid(0.5, 1.5, 0.25), values=np.zeros((5, 2)))
    with pytest.raises(StructureError, match="shape"):
        LiftedVector(grid=grid, axis=TimeGrid(0.0, 1.0, 0.25), values=np.zeros((5, 3)))


def test_lifted_norm_hand_value():
    grid = abstract_grid([1.0, 2.0])
    axis = TimeGrid(0.0, 1.0, 0.5)
    f = LiftedVector(grid=grid, axis=axis,
                     values=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    # h * sum of weighted node norms = 0.5 * (1 + 2 + 3)
    assert f.norm() == pytest.approx(3.0)
    assert lifted_norm(f) == pytest.approx(3.0)
    zero = lifted_zero(grid, axis)
    assert zero.norm() == 0.0
    assert zero.h == 0.5


# ---------------------------------------------------------------------------
# shift actions
# ---------------------------------------------------------------------------

def test_free_action_identity_and_wavefront(oracle_model):
    axis = TimeGrid(0.0, 1.0, 0.125)
    f = make_history(axis)
    same = apply_lifted_free(oracle_model, 0.0, f)
    np.testing.assert_array_equal(same.values, f.values)

    t = 0.375  # three lattice steps
    out = apply_lifted_free(oracle_model, t, f)
    assert np.all(out.values[:3] == 0.0)
    # exchange oracle: U(t, s) = exp(-(t-s)) identity
    np.testing.assert_allclose(out.values[3:], math.exp(-t) * f.values[:-3],
                               rtol=1e-14)
    with pytest.raises(PreconditionError):
        apply_lifted_free(oracle_model, -0.1, f)
    with pytest.raises(PreconditionError):
        apply_lifted_free(oracle_model, 0.2, f)  # off-lattice shift
    other = LiftedVector(grid=abstract_grid([1.0, 1.0, 1.0]), axis=axis,
                         values=np.zeros((9, 3)))
    with pytest.raises(StructureError):
        apply_lifted_free(oracle_model, 0.0, other)


# ---------------------------------------------------------------------------
# discounted kick and resolvents
# ---------------------------------------------------------------------------

def test_laplace_kick_matches_explicit_quadrature(oracle_model):
    axis = TimeGrid(0.0, 1.0, 0.25)
    f = make_history(axis)
    lam = 2.0
    out = laplace_kick(oracle_model, lam, f)
    for k in range(axis.n_steps + 1):
        w = prefix_weights("trapezoid", k, axis.dt)
        acc = np.zeros(2)
        for i in range(k + 1):
            gap = axis.nodes[k] - axis.nodes[i]
            acc += w[i] * math.exp(-lam * gap) * (math.exp(-gap) * f.values[i])
        np.testing.assert_allclose(out.values[k], acc[::-1], atol=1e-15)
    with pytest.raises(PreconditionError):
        laplace_kick(oracle_model, 0.0, f)


def test_resolvent_free_geometric_decay(oracle_model):
    axis = TimeGrid(0.0, 2.0, 0.125)
    grid = abstract_grid([1.0, 1.0])
    pulse = np.zeros((axis.n_steps + 1, 2))
    pulse[0] = U0
    f = LiftedVector(grid=grid, axis=axis, values=pulse)
    lam = 1.5
    out = lifted_resolvent(oracle_model, lam, f)
    h = axis.dt
    base = U0 / (lam + 1.0 / h + 1.0)
    ratio = 1.0 / (1.0 + h * (lam + 1.0))
    for k in range(axis.n_steps + 1):
        np.testing.assert_allclose(out.values[k], base * ratio ** k, rtol=1e-13)


def test_resolvents_match_dense_generator(oracle_model):
    axis = TimeGrid(0.0, 1.5, 0.25)
    grid = abstract_grid([1.0, 1.0])
    rng = np.random.default_rng(17)
    f = LiftedVector(grid=grid, axis=axis,
                     values=rng.uniform(0.0, 1.0, (axis.n_steps + 1, 2)))
    lam = 1.2
    size = (axis.n_steps + 1) * 2
    for perturbed in (False, True):
        gen = lifted_generator_matrix(oracle_model, axis, perturbed=perturbed)
        dense = np.linalg.solve(lam * np.eye(size) - gen, f.values.ravel())
        sweep = lifted_resolvent(oracle_model, lam, f, perturbed=perturbed)
        np.testing.assert_allclose(sweep.values.ravel(), dense, rtol=1e-12)
        # nonnegative data in, nonnegative solution out (M-matrix blocks)
        assert np.all(sweep.values >= 0.0)
    with pytest.raises(PreconditionError):
        lifted_resolvent(oracle_model, -1.0, f)


def per_node_solve_sweep(model, lam, f, perturbed):
    """Forward substitution with one np.linalg.solve per axis node."""
    nodes, h = f.axis.nodes, f.axis.dt
    rates = model.loss_rate(nodes)
    out = np.zeros_like(f.values)
    prev = np.zeros(f.grid.size)
    for k, tau in enumerate(nodes):
        block = np.diag(lam + 1.0 / h + rates[k])
        if perturbed:
            block = block - model.perturbation.as_matrix(tau)
        out[k] = prev = np.linalg.solve(block, f.values[k] + prev / h)
    return out


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("fixture", ["oracle_model", "timedep_collision_perturbed"])
def test_resolvent_sweeps_match_per_node_solves(fixture, perturbed, request):
    model = request.getfixturevalue(fixture)
    # 96 steps: the free sweep's carry runs two blocked levels
    axis = TimeGrid(0.0, 1.5, 1.0 / 64.0)
    rng = np.random.default_rng(23)
    f = LiftedVector(grid=model.grid, axis=axis,
                     values=rng.uniform(0.0, 1.0, (axis.n_steps + 1, model.grid.size)))
    sweep = lifted_resolvent(model, 1.2, f, perturbed=perturbed)
    np.testing.assert_allclose(sweep.values, per_node_solve_sweep(model, 1.2, f, perturbed),
                               rtol=1e-13, atol=0.0)


def test_resolvent_needs_loss_rates():
    grid = abstract_grid([1.0, 1.0])
    bare = PerturbedModel(
        name="bare", grid=grid,
        unperturbed=EvolutionFamily(grid=grid, apply=lambda t, s, u: u),
        perturbation=PerturbationFamily(grid=grid, apply=lambda t, u: 0.0 * u),
    )
    axis = TimeGrid(0.0, 1.0, 0.5)
    f = lifted_zero(grid, axis)
    with pytest.raises(PreconditionError, match="loss_rate"):
        lifted_resolvent(bare, 1.0, f)
    # rates are read for all axis nodes in one call: one row per node
    one_time = PerturbedModel(name="one-time", grid=grid, unperturbed=bare.unperturbed,
                              perturbation=bare.perturbation,
                              loss_rate=lambda t: np.ones(2))
    with pytest.raises(PreconditionError, match="one value per grid node"):
        lifted_resolvent(one_time, 1.0, f)
    gaining = PerturbedModel(name="gaining", grid=grid, unperturbed=bare.unperturbed,
                             perturbation=bare.perturbation,
                             loss_rate=lambda t: np.multiply.outer(np.asarray(t) - 9.0,
                                                                   np.ones(2)))
    with pytest.raises(PreconditionError, match="diagonal must be positive"):
        lifted_resolvent(gaining, 1.0, f)


def test_generator_is_m_matrix(oracle_model):
    axis = TimeGrid(0.0, 1.0, 0.25)
    lam = 0.7
    gen = lifted_generator_matrix(oracle_model, axis, perturbed=True)
    a_matrix = lam * np.eye(gen.shape[0]) - gen
    diag = np.diag(a_matrix)
    off = a_matrix - np.diag(diag)
    assert np.all(diag > 0.0)
    assert np.all(off <= 0.0)


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
        lifted_resolvent(oracle_model, 1.0, make_history(axis), perturbed=True)


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
    discount = prefix_weights("trapezoid", m, axis.dt) * np.exp(-lam * nodes)
    lhs = np.zeros_like(f.values)
    for i in range(m + 1):
        sub = TimeGrid(nodes[i], nodes[-1], axis.dt)
        row = iterate_right(model, sub, f.values[i], n).iterates[n]
        lhs[i:] += discount[:m - i + 1, None] * row
    rhs = lifted_resolvent(model, lam, f)
    for _ in range(n):
        kicked = LiftedVector(grid=f.grid, axis=axis,
                              values=model.perturbation.apply(nodes, rhs.values))
        rhs = lifted_resolvent(model, lam, kicked)
    return LiftedVector(grid=f.grid, axis=axis, values=lhs - rhs.values).norm()


def _time_scaled_collision():
    """Loss 1 + t and gain profile 1 + t/2 on 6 velocity nodes."""
    grid = uniform_velocity_grid(-1.0, 1.0, 6)
    kernel = CollisionKernel(profile=TimeProfile(kind="affine", c0=1.0, c1=0.5),
                             matrix=gaussian_kernel_matrix(grid, amplitude=0.5, width=0.5))
    frequency = SeparableCoefficient(profile=TimeProfile(kind="affine", c0=1.0, c1=1.0),
                                     space=np.ones(grid.size))
    return collision_perturbed_model(collision_model(grid, frequency, kernel))


def _histories(grid, axis):
    """Lifted histories: zero at t = 0, nonzero there, and signed."""
    d = grid.size
    shape = 0.5 + np.arange(d) / d
    t = axis.nodes[:, None]
    return {
        "zero_start": t * np.exp(-t) * shape,
        "nonzero_start": np.exp(-t) * shape[::-1],
        "signed": np.cos(3.0 * t + np.arange(d)) * shape,
    }


@pytest.mark.parametrize("which", ["oracle", "time_scaled_collision"])
def test_laplace_check_matches_per_start_runs(which, oracle_model):
    model = oracle_model if which == "oracle" else _time_scaled_collision()
    lam = 32.0
    axis = TimeGrid(0.0, 0.75, 1.0 / 32.0)
    for name, values in _histories(model.grid, axis).items():
        f = LiftedVector(grid=model.grid, axis=axis, values=values)
        for n in range(4):
            expected = _laplace_residual_per_start(model, lam, n, f)
            got = laplace_transform_check(model, lam, n, f).residual
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (name, n)


def test_laplace_check_engine_runs_do_not_grow_with_axis(oracle_model, monkeypatch):
    runs = []
    right_rows = evolution._right_rows

    def counted(*args, **kwargs):
        runs.append(args[1].n_steps)
        return right_rows(*args, **kwargs)

    monkeypatch.setattr(evolution, "_right_rows", counted)
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


def test_laplace_transform_check_horizon_gate(oracle_model):
    f = make_history(TimeGrid(0.0, 1.0, 0.25))
    with pytest.raises(PreconditionError, match="need T_max >="):
        laplace_transform_check(oracle_model, 8.0, 0, f)
    with pytest.raises(PreconditionError):
        laplace_transform_check(oracle_model, -2.0, 0, f)
    long_axis = make_history(TimeGrid(0.0, 4.0, 0.25))
    with pytest.raises(PreconditionError):
        laplace_transform_check(oracle_model, 8.0, -1, long_axis)


def test_required_horizon_inverts_tail():
    lam = 8.0
    horizon = required_horizon(lam)
    assert math.exp(-lam * horizon) == pytest.approx(HORIZON_TAIL_LIMIT, rel=1e-12)
    assert required_horizon(2.0, 1e-4) == pytest.approx(math.log(1e4) / 2.0)


def test_check_suite_csv_round_trip(tmp_path):
    rows = [
        CheckRow(check_name="resolvent_factorization", h=0.03125, lam=2.0, n=0,
                 residual=3.47e-4, truncation_bound=0.0),
        CheckRow(check_name="laplace_transform", h=0.03125, lam=8.0, n=2,
                 residual=1.25e-4, truncation_bound=4.7e-12),
    ]
    path = tmp_path / "checks.csv"
    write_check_suite_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "check_name,h,lambda,n,residual,truncation_bound"
    fields = lines[2].split(",")
    assert fields[0] == "laplace_transform"
    assert float(fields[1]) == 0.03125
    assert int(fields[3]) == 2
    assert float(fields[4]) == 1.25e-4
