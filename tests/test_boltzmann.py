"""Collision model: contracts, exact loss flow, gain accounting."""
from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evofam import (
    CollisionKernel,
    LiftedVector,
    ModelContractError,
    PreconditionError,
    StructureError,
    TimeGrid,
    TimeProfile,
    collision_model,
    collision_perturbed_model,
    duhamel_residual,
    frequency_matching_kernel,
    gaussian_kernel_matrix,
    iterate_left,
    iterate_right,
    kick_block_norm,
    mass_ledger,
    outflow_kernel_matrix,
    resolvent_factorization_check,
    uniform_kernel_matrix,
    uniform_velocity_grid,
    validation_times,
)
from evofam.boltzmann import SUBCRITICAL_RESCALE_LIMIT
from evofam.coefficients import SeparableCoefficient
from evofam.evolution import _dense
from evofam.lifted import _Resolvent

CONSTANT_ONE = TimeProfile(kind="constant", c0=1.0)


def unit_frequency(grid):
    return SeparableCoefficient(profile=CONSTANT_ONE, space=np.ones(grid.size))


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------

def test_conservative_flag_detected(conservative_collision):
    assert conservative_collision.conservative
    assert conservative_collision.column_rescale is None
    # matching frequency makes the sampled excess exactly zero
    assert conservative_collision.subcritical_excess == 0.0


def test_subcritical_model_records_negative_excess(subcritical_collision):
    assert not subcritical_collision.conservative
    assert subcritical_collision.subcritical_excess < 0.0
    rates = subcritical_collision.grid.weights @ subcritical_collision.kernel_values(0.5)
    freq = np.asarray(subcritical_collision.frequency.value(0.5), dtype=float)
    assert np.all(rates <= freq)


def test_kernel_matrix_shape_and_sign_errors():
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    with pytest.raises(StructureError):
        CollisionKernel(profile=CONSTANT_ONE, matrix=np.ones((4, 3)))
    bad = np.ones((4, 4))
    bad[2, 1] = -0.5
    kernel = CollisionKernel(profile=CONSTANT_ONE, matrix=bad)
    with pytest.raises(ModelContractError, match=r"\(i, j\) = \(2, 1\)"):
        collision_model(grid, unit_frequency(grid), kernel)
    nan = np.ones((4, 4))
    nan[0, 3] = np.nan
    with pytest.raises(ModelContractError, match=r"\(i, j\) = \(0, 3\)"):
        collision_model(grid, unit_frequency(grid),
                        CollisionKernel(profile=CONSTANT_ONE, matrix=nan))
    with pytest.raises(StructureError, match="does not match grid size"):
        collision_model(grid, unit_frequency(grid),
                        CollisionKernel(profile=CONSTANT_ONE, matrix=np.ones((3, 3))))


def test_frequency_sign_error_names_time_and_node():
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    kernel = CollisionKernel(profile=CONSTANT_ONE,
                             matrix=0.01 * uniform_kernel_matrix(grid))
    frequency = SeparableCoefficient(
        profile=TimeProfile(kind="affine", c0=0.5, c1=-1.0),  # negative past t=0.5
        space=np.ones(grid.size))
    with pytest.raises(ModelContractError, match="negative at t"):
        collision_model(grid, frequency, kernel)


def test_power_profile_with_negative_exponent_is_singular_at_zero():
    profile = TimeProfile(kind="power", p=-0.5)
    with pytest.raises(ModelContractError, match="singular at t = 0"):
        profile.value(0.0)
    assert profile.value(0.25) == 2.0
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    kernel = CollisionKernel(profile=CONSTANT_ONE,
                             matrix=0.01 * uniform_kernel_matrix(grid))
    with pytest.raises(ModelContractError, match="singular at t = 0"):
        collision_model(grid, SeparableCoefficient(profile, np.ones(grid.size)), kernel)


ARRAY_PROFILES = (
    TimeProfile(kind="constant", c0=1.5),
    TimeProfile(kind="affine", c0=1.0, c1=-0.75),
    TimeProfile(kind="power", c0=2.0, p=0.5),
    TimeProfile(kind="power", c0=1.0, p=-0.5),
    TimeProfile(kind="pwlinear", times=np.array([0.25, 0.5, 1.5]),
                values=np.array([1.0, 3.0, 0.5])),
)


@given(profile=st.sampled_from(ARRAY_PROFILES),
       times=st.lists(st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 0.25, 0.5, 1.5])),
                      min_size=1, max_size=12))
def test_profile_arrays_match_scalar_evaluation(profile, times):
    # pwlinear samples fall below, between and above its knots
    arr = np.array(times).reshape(-1, 1)
    np.testing.assert_array_equal(profile.antiderivative(arr)[:, 0],
                                  [profile.antiderivative(t) for t in times])
    if profile.kind == "power" and profile.p < 0.0 and 0.0 in times:
        with pytest.raises(ModelContractError, match="singular at t = 0"):
            profile.value(arr)
        return
    values = profile.value(arr)
    assert values.shape == arr.shape
    np.testing.assert_array_equal(values[:, 0], [profile.value(t) for t in times])


def test_power_profile_arrays_raise_below_zero():
    profile = TimeProfile(kind="power", p=0.5)
    with pytest.raises(ModelContractError, match=r"t < 0 \(t = -0.25\)"):
        profile.value(np.array([0.5, -0.25, 1.0]))
    with pytest.raises(ModelContractError, match="below t = 0"):
        profile.antiderivative(np.array([0.5, -0.25]))


def test_strict_mode_rescales_quadrature_level_excess():
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    kernel = CollisionKernel(profile=CONSTANT_ONE, matrix=uniform_kernel_matrix(grid))
    matched = frequency_matching_kernel(grid, kernel)
    # shave a hair off the frequency: relative excess ~5e-7, repairable
    shaved = SeparableCoefficient(profile=matched.profile,
                                  space=matched.space * (1.0 - 5e-7))
    model = collision_model(grid, shaved, kernel)
    assert model.column_rescale is not None
    assert np.all(model.column_rescale <= 1.0)
    for t in (0.0, 0.5, 1.0):
        rates = model.grid.weights @ model.kernel_values(t)
        freq = np.asarray(model.frequency.value(t), dtype=float)
        assert np.all(rates <= freq * (1.0 + 1e-12))


def test_strict_mode_refuses_genuine_violation():
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    kernel = CollisionKernel(profile=CONSTANT_ONE, matrix=uniform_kernel_matrix(grid))
    weak = SeparableCoefficient(profile=CONSTANT_ONE,
                                space=0.5 * np.ones(grid.size))
    with pytest.raises(ModelContractError, match=r"refusing to rescale") as err:
        collision_model(grid, weak, kernel)
    assert "(t, v)" in str(err.value)
    assert f"{SUBCRITICAL_RESCALE_LIMIT:.0e}" in str(err.value)


def test_lenient_mode_only_records_excess():
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    kernel = CollisionKernel(profile=CONSTANT_ONE, matrix=uniform_kernel_matrix(grid))
    weak = SeparableCoefficient(profile=CONSTANT_ONE, space=0.5 * np.ones(grid.size))
    model = collision_model(grid, weak, kernel, strict=False)
    assert model.column_rescale is None
    assert model.subcritical_excess > 0.0
    assert not model.conservative


def rising_gain_collision():
    """(grid, kernel, frequency, model) of a collision model validated on
    [0, 1]: the kernel's time profile stays 1 up to t = 1, then rises to 3,
    so the gain mass rate exceeds the frequency only after the default
    samples."""
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    rising = TimeProfile(kind="pwlinear", times=np.array([0.0, 1.0, 2.0]),
                         values=np.array([1.0, 1.0, 3.0]))
    kernel = CollisionKernel(profile=rising, matrix=uniform_kernel_matrix(grid))
    frequency = SeparableCoefficient(profile=CONSTANT_ONE,
                                     space=grid.weights @ kernel.matrix)
    return grid, kernel, frequency, collision_model(grid, frequency, kernel)


def test_engine_refuses_a_lattice_past_the_validated_span():
    grid, kernel, frequency, model = rising_gain_collision()
    perturbed = collision_perturbed_model(model)
    u0 = np.ones(grid.size)
    iterate_right(perturbed, TimeGrid(0.0, 1.0, 0.125), u0, 2)
    with pytest.raises(PreconditionError,
                       match=r"lattice \[0.0, 2.0\] leaves the span \[0.0, 1.0\]"):
        iterate_right(perturbed, TimeGrid(0.0, 2.0, 0.125), u0, 2)
    # the residual's fine pass is refused too, before U or B is evaluated
    for t_end in (2.0, 3.0):
        with pytest.raises(PreconditionError,
                           match=rf"lattice \[0.0, {t_end}\] leaves the span \[0.0, 1.0\]"):
            duhamel_residual(perturbed, TimeGrid(0.0, t_end, 0.125), u0)
    assert model.validated_span == perturbed.validated_span == (0.0, 1.0)
    # samples over the lattice find the violation the engine refused to run
    with pytest.raises(ModelContractError, match="refusing to rescale"):
        collision_model(grid, frequency, kernel,
                        time_samples=validation_times(TimeGrid(0.0, 2.0, 0.125)))


def test_left_recursion_refuses_a_lattice_past_the_validated_span():
    # run anyway, the left recursion's t_end iterates on [0, 2] sum to weighted
    # mass 2.19 from u0 of mass 2
    grid, _kernel, _frequency, model = rising_gain_collision()
    perturbed = collision_perturbed_model(model)
    u0 = np.ones(grid.size)
    iterate_left(perturbed, TimeGrid(0.0, 1.0, 0.25), u0, 3)
    with pytest.raises(PreconditionError,
                       match=r"lattice \[0.0, 2.0\] leaves the span \[0.0, 1.0\]"):
        iterate_left(perturbed, TimeGrid(0.0, 2.0, 0.25), u0, 3)


def test_lifted_checks_refuse_an_axis_past_the_validated_span():
    # run anyway, the factorization check on [0, 3] reads residual 60.2
    grid, _kernel, _frequency, model = rising_gain_collision()
    perturbed = collision_perturbed_model(model)

    def lifted(t_end):
        axis = TimeGrid(0.0, t_end, 0.25)
        values = (axis.nodes * np.exp(-axis.nodes))[:, None] * np.ones(grid.size)
        return LiftedVector(grid=grid, axis=axis, values=values)

    inside, past = lifted(1.0), lifted(3.0)
    resolvent_factorization_check(perturbed, 1.0, inside)
    calls = [
        lambda f: resolvent_factorization_check(perturbed, 1.0, f),
        lambda f: _Resolvent(perturbed, 1.0, f).kick(f.values),
        lambda f: next(_Resolvent(perturbed, 1.0, f).series(f.values)),
        lambda f: _Resolvent(perturbed, 1.0, f).perturbed(f.values),
        lambda f: kick_block_norm(perturbed, f.axis),
    ]
    for call in calls:
        call(inside)
        with pytest.raises(PreconditionError,
                           match=r"axis \[0.0, 3.0\] leaves the span \[0.0, 1.0\]"):
            call(past)


def test_validation_times_interleaves_midpoints():
    tg = TimeGrid(0.0, 1.0, 0.25)
    times = validation_times(tg)
    np.testing.assert_allclose(
        times, [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])
    degenerate = TimeGrid(1.0, 1.0, 0.25)
    np.testing.assert_allclose(validation_times(degenerate), [1.0])


# ---------------------------------------------------------------------------
# loss flow and gain operator
# ---------------------------------------------------------------------------

def test_loss_flow_composes_exactly(timedep_collision_perturbed):
    flow = timedep_collision_perturbed.unperturbed
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.1, 1.0, timedep_collision_perturbed.grid.size)
    one_hop = flow.apply(0.9, 0.0, phi)
    two_hop = flow.apply(0.9, 0.4, flow.apply(0.4, 0.0, phi))
    np.testing.assert_allclose(two_hop, one_hop, rtol=1e-14)
    # identity at coincident times, strict contraction on positive states
    np.testing.assert_array_equal(flow.apply(0.3, 0.3, phi), phi)
    w = timedep_collision_perturbed.grid.weights
    assert w @ one_hop < w @ phi


def test_loss_flow_matches_exact_integral(timedep_collision_perturbed):
    # frequency 1 + t integrates to t + t^2/2 in closed form
    phi = np.ones(timedep_collision_perturbed.grid.size)
    out = timedep_collision_perturbed.unperturbed.apply(0.8, 0.2, phi)
    elapsed = (0.8 + 0.8 ** 2 / 2.0) - (0.2 + 0.2 ** 2 / 2.0)
    np.testing.assert_allclose(out, np.exp(-elapsed) * phi, rtol=1e-14)


def test_gain_is_weighted_matrix_product(subcritical_collision,
                                         subcritical_collision_perturbed):
    grid = subcritical_collision.grid
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 1.0, grid.size)
    out = subcritical_collision_perturbed.perturbation.apply(0.7, phi)
    kern = subcritical_collision.kernel_values(0.7)
    np.testing.assert_allclose(out, kern @ (grid.weights * phi), rtol=1e-14)


def test_gain_mass_rate_matches_column_sums(conservative_collision):
    rates = conservative_collision.grid.weights @ conservative_collision.kernel_values(0.3)
    # conservative: column mass equals the frequency everywhere
    freq = np.asarray(conservative_collision.frequency.value(0.3), dtype=float)
    np.testing.assert_allclose(rates, freq, rtol=1e-14)


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

# Row 0 of the mass ledger balances the gain mass along the loss flow (the
# defect) against the mass that flow removes (u0 norm minus partial mass).

def _ledger_row0(model, tg, phi):
    ledger = mass_ledger(iterate_right(model, tg, phi, 0, keep_rows=False))
    return ledger.defects[0], ledger.u0_norm - ledger.partial_mass[0], ledger.residuals[0]


def test_mass_balance_conservative_second_order(conservative_collision_perturbed):
    phi = np.ones(conservative_collision_perturbed.grid.size)
    residuals = [
        abs(_ledger_row0(conservative_collision_perturbed, TimeGrid(0.0, 1.0, dt), phi)[2])
        for dt in (1.0 / 16.0, 1.0 / 32.0)
    ]
    assert residuals[0] < 1e-2
    assert residuals[1] / residuals[0] == pytest.approx(0.25, abs=0.1)


def test_mass_balance_gain_below_loss_for_subcritical(subcritical_collision_perturbed):
    phi = np.ones(subcritical_collision_perturbed.grid.size)
    gain, lost, residual = _ledger_row0(subcritical_collision_perturbed,
                                        TimeGrid(0.0, 1.0, 1.0 / 32.0), phi)
    assert gain < lost
    assert residual == pytest.approx(lost - gain)


def test_mass_balance_edge_cases(conservative_collision_perturbed):
    phi = np.ones(conservative_collision_perturbed.grid.size)
    # a lattice of one node: nothing gained, nothing lost
    assert _ledger_row0(conservative_collision_perturbed,
                        TimeGrid(0.5, 0.5, 0.1), phi) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# adapter to the series engine
# ---------------------------------------------------------------------------

def test_perturbed_model_wires_both_parts(timedep_collision,
                                          timedep_collision_perturbed):
    model = timedep_collision_perturbed
    grid = model.grid
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 1.0, grid.size)
    survival = np.exp(-np.asarray(timedep_collision.frequency.integral(0.2, 0.7)))
    np.testing.assert_allclose(model.unperturbed.apply(0.7, 0.2, phi), survival * phi,
                               rtol=1e-15)
    np.testing.assert_allclose(model.perturbation.apply(0.7, phi),
                               timedep_collision.kernel_values(0.7) @ (grid.weights * phi),
                               rtol=1e-15)
    # matrix forms agree with the plain apply
    u_dense = functools.partial(_dense, model.unperturbed.apply, grid.size)
    b_dense = functools.partial(_dense, model.perturbation.apply, grid.size)
    np.testing.assert_allclose(u_dense(0.7, 0.2) @ phi,
                               model.unperturbed.apply(0.7, 0.2, phi), rtol=1e-14)
    np.testing.assert_allclose(b_dense(0.7) @ phi, model.perturbation.apply(0.7, phi),
                               rtol=1e-14)
    # an array of times gives the per-time matrices in one batched apply
    t, s = np.array([0.3, 0.7, 1.0]), np.array([0.0, 0.2, 1.0])
    np.testing.assert_array_equal(u_dense(t, s),
                                  np.stack([u_dense(tk, sk) for tk, sk in zip(t, s)]))
    np.testing.assert_allclose(b_dense(t), np.stack([b_dense(tk) for tk in t]),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(model.loss_rate(0.5),
                               np.asarray(timedep_collision.frequency.value(0.5)))


@given(phi=st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8))
def test_gain_and_loss_preserve_positivity(phi):
    grid = uniform_velocity_grid(-1.0, 1.0, 8)
    kernel = CollisionKernel(profile=CONSTANT_ONE,
                             matrix=gaussian_kernel_matrix(grid, 0.5, 0.5))
    model = collision_perturbed_model(collision_model(grid, unit_frequency(grid), kernel))
    state = np.array(phi)
    assert np.all(model.perturbation.apply(0.3, state) >= 0.0)
    assert np.all(model.unperturbed.apply(0.9, 0.1, state) >= 0.0)


def test_outflow_kernel_is_rank_one():
    grid = uniform_velocity_grid(-1.0, 1.0, 6)
    m = np.exp(-grid.nodes ** 2)
    mat = outflow_kernel_matrix(grid, m)
    assert np.linalg.matrix_rank(mat) == 1
    np.testing.assert_allclose(mat[:, 0], m)
    with pytest.raises(StructureError):
        outflow_kernel_matrix(grid, m[:-1])
