"""Collision model: contracts, exact loss flow, gain accounting."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evofam import (
    CollisionKernel,
    ModelContractError,
    PreconditionError,
    StateVector,
    StructureError,
    TimeGrid,
    TimeProfile,
    apply_gain,
    apply_loss_flow,
    collision_model,
    collision_perturbed_model,
    frequency_matching_kernel,
    gain_mass_rate,
    gaussian_kernel_matrix,
    mass_balance_identity,
    outflow_kernel_matrix,
    uniform_kernel_matrix,
    uniform_velocity_grid,
    validation_times,
)
from evofam.boltzmann import SUBCRITICAL_RESCALE_LIMIT
from evofam.coefficients import SeparableCoefficient

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
    rates = gain_mass_rate(subcritical_collision, 0.5)
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
        rates = gain_mass_rate(model, t)
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

def test_loss_flow_composes_exactly(timedep_collision):
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.1, 1.0, timedep_collision.grid.size)
    one_hop = apply_loss_flow(timedep_collision, 0.9, 0.0, phi)
    two_hop = apply_loss_flow(timedep_collision, 0.9, 0.4,
                              apply_loss_flow(timedep_collision, 0.4, 0.0, phi))
    np.testing.assert_allclose(two_hop, one_hop, rtol=1e-14)
    # identity at coincident times, strict contraction on positive states
    np.testing.assert_array_equal(apply_loss_flow(timedep_collision, 0.3, 0.3, phi), phi)
    w = timedep_collision.grid.weights
    assert w @ one_hop < w @ phi
    with pytest.raises(PreconditionError):
        apply_loss_flow(timedep_collision, 0.2, 0.5, phi)


def test_loss_flow_matches_exact_integral(timedep_collision):
    # frequency 1 + t integrates to t + t^2/2 in closed form
    phi = np.ones(timedep_collision.grid.size)
    out = apply_loss_flow(timedep_collision, 0.8, 0.2, phi)
    elapsed = (0.8 + 0.8 ** 2 / 2.0) - (0.2 + 0.2 ** 2 / 2.0)
    np.testing.assert_allclose(out, np.exp(-elapsed) * phi, rtol=1e-14)


def test_gain_is_weighted_matrix_product(subcritical_collision):
    grid = subcritical_collision.grid
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 1.0, grid.size)
    out = apply_gain(subcritical_collision, 0.7, phi)
    kern = subcritical_collision.kernel_values(0.7)
    np.testing.assert_allclose(out, kern @ (grid.weights * phi), rtol=1e-14)


def test_state_vector_round_trip(subcritical_collision):
    grid = subcritical_collision.grid
    state = StateVector(grid, np.ones(grid.size))
    gained = apply_gain(subcritical_collision, 0.0, state)
    flowed = apply_loss_flow(subcritical_collision, 1.0, 0.0, state)
    assert isinstance(gained, StateVector) and isinstance(flowed, StateVector)
    other = uniform_velocity_grid(-2.0, 2.0, subcritical_collision.grid.size)
    with pytest.raises(StructureError):
        apply_gain(subcritical_collision, 0.0, StateVector(other, np.ones(grid.size)))
    with pytest.raises(StructureError):
        apply_gain(subcritical_collision, 0.0, np.ones(grid.size + 1))


def test_gain_mass_rate_matches_column_sums(conservative_collision):
    grid = conservative_collision.grid
    rates = gain_mass_rate(conservative_collision, 0.3)
    kern = conservative_collision.kernel_values(0.3)
    np.testing.assert_allclose(rates, grid.weights @ kern, rtol=1e-15)
    single = gain_mass_rate(conservative_collision, 0.3, v_index=2)
    assert single == pytest.approx(rates[2])
    # conservative: column mass equals the frequency everywhere
    freq = np.asarray(conservative_collision.frequency.value(0.3), dtype=float)
    np.testing.assert_allclose(rates, freq, rtol=1e-14)


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

def test_mass_balance_conservative_second_order(conservative_collision):
    phi = np.ones(conservative_collision.grid.size)
    residuals = [
        abs(mass_balance_identity(conservative_collision,
                                  TimeGrid(0.0, 1.0, dt), phi).residual)
        for dt in (1.0 / 16.0, 1.0 / 32.0)
    ]
    assert residuals[0] < 1e-2
    assert residuals[1] / residuals[0] == pytest.approx(0.25, abs=0.1)


def test_mass_balance_gain_below_loss_for_subcritical(subcritical_collision):
    phi = np.ones(subcritical_collision.grid.size)
    result = mass_balance_identity(subcritical_collision,
                                   TimeGrid(0.0, 1.0, 1.0 / 32.0), phi)
    assert result.gain_mass < result.lost_mass
    assert result.residual == pytest.approx(result.gain_mass - result.lost_mass)


def test_mass_balance_edge_cases(conservative_collision):
    phi = np.ones(conservative_collision.grid.size)
    empty = mass_balance_identity(conservative_collision, TimeGrid(0.5, 0.5, 0.1), phi)
    assert (empty.gain_mass, empty.lost_mass, empty.residual) == (0.0, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        mass_balance_identity(conservative_collision, TimeGrid(0.0, 1.0, 0.5), -phi)


# ---------------------------------------------------------------------------
# adapter to the series engine
# ---------------------------------------------------------------------------

def test_perturbed_model_wires_both_parts(timedep_collision,
                                          timedep_collision_perturbed):
    model = timedep_collision_perturbed
    grid = model.grid
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 1.0, grid.size)
    np.testing.assert_allclose(model.unperturbed.apply(0.7, 0.2, phi),
                               apply_loss_flow(timedep_collision, 0.7, 0.2, phi),
                               rtol=1e-15)
    np.testing.assert_allclose(model.perturbation.apply(0.7, phi),
                               apply_gain(timedep_collision, 0.7, phi),
                               rtol=1e-15)
    # matrix forms agree with the plain apply
    np.testing.assert_allclose(model.unperturbed.as_matrix(0.7, 0.2) @ phi,
                               model.unperturbed.apply(0.7, 0.2, phi), rtol=1e-14)
    np.testing.assert_allclose(model.perturbation.as_matrix(0.7) @ phi,
                               model.perturbation.apply(0.7, phi), rtol=1e-14)
    np.testing.assert_allclose(model.loss_rate(0.5),
                               np.asarray(timedep_collision.frequency.value(0.5)))


def test_perturbed_model_propagates_conservative_flag(
        conservative_collision_perturbed, subcritical_collision_perturbed):
    assert conservative_collision_perturbed.conservative
    assert not subcritical_collision_perturbed.conservative


@given(phi=st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8))
def test_gain_and_loss_preserve_positivity(phi):
    grid = uniform_velocity_grid(-1.0, 1.0, 8)
    kernel = CollisionKernel(profile=CONSTANT_ONE,
                             matrix=gaussian_kernel_matrix(grid, 0.5, 0.5))
    model = collision_model(grid, unit_frequency(grid), kernel)
    state = np.array(phi)
    assert np.all(apply_gain(model, 0.3, state) >= 0.0)
    assert np.all(apply_loss_flow(model, 0.9, 0.1, state) >= 0.0)


def test_outflow_kernel_is_rank_one():
    grid = uniform_velocity_grid(-1.0, 1.0, 6)
    m = np.exp(-grid.nodes ** 2)
    mat = outflow_kernel_matrix(grid, m)
    assert np.linalg.matrix_rank(mat) == 1
    np.testing.assert_allclose(mat[:, 0], m)
    with pytest.raises(StructureError):
        outflow_kernel_matrix(grid, m[:-1])
