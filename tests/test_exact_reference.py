"""An exact-in-time defect reference for one-profile loss–gain models.

When the loss rate q(t) a and the gain q(t) G share one time profile q,
the model is a time change of an autonomous one.  In tau, the integral of
q from s, the iterates and defects obey

    u_0' = -A u_0,   u_{n+1}' = -A u_{n+1} + G u_n,   D_n' = w^T G u_n,

with A = diag(a) and w the grid weights (the norm of B u_n is w^T B u_n
on the positive cone).  Stacking u_0..u_N and D_0..D_N gives one block
lower-bidiagonal generator, and one matrix exponential of it yields every
D_n(tau) at once (Van Loan, IEEE Trans. Autom. Control 23, 1978).  The
engine's trapezoid defects then converge to it at second order in dt.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from evofam import (
    PreconditionError,
    TimeGrid,
    daughter_factors,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    iterate_right,
    uniform_mass_grid,
)
from evofam.cli import build_model, initial_coefficients
from evofam.evolution import _dense
from evofam.config import parse_config

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"


def exact_defects(model, s: float, t: float, u0, n_max: int) -> np.ndarray:
    """D_0..D_{n_max} over [s, t] from one ``expm`` of the stacked generator.

    Dense form: the generator has (n_max + 1)(d + 1) rows.  Refuses, with
    PreconditionError, a model whose loss and gain profiles differ at five
    times across [s, t]: such a model is no time change.
    """
    d = model.grid.size
    times = np.linspace(s, t, 5)
    gains = _dense(model.perturbation.apply, d, times)
    losses = model.loss_rate(times)
    # the profile is taken as 1 at the time of the largest gain
    ref = int(np.argmax(np.abs(gains).sum(axis=(1, 2))))
    gain, loss = gains[ref], losses[ref]
    scale = np.einsum("kij,ij->k", gains, gain) / np.sum(gain * gain)
    if not (np.allclose(gains, scale[:, None, None] * gain, rtol=1e-12, atol=0.0)
            and np.allclose(losses, scale[:, None] * loss, rtol=1e-12, atol=0.0)):
        raise PreconditionError(f"{model.name}: loss and gain profiles differ")
    # U(t, s) 1 = exp(-tau a) on that profile's clock
    i = int(np.argmax(loss))
    tau = -math.log(model.unperturbed.apply(t, s, np.ones(d))[i]) / loss[i]

    rows = n_max + 1
    gen = np.zeros((rows * (d + 1), rows * (d + 1)))
    defect_rate = model.grid.weights @ gain
    for n in range(rows):
        block = slice(n * d, (n + 1) * d)
        gen[block, block] = -np.diag(loss)
        if n < n_max:
            gen[block.stop:block.stop + d, block] = gain
        gen[rows * d + n, block] = defect_rate
    start = np.zeros(rows * (d + 1))
    start[:d] = u0
    return (scipy.linalg.expm(tau * gen) @ start)[rows * d:]


def test_reference_matches_the_oracle_closed_form(oracle_model):
    # D_n = ||u0|| integral_0^1 e^(-tau) tau^n / n! dtau = ||u0|| e^(-1) sum_{k > n} 1/k!
    # on the exchange oracle, summed as the tail so that nothing cancels
    u0 = np.array([1.0, 0.5])
    closed = [1.5 * math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(n + 1, n + 40))
              for n in range(13)]
    np.testing.assert_allclose(exact_defects(oracle_model, 0.0, 1.0, u0, 12), closed,
                               rtol=1e-12, atol=1e-16)


def binary_uniform_16(rate="linear", params=None, time_samples=None):
    grid = uniform_mass_grid(1.0 / 16.0, 1.0, 16)
    return fragmentation_perturbed_model(fragmentation_model(
        grid, fragmentation_rate(grid, rate, params), daughter_factors(grid, "binary_uniform"),
        time_samples=time_samples))


def error_ratios(model, s, t, u0, dt, exact):
    """Per row, the engine's defect error at dt over its error at dt / 2,
    and the errors at dt."""
    coarse, fine = (np.abs(iterate_right(model, TimeGrid(s, t, step), u0, 12).defects - exact)
                    for step in (dt, dt / 2.0))
    return coarse / fine, coarse


@pytest.mark.parametrize("case", ["oracle", "binary_uniform"])
def test_engine_defects_converge_at_second_order(case, oracle_model):
    if case == "oracle":
        model, u0 = oracle_model, np.array([1.0, 0.5])
    else:
        model, u0 = binary_uniform_16(), np.ones(16)
    exact = exact_defects(model, 0.0, 1.0, u0, 12)
    if case == "binary_uniform":
        assert exact[0] == pytest.approx(0.211865, abs=5e-7)
    np.testing.assert_allclose(error_ratios(model, 0.0, 1.0, u0, 1.0 / 32.0, exact)[0], 4.0,
                               atol=0.2)


def test_reference_refuses_two_profiles():
    # boltzmann_timedep: loss frequency 1 + t under a constant kernel
    model = build_model(parse_config(str(SCRIPTS_DIR / "boltzmann_timedep.ini")))
    with pytest.raises(PreconditionError, match="profiles differ"):
        exact_defects(model, 0.0, 1.0, np.ones(model.grid.size), 3)


def test_conservative_collision_converges_at_second_order():
    # boltzmann_conservative.ini's model and maxwellian u0 (T = 0.5).  Row
    # 2's dt^2 coefficient nearly vanishes (error -9.9e-8 at dt = 1/32,
    # against 4.2e-4 on row 0), so its ratio reads about 16: rows whose
    # error is under 1e-3 of the largest need only not converge slower
    cfg = parse_config(str(SCRIPTS_DIR / "boltzmann_conservative.ini"))
    model = build_model(cfg)
    u0 = initial_coefficients(cfg, model.grid)
    ratios, errors = error_ratios(model, 0.0, 1.0, u0, 1.0 / 32.0,
                                  exact_defects(model, 0.0, 1.0, u0, 12))
    resolved = errors > 1e-3 * errors.max()
    assert resolved.sum() >= 10
    np.testing.assert_allclose(ratios[resolved], 4.0, atol=0.2)
    assert np.all(ratios >= 3.8)


def test_defects_depend_on_the_time_change_only():
    # rate 2 t x: the loss and the gain share q(t) = 2t, F(t) = t^2.  Over
    # [0, 1] F moves by 1, as the linear-rate model's clock does, and over
    # [0.25, 1.25] by 1.5: the exact defects are the linear model's over
    # [0, 1] and [0, 1.5], and the engine converges to them at second order
    linear = binary_uniform_16()
    u0 = np.ones(16)
    for s, t, samples in ((0.0, 1.0, None), (0.25, 1.25, np.linspace(0.0, 1.25, 11))):
        model = binary_uniform_16("product_t", {"scale": 2.0, "exponent": 1.0}, samples)
        exact = exact_defects(model, s, t, u0, 12)
        np.testing.assert_allclose(exact, exact_defects(linear, 0.0, (t * t - s * s), u0, 12),
                                   rtol=1e-13, atol=0.0)
        ratios, _ = error_ratios(model, s, t, u0, 1.0 / 64.0, exact)
        np.testing.assert_allclose(ratios, 4.0, atol=0.2)
    assert exact_defects(linear, 0.0, 1.0, u0, 0)[0] == pytest.approx(0.211865, abs=5e-7)
    assert exact[0] == pytest.approx(0.272116, abs=5e-7)
