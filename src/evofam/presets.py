"""Small closed-form models used as engine oracles and CLI defaults.

The workhorse is a constant-coefficient exchange system: every node decays
at a fixed rate while a constant nonnegative matrix redistributes the lost
mass.  The unperturbed evolution and all iterates have elementary closed
forms, which the test suite pins against the engine.
"""
from __future__ import annotations

import numpy as np

from .coefficients import SeparableCoefficient, TimeProfile
from .errors import StructureError
from .evolution import PerturbedModel, loss_gain_model
from .state_space import Grid, abstract_grid


def matrix_exchange_model(grid: Grid, loss_rates, exchange, name: str = "matrix-exchange") -> PerturbedModel:
    """Constant-coefficient model: U(t,s) = diag(exp(-loss*(t-s))), B = exchange.

    ``exchange`` must be nonnegative; the model is flagged conservative when
    the weighted column sums of the exchange matrix exactly balance the
    weighted loss rates (the discrete no-mass-created/none-hidden case).
    """
    loss = np.asarray(loss_rates, dtype=float)
    mat = np.asarray(exchange, dtype=float)
    d = grid.size
    if loss.shape != (d,) or mat.shape != (d, d):
        raise StructureError("loss rates / exchange matrix shape mismatch with grid")
    if np.any(loss < 0.0) or np.any(mat < 0.0):
        raise StructureError("loss rates and exchange matrix must be nonnegative")
    w = grid.weights
    gained = w @ mat              # weighted mass produced per unit source coefficient
    lost = loss * w
    if np.any(gained > lost * (1.0 + 1e-12) + 1e-300):
        raise StructureError("exchange matrix exceeds the loss rates (not dissipative)")
    conservative = bool(np.all(np.abs(gained - lost) <= 1e-12 * np.maximum(lost, 1.0)))
    unit = TimeProfile(kind="constant", c0=1.0)
    return loss_gain_model(name, grid, SeparableCoefficient(unit, loss), unit, mat,
                           np.ones(d), conservative=conservative)


def two_state_exchange(rate: float = 1.0) -> PerturbedModel:
    """Two unit-weight nodes, decay ``rate``, swap perturbation of the same size.

    Closed forms (s <= t, elapsed T = t - s, S the coordinate swap):
    iterate n equals exp(-rate*T) * (rate*T)^n / n! * S^n, the summed series
    is exp(-rate*T) * exp(rate*T*S), and the total mass of a nonnegative
    state is preserved exactly (conservative case).
    """
    if rate <= 0.0:
        raise StructureError("exchange rate must be positive")
    grid = abstract_grid([1.0, 1.0])
    swap = np.array([[0.0, rate], [rate, 0.0]])
    return matrix_exchange_model(grid, [rate, rate], swap,
                                 name=f"two-state-exchange(rate={rate!r})")
