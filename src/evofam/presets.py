"""The closed-form oracle model, the CLI's oracle and lifted-check model.

Two unit-weight nodes decay at one constant rate while a swap matrix of
the same rate moves exactly the lost mass to the other node, built as one
``loss_gain_model`` call.  The unperturbed evolution and all iterates have
elementary closed forms, which the test suite pins against the engine.
"""
from __future__ import annotations

import numpy as np

from .coefficients import SeparableCoefficient, TimeProfile
from .errors import StructureError
from .evolution import PerturbedModel, loss_gain_model
from .state_space import abstract_grid


def two_state_exchange(rate: float = 1.0) -> PerturbedModel:
    """Two unit-weight nodes, decay ``rate``, swap perturbation of the same size.

    Closed forms (s <= t, elapsed T = t - s, S the coordinate swap):
    iterate n equals exp(-rate*T) * (rate*T)^n / n! * S^n, the summed series
    is exp(-rate*T) * exp(rate*T*S), and the total mass of a nonnegative
    state is preserved exactly (conservative case).
    """
    if not 0.0 < rate < np.inf:
        raise StructureError(f"exchange rate must be positive and finite, got {rate!r}")
    unit = TimeProfile(kind="constant", c0=1.0)
    loss = SeparableCoefficient(unit, np.array([rate, rate], dtype=float))
    swap = np.array([[0.0, rate], [rate, 0.0]])
    return loss_gain_model(f"two-state-exchange(rate={rate!r})", abstract_grid([1.0, 1.0]),
                           loss, unit, swap, np.ones(2))
