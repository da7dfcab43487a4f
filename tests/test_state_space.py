"""Weighted-L1 state space: grids, norms, positive-cone additivity."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evofam import (
    Grid,
    StructureError,
    TimeGrid,
    abstract_grid,
    iterate_right,
    uniform_mass_grid,
    uniform_velocity_grid,
)
from evofam.state_space import weighted_norm_array

nonneg_coeffs = arrays(np.float64, 5,
                       elements=st.floats(0.0, 1e6, allow_nan=False))


def test_velocity_grid_midpoints_and_weights():
    grid = uniform_velocity_grid(-1.0, 1.0, 4)
    assert grid.kind == "velocity"
    np.testing.assert_allclose(grid.nodes, [-0.75, -0.25, 0.25, 0.75])
    np.testing.assert_allclose(grid.weights, 0.5)


def test_mass_grid_weights_measure_mass():
    grid = uniform_mass_grid(0.25, 1.0, 3)
    dx = 0.25
    np.testing.assert_allclose(grid.weights, grid.nodes * dx)
    # unit density => norm equals total mass integral of x dx
    assert weighted_norm_array(grid, np.ones(3)) == pytest.approx(float(np.sum(grid.nodes) * dx))


@pytest.mark.parametrize("bad", [
    lambda: uniform_mass_grid(0.0, 1.0, 4),
    lambda: uniform_mass_grid(0.5, 0.5, 4),
    lambda: uniform_velocity_grid(1.0, -1.0, 4),
    lambda: uniform_velocity_grid(-1.0, 1.0, 0),
    lambda: Grid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, 0.0])),
    lambda: Grid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]),
                 kind="velocity"),
    lambda: Grid(nodes=np.array([np.nan]), weights=np.array([1.0])),
    lambda: Grid(nodes=np.array([0.0]), weights=np.array([1.0]), kind="nope"),
])
def test_grid_construction_errors(bad):
    with pytest.raises(StructureError):
        bad()


def test_state_vector_validation(oracle_model):
    tg = TimeGrid(0.0, 0.5, 0.25)
    with pytest.raises(StructureError, match="3 coefficients on a grid of size 2"):
        iterate_right(oracle_model, tg, np.ones(3), 2)
    with pytest.raises(StructureError, match="finite"):
        iterate_right(oracle_model, tg, np.array([1.0, np.inf]), 2)
    with pytest.raises(StructureError, match="one-dimensional"):
        iterate_right(oracle_model, tg, np.ones((2, 1)), 2)


@given(a=nonneg_coeffs, b=nonneg_coeffs)
def test_norm_additive_on_positive_cone(a, b):
    grid = abstract_grid([0.5, 1.0, 1.5, 2.0, 0.25])
    total = weighted_norm_array(grid, a + b)
    assert total == pytest.approx(weighted_norm_array(grid, a) + weighted_norm_array(grid, b),
                                  rel=1e-12, abs=1e-12)


def test_caller_arrays_stay_writable(oracle_model):
    weights = np.array([0.5, 1.0, 1.5])
    grid = abstract_grid(weights)
    weights[0] = 9.0
    np.testing.assert_array_equal(grid.weights, [0.5, 1.0, 1.5])
    assert not grid.weights.flags.writeable

    u0 = np.array([1.0, 0.5])
    iterate_right(oracle_model, TimeGrid(0.0, 1.0, 0.25), u0, 3)
    u0[0] = 2.0
