"""Time-dependent linear collision model on a velocity grid.

The continuous dynamics split into a loss part, multiplication by
exp(-integral of the collision frequency), and a bounded gain part driven
by a nonnegative transfer kernel.  The loss flow is evaluated with exact
time antiderivatives, so it composes to rounding; the gain is a weighted
matrix product.  ``collision_perturbed_model`` states both parts, once,
as the engine's loss–gain families.

Conventions: ``frequency.value(t)[i]`` is the total collision rate at
node i, ``kernel_values(t)[i, j]`` the transfer density from node j
into node i.  The column mass ``sum_i w_i k(t, v_i, v_j)`` (the gain mass
rate at node j) never exceeding the frequency at node j is the
subcriticality contract; equality within rounding makes the model
conservative (the gain returns exactly what the loss removes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (SeparableCoefficient, TimeProfile, require_finite_nonnegative,
                           sample_nonnegative, sample_times)
from .errors import ModelContractError, StructureError
from .evolution import PerturbedModel, TimeGrid, loss_gain_model
from .state_space import Grid

# Largest relative subcriticality excess that strict construction repairs
# by rescaling kernel columns; anything larger is a modelling error.
SUBCRITICAL_RESCALE_LIMIT = 1e-6
# Relative gap below which gain mass and frequency count as equal.
CONSERVATIVE_TOL = 1e-12


@dataclass(frozen=True)
class CollisionKernel:
    """Gain kernel profile(t) * matrix, matrix[i, j] transferring j -> i."""

    profile: TimeProfile
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StructureError("kernel matrix must be square")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class CollisionModel:
    """Validated collision model: grid, frequency, kernel, derived flags.

    ``subcritical_excess`` records the worst sampled value of the gain
    mass rate minus the frequency found at construction (before any strict
    repair); ``validated_span`` the (first, last) sample time it was found
    on; ``column_rescale`` holds the per-column kernel factors a strict
    repair applied, or None.
    """

    grid: Grid
    frequency: SeparableCoefficient
    kernel: CollisionKernel
    conservative: bool
    subcritical_excess: float
    validated_span: tuple[float, float]
    column_rescale: np.ndarray | None = None

    def kernel_values(self, t: float) -> np.ndarray:
        k = self.kernel.profile.value(t)
        if not np.isfinite(k):
            raise ModelContractError(f"kernel time profile not finite at t = {t}")
        return k * self.kernel.matrix


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def validation_times(tg: TimeGrid) -> np.ndarray:
    """Lattice nodes plus step midpoints, the default model-check samples."""
    nodes = tg.nodes
    if nodes.size == 1:
        return nodes.copy()
    return np.sort(np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]))


def frequency_matching_kernel(grid: Grid, kernel: CollisionKernel) -> SeparableCoefficient:
    """Frequency equal to the kernel's column mass: the conservative choice."""
    return SeparableCoefficient(profile=kernel.profile,
                                space=grid.weights @ kernel.matrix)


def collision_model(grid: Grid, frequency: SeparableCoefficient, kernel: CollisionKernel, *,
                    strict: bool = True, time_samples=None) -> CollisionModel:
    """Validate and assemble a collision model.

    Checks kernel and frequency nonnegativity and the subcritical bound
    gain mass rate <= frequency at every node for every sampled time
    (default samples: 0 to 1 in steps of 1/8; pass ``validation_times`` of
    the active lattice; the engine refuses one outside the samples' span).
    Strict mode repairs a relative excess up to 1e-6 by scaling each kernel
    column with the smallest sampled min(1, frequency/gain); larger excess
    raises.  Lenient mode only records the worst excess.
    """
    times = sample_times(time_samples)

    mat = np.asarray(kernel.matrix, dtype=float)
    if mat.shape != (grid.size, grid.size):
        raise StructureError(
            f"kernel matrix shape {mat.shape} does not match grid size {grid.size}"
        )
    require_finite_nonnegative(mat, "kernel matrix")

    q = kernel.profile.value(times)
    for bad, problem in ((~np.isfinite(q), "not finite"), (q < 0.0, "negative")):
        if bad.any():
            raise ModelContractError(
                f"kernel time profile {problem} at t = {times[np.argmax(bad)]}")
    freq = sample_nonnegative(frequency, times, grid.size, "collision frequency")

    # gain mass rate at every (sample time, node): kernel and frequency are
    # both separable, so the whole check is one (T, d) array
    gain = q[:, None] * (grid.weights @ mat)
    i, v_worst = np.unravel_index(np.argmax(gain - freq), gain.shape)
    excess = float(gain[i, v_worst] - freq[i, v_worst])
    t_worst = float(times[i])
    scale = max(1.0, float(np.max(freq)))
    rel = excess / scale
    rescale = None
    if rel > CONSERVATIVE_TOL and strict:
        if rel > SUBCRITICAL_RESCALE_LIMIT:
            raise ModelContractError(
                "gain mass exceeds the collision frequency by relative "
                f"{rel:.3e} (> {SUBCRITICAL_RESCALE_LIMIT:.0e}) at "
                f"(t, v) = ({t_worst!r}, node {v_worst}, speed "
                f"{float(grid.nodes[v_worst])!r}); not a quadrature-level "
                "violation, refusing to rescale"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gain > 0.0, freq / gain, 1.0)
        rescale = np.minimum(1.0, ratio.min(axis=0))
        mat = mat * rescale[None, :]
        kernel = CollisionKernel(profile=kernel.profile, matrix=mat)
        gain = q[:, None] * (grid.weights @ mat)

    conservative = bool(np.max(np.abs(gain - freq)) <= CONSERVATIVE_TOL * scale)
    return CollisionModel(grid=grid, frequency=frequency, kernel=kernel,
                          conservative=conservative,
                          subcritical_excess=excess,
                          validated_span=(float(times.min()), float(times.max())),
                          column_rescale=rescale)


# ---------------------------------------------------------------------------
# kernel matrix builders
# ---------------------------------------------------------------------------

def uniform_kernel_matrix(grid: Grid, value: float = 1.0) -> np.ndarray:
    """Constant transfer density between every node pair."""
    return np.full((grid.size, grid.size), float(value))


def gaussian_kernel_matrix(grid: Grid, amplitude: float = 1.0,
                           width: float = 1.0) -> np.ndarray:
    """Symmetric kernel amplitude * exp(-((v - v') / width)^2)."""
    if width <= 0.0:
        raise StructureError("gaussian kernel width must be positive")
    diff = grid.nodes[:, None] - grid.nodes[None, :]
    return float(amplitude) * np.exp(-((diff / width) ** 2))


def outflow_kernel_matrix(grid: Grid, target_density) -> np.ndarray:
    """Rank-one kernel m(v): every source node feeds the same profile.

    Detailed balance then forces the reference density to be proportional
    to m, which makes this the standard negative control for the balance
    certificate.
    """
    m = np.asarray(target_density, dtype=float)
    if m.shape != (grid.size,):
        raise StructureError("target density must have one value per node")
    return np.tile(m[:, None], (1, grid.size))


# ---------------------------------------------------------------------------
# adapter to the series engine
# ---------------------------------------------------------------------------

def collision_perturbed_model(model: CollisionModel) -> PerturbedModel:
    """Adapt the collision model to the series engine: loss at the collision
    frequency, gain B(t) u = kernel_values(t) @ (w * u)."""
    return loss_gain_model("collision", model.grid, model.frequency, model.kernel.profile,
                           model.kernel.matrix, model.grid.weights,
                           validated_span=model.validated_span)
