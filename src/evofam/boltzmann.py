"""Time-dependent linear collision model on a velocity grid.

The continuous dynamics split into a loss part, multiplication by
exp(-integral of the collision frequency), and a bounded gain part driven
by a nonnegative transfer kernel.  The loss flow is evaluated with exact
time antiderivatives, so it composes to rounding; the gain is a weighted
matrix product.  ``collision_perturbed_model`` adapts both parts to the
series engine.

Conventions: ``frequency.value(t)[i]`` is the total collision rate at
node i, ``kernel.values(t)[i, j]`` the transfer density from node j into
node i.  The column mass ``gain_mass_rate(t)[j] = sum_i w_i k(t, v_i,
v_j)`` never exceeding the frequency at node j is the subcriticality
contract; equality within rounding makes the model conservative (the
gain returns exactly what the loss removes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import SeparableCoefficient, TimeProfile, sample_nonnegative
from .errors import ModelContractError, PreconditionError, StructureError
from .evolution import PerturbedModel, TimeGrid, loss_gain_model, prefix_weights
from .state_space import Grid, StateVector, weighted_norm_array

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

    def values(self, t: float) -> np.ndarray:
        k = self.profile.value(t)
        if not np.isfinite(k):
            raise ModelContractError(f"kernel time profile not finite at t = {t}")
        return k * self.matrix


@dataclass(frozen=True)
class CollisionModel:
    """Validated collision model: grid, frequency, kernel, derived flags.

    ``subcritical_excess`` records the worst sampled value of
    gain_mass_rate - frequency found at construction (before any strict
    repair); ``column_rescale`` holds the per-column kernel factors a
    strict repair applied, or None.
    """

    grid: Grid
    frequency: SeparableCoefficient
    kernel: CollisionKernel
    conservative: bool
    subcritical_excess: float
    column_rescale: np.ndarray | None = None

    def kernel_values(self, t: float) -> np.ndarray:
        return self.kernel.values(t)


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
    gain_mass_rate <= frequency at every node for every sampled time
    (default samples: 0 to 1 in steps of 1/8; pass ``validation_times`` of
    the active lattice for sharper coverage).  Strict mode repairs a
    relative excess up to 1e-6 by scaling each kernel column with the
    smallest sampled min(1, frequency/gain); larger excess raises.
    Lenient mode only records the worst excess.
    """
    if time_samples is None:
        time_samples = np.linspace(0.0, 1.0, 9)
    times = np.asarray(time_samples, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise StructureError("time_samples must be a nonempty 1-d sequence")

    mat = np.asarray(kernel.matrix, dtype=float)
    if mat.shape != (grid.size, grid.size):
        raise StructureError(
            f"kernel matrix shape {mat.shape} does not match grid size {grid.size}"
        )
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        i, j = bad[0]
        raise ModelContractError(f"kernel matrix not finite at (i, j) = ({i}, {j})")
    if np.any(mat < 0.0):
        i, j = np.argwhere(mat < 0.0)[0]
        raise ModelContractError(f"kernel matrix negative at (i, j) = ({i}, {j})")

    q = np.array([kernel.profile.value(t) for t in times])
    for bad, problem in ((~np.isfinite(q), "not finite"), (q < 0.0, "negative")):
        if bad.any():
            raise ModelContractError(
                f"kernel time profile {problem} at t = {times[np.argmax(bad)]}")
    freq = sample_nonnegative(frequency, times, grid.size, "collision frequency")

    # gain_mass_rate at every (sample time, node): kernel and frequency are
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
# operations
# ---------------------------------------------------------------------------

def _phi_coeffs(grid: Grid, phi) -> tuple[np.ndarray, bool]:
    if isinstance(phi, StateVector):
        if phi.grid != grid:
            raise StructureError("state grid does not match model grid")
        return phi.coeffs, True
    coeffs = np.asarray(phi, dtype=float)
    if coeffs.shape != (grid.size,):
        raise StructureError(f"state must have shape ({grid.size},)")
    return coeffs, False


def _wrap(grid: Grid, coeffs: np.ndarray, as_state: bool):
    return StateVector(grid=grid, coeffs=coeffs) if as_state else coeffs


def apply_loss_flow(model: CollisionModel, t: float, s: float, phi):
    """Loss semigroup: node-wise factor exp(-integral of the frequency).

    Exactly positivity-preserving and substochastic (factors in (0, 1]),
    and composes across intervals to rounding.
    """
    if not 0.0 <= s <= t:
        raise PreconditionError(f"need 0 <= s <= t, got s = {s}, t = {t}")
    coeffs, as_state = _phi_coeffs(model.grid, phi)
    factor = np.exp(-np.asarray(model.frequency.integral(s, t), dtype=float))
    return _wrap(model.grid, factor * coeffs, as_state)


def apply_gain(model: CollisionModel, t: float, phi):
    """Gain operator: (out)_i = sum_j w_j kernel(t, v_i, v_j) phi_j."""
    coeffs, as_state = _phi_coeffs(model.grid, phi)
    kern = model.kernel.values(t)
    return _wrap(model.grid, kern @ (model.grid.weights * coeffs), as_state)


def gain_mass_rate(model: CollisionModel, t: float, v_index: int | None = None):
    """Column mass sum_i w_i kernel(t, v_i, v_j): gain produced per unit at j.

    Returns the full per-node array when ``v_index`` is None.
    """
    rates = model.grid.weights @ model.kernel.values(t)
    if v_index is None:
        return rates
    return float(rates[v_index])


@dataclass(frozen=True)
class MassBalanceResult:
    """Gain-vs-loss mass accounting over one interval."""

    gain_mass: float
    lost_mass: float
    residual: float


def mass_balance_identity(model: CollisionModel, tg: TimeGrid, phi) -> MassBalanceResult:
    """Quadrature of ||gain(loss-flow state)|| against the mass actually lost.

    For nonnegative phi the gain mass never exceeds the lost mass up to
    quadrature error, with equality (to quadrature) in the conservative
    case.  Returns (gain_mass, lost_mass, gain_mass - lost_mass).
    """
    coeffs, _ = _phi_coeffs(model.grid, phi)
    if np.any(coeffs < 0.0):
        raise PreconditionError("mass balance identity needs a nonnegative state")
    m = tg.n_steps
    phi_mass = float(model.grid.weights @ coeffs)
    if m == 0:
        return MassBalanceResult(0.0, 0.0, 0.0)
    w = prefix_weights(tg.rule, m, tg.dt)
    gain_mass = 0.0
    for j, tau in enumerate(tg.nodes):
        if w[j] == 0.0:
            continue
        flowed = np.exp(-np.asarray(model.frequency.integral(tg.s, tau), dtype=float)) * coeffs
        gain_mass += w[j] * weighted_norm_array(model.grid, model.kernel.values(tau)
                                                @ (model.grid.weights * flowed))
    end = np.exp(-np.asarray(model.frequency.integral(tg.s, tg.t_end), dtype=float)) * coeffs
    lost = phi_mass - float(model.grid.weights @ end)
    return MassBalanceResult(gain_mass, lost, gain_mass - lost)


def collision_perturbed_model(model: CollisionModel, name: str = "collision") -> PerturbedModel:
    """Adapt the collision model to the series engine: loss at the collision
    frequency, gain B(t) u = kernel.values(t) @ (w * u)."""
    return loss_gain_model(name, model.grid, model.frequency, model.kernel.profile,
                           model.kernel.matrix, model.grid.weights,
                           conservative=model.conservative)
