"""Lifted-space cross-checks: evolution families as semigroups in time.

States become trajectories: a lifted vector assigns a grid state to every
node of a truncated uniform time axis, normed by h * sum of node norms.
On that space the family acts by shift-plus-flow, the generator is
"-d/dt - loss rate" with an upwind difference and zero inflow at time 0,
and three identities tie the machinery together:

* the perturbed resolvent factorizes the free one through an
  exponentially discounted kick operator,
* the perturbed resolvent expands in a geometric series of free
  resolvents and kick blocks,
* the Laplace transform of the n-th lifted iterate equals the n-th term
  of that series.

All three are continuum identities; discretely they hold to O(h) (the
upwind difference is first order), which is exactly what the check suite
measures and reports, together with any horizon-truncation bound.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StructureError
from .evolution import (
    PerturbedModel,
    TimeGrid,
    _carry,
    _check_table_bytes,
    _combined_rows,
    _step_factors,
    _trapezoid_kicks,
    iterate_right,
)
from .state_space import Grid

HORIZON_TAIL_LIMIT = 1e-10


@dataclass(frozen=True)
class LiftedVector:
    """A trajectory of grid states on a uniform time axis.

    ``values[k]`` is the state at axis node k; the axis must start at 0.
    """

    grid: Grid
    axis: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.axis.s != 0.0:
            raise StructureError("lifted time axis must start at 0")
        vals = np.asarray(self.values, dtype=float)
        expected = (self.axis.n_steps + 1, self.grid.size)
        if vals.shape != expected:
            raise StructureError(f"lifted values must have shape {expected}, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return self.axis.dt

    def norm(self) -> float:
        # each row's sequential weighted sum, as weighted_norm_array takes it
        rows = np.cumsum(self.grid.weights * np.abs(self.values), axis=1)[:, -1]
        return float(self.h * sum(rows.tolist()))


def lifted_norm(f: LiftedVector) -> float:
    return f.norm()


def lifted_zero(grid: Grid, axis: TimeGrid) -> LiftedVector:
    return LiftedVector(grid=grid, axis=axis,
                        values=np.zeros((axis.n_steps + 1, grid.size)))


def _check_lifted(model: PerturbedModel, f: LiftedVector) -> None:
    if f.grid != model.grid:
        raise StructureError("lifted vector grid does not match the model grid")


def _shift_index(axis: TimeGrid, t: float) -> int:
    if t < 0.0:
        raise PreconditionError(f"shift must be nonnegative, got {t}")
    return axis.node_index(axis.s + t)


def _loss_rates(model: PerturbedModel, nodes: np.ndarray) -> np.ndarray:
    """Per-node loss rates at every axis node, shape (K, d), in one call."""
    if model.loss_rate is None:
        raise PreconditionError(
            "model must provide loss_rate for the lifted generator"
        )
    rates = np.asarray(model.loss_rate(nodes), dtype=float)
    if rates.shape != (nodes.size, model.grid.size):
        raise PreconditionError("loss_rate must return one value per grid node")
    return rates


def _gain_blocks(model: PerturbedModel, nodes: np.ndarray) -> np.ndarray:
    """B(tau_k) as dense matrices for every axis node, shape (K, d, d)."""
    _check_table_bytes("kick block table", nodes.size * model.grid.size ** 2 * 8)
    return model.perturbation.as_matrix(nodes)


# ---------------------------------------------------------------------------
# lifted semigroups
# ---------------------------------------------------------------------------

def apply_lifted_free(model: PerturbedModel, t: float, f: LiftedVector) -> LiftedVector:
    """Free lifted action: node r receives U(r, r-t) f(r-t), zero for r < t.

    ``t`` must be an axis-lattice multiple (no interpolation).
    """
    _check_lifted(model, f)
    j = _shift_index(f.axis, t)
    nodes = f.axis.nodes
    out = np.zeros_like(f.values)
    out[j:] = model.unperturbed.apply(nodes[j:], nodes[:nodes.size - j],
                                      f.values[:nodes.size - j])
    return LiftedVector(grid=f.grid, axis=f.axis, values=out)


# ---------------------------------------------------------------------------
# discounted kick operator and resolvents
# ---------------------------------------------------------------------------

def laplace_kick(model: PerturbedModel, lam: float, f: LiftedVector) -> LiftedVector:
    """Exponentially discounted kick of the trajectory history.

    At axis node s the output is the trapezoid quadrature over tau in
    [0, s] of exp(-lam (s - tau)) B(s) U(s, tau) f(tau): free transport of
    the history into s, discounted at rate lam, then kicked once.  The
    accumulator form below is the nested-prefix evaluation of that
    quadrature (exact for composing U).
    """
    _check_lifted(model, f)
    if lam <= 0.0:
        raise PreconditionError("lam must be positive")
    nodes = f.axis.nodes
    h = f.axis.dt
    steps = _step_factors(model, nodes) * math.exp(-lam * h)
    acc = _trapezoid_kicks(steps, f.values[:-1], f.values[1:], h)
    _carry(steps, acc)
    out = np.zeros_like(f.values)
    out[1:] = model.perturbation.apply(nodes[1:], acc[1:])
    return LiftedVector(grid=f.grid, axis=f.axis, values=out)


def lifted_resolvent(model: PerturbedModel, lam: float, f: LiftedVector, *,
                     perturbed: bool = False) -> LiftedVector:
    """Solve (lam - generator) g = f by forward substitution.

    The generator is -d/dt - loss_rate(t) (upwind backward difference,
    zero inflow at time 0), optionally plus the kick block B(t).  The
    upwind structure makes the system block-lower-bidiagonal, so one
    sweep along the axis solves it; each diagonal block
    A_k = diag(lam + 1/h + loss_rate(t_k)) - B(t_k) is an M-matrix for
    lam > 0, so nonnegative data produce nonnegative solutions.  Without
    the kick the blocks are diagonal, and the sweep
    g_k = (f_k + g_{k-1} / h) / A_k is one node-wise carry over the axis.
    The perturbed sweep inverts every block in one batched call, then
    makes one d x d matvec per node.
    """
    _check_lifted(model, f)
    if lam <= 0.0:
        raise PreconditionError("lam must be positive")
    nodes = f.axis.nodes
    h = f.axis.dt
    diag = lam + 1.0 / h + _loss_rates(model, nodes)
    if np.any(diag <= 0.0):
        raise PreconditionError("generator diagonal must be positive for lam > 0")
    if not perturbed:
        out = f.values / diag
        _carry(1.0 / (h * diag[1:]), out)
        return LiftedVector(grid=f.grid, axis=f.axis, values=out)
    blocks = -_gain_blocks(model, nodes)
    idx = np.arange(f.grid.size)
    blocks[:, idx, idx] += diag
    inv = np.linalg.inv(blocks)
    del blocks
    out = np.matmul(inv, f.values[:, :, None])[:, :, 0]
    inv /= h
    for k in range(1, nodes.size):
        out[k] += inv[k] @ out[k - 1]
    return LiftedVector(grid=f.grid, axis=f.axis, values=out)


def lifted_generator_matrix(model: PerturbedModel, axis: TimeGrid, *,
                            perturbed: bool = False) -> np.ndarray:
    """Dense generator over the (time-node, grid-node) index set.

    Row-major ordering: unknown index k * d + i for axis node k and grid
    node i.  Intended for small-scale structure tests; the solver never
    materializes this.
    """
    nodes = axis.nodes
    h = axis.dt
    d = model.grid.size
    size = len(nodes) * d
    mat = np.zeros((size, size))
    eye = np.eye(d)
    rates = _loss_rates(model, nodes)
    blocks = _gain_blocks(model, nodes) if perturbed else None
    for k in range(nodes.size):
        block = -np.diag(1.0 / h + rates[k])
        if perturbed:
            block = block + blocks[k]
        mat[k * d:(k + 1) * d, k * d:(k + 1) * d] = block
        if k > 0:
            mat[k * d:(k + 1) * d, (k - 1) * d:k * d] = eye / h
    return mat


def kick_block_norm(model: PerturbedModel, axis: TimeGrid) -> float:
    """Weighted-norm bound of the kick blocks over the axis nodes.

    max over nodes t of the induced norm of B(t) on the weighted space:
    max_j sum_i w_i |B_ij| / w_j.
    """
    w = model.grid.weights
    return float(np.max((w @ np.abs(_gain_blocks(model, axis.nodes))) / w))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    """One check-suite entry: residual plus its horizon-truncation bound."""

    check_name: str
    h: float
    lam: float
    n: int
    residual: float
    truncation_bound: float


def resolvent_factorization_check(model: PerturbedModel, lam: float,
                                  f: LiftedVector) -> CheckRow:
    """Residual of: perturbed resolvent of (discounted kick of f)
    minus perturbed resolvent of f plus free resolvent of f.

    The continuum combination vanishes identically (insert the
    variation-of-constants identity under the Laplace integral); on the
    axis it is O(h) from the upwind difference.  No horizon truncation
    enters: resolvents and kick only look backward in time.
    """
    kicked = laplace_kick(model, lam, f)
    left = lifted_resolvent(model, lam, kicked, perturbed=True)
    mid = lifted_resolvent(model, lam, f, perturbed=True)
    right = lifted_resolvent(model, lam, f, perturbed=False)
    residual = LiftedVector(grid=f.grid, axis=f.axis,
                            values=left.values - mid.values + right.values).norm()
    return CheckRow(check_name="resolvent_factorization", h=f.axis.dt,
                    lam=lam, n=0, residual=residual, truncation_bound=0.0)


def _kick_blockwise(model: PerturbedModel, f: LiftedVector) -> LiftedVector:
    return LiftedVector(grid=f.grid, axis=f.axis,
                        values=model.perturbation.apply(f.axis.nodes, f.values))


def resolvent_series_check(model: PerturbedModel, lam: float, f: LiftedVector,
                           n_terms: int) -> np.ndarray:
    """Residuals of the geometric resolvent expansion, one per truncation.

    Entry n is the lifted norm of (perturbed resolvent of f) minus the
    partial sum over k <= n of (free resolvent (kick free resolvent)^k) f.
    The discrete expansion is an exact matrix identity, so the residuals
    decay geometrically with ratio about (kick norm)/lam; a ratio
    estimate >= 1 triggers a warning because no convergence is then
    claimed.
    """
    if n_terms < 0:
        raise PreconditionError("n_terms must be >= 0")
    ratio = kick_block_norm(model, f.axis) / lam
    if ratio >= 1.0:
        warnings.warn(
            f"kick-norm/lam ratio {ratio:.3f} >= 1: the resolvent expansion "
            "carries no convergence claim", stacklevel=2)
    target = lifted_resolvent(model, lam, f, perturbed=True)
    residuals = np.zeros(n_terms + 1)
    partial = np.zeros_like(f.values)
    term = lifted_resolvent(model, lam, f, perturbed=False)
    for n in range(n_terms + 1):
        partial = partial + term.values
        residuals[n] = LiftedVector(grid=f.grid, axis=f.axis,
                                    values=target.values - partial).norm()
        if n < n_terms:
            term = lifted_resolvent(model, lam, _kick_blockwise(model, term),
                                    perturbed=False)
    return residuals


def required_horizon(lam: float, tail: float = HORIZON_TAIL_LIMIT) -> float:
    """Shortest axis end time whose Laplace tail weight drops below ``tail``."""
    return math.log(1.0 / tail) / lam


def laplace_transform_check(model: PerturbedModel, lam: float, n: int,
                            f: LiftedVector) -> CheckRow:
    """Laplace transform of the n-th lifted iterate against the series term.

    Left side: trapezoid quadrature over t in [0, T_max] of
    exp(-lam t) (n-th lifted iterate at t) f.  Right side: free resolvent
    applied after n rounds of (kick, free resolvent).  Equal in the
    continuum; O(h) on the axis, plus the reported horizon-truncation
    bound exp(-lam T_max)/lam * norm(f).  The axis must use the trapezoid
    rule and satisfy exp(-lam T_max) < 1e-10 (raises with the required
    horizon).  Cost: one engine pass of n + 1 rows over the axis, plus one
    more when f(0) != 0.
    """
    _check_lifted(model, f)
    if lam <= 0.0:
        raise PreconditionError("lam must be positive")
    if n < 0:
        raise PreconditionError("iterate index must be >= 0")
    axis = f.axis
    if axis.rule != "trapezoid":
        raise PreconditionError(
            f"laplace_transform_check needs a trapezoid axis, got rule {axis.rule!r}")
    t_max = axis.t_end
    if math.exp(-lam * t_max) >= HORIZON_TAIL_LIMIT:
        raise PreconditionError(
            f"time horizon {t_max} too short for lam = {lam}; "
            f"need T_max >= {required_horizon(lam):.3f}"
        )
    h = axis.dt
    m = axis.n_steps

    # The left side at axis node k sums, over start nodes i <= k,
    # w_{k-i} exp(-lam (tau_k - tau_i)) (row n from tau_i to tau_k) f(tau_i)
    # with the trapezoid weights w of [0, T_max].  One engine pass with
    # source h f at every node and steps discounted by exp(-lam h) gives
    # that sum with every weight h; the pairs whose weight is h/2 are
    # corrected below: i = k (only row 0 is nonzero there) and
    # (k, i) = (M, 0).
    rows = _combined_rows(model, axis, h * f.values, False, lam)
    for _ in range(n):
        next(rows)
    lhs = next(rows)[0]
    if n == 0:
        lhs = lhs - 0.5 * h * f.values
    if np.any(f.values[0]):
        corner = iterate_right(model, axis, f.values[0], n, keep_rows=False).end_rows[n]
        lhs[m] -= 0.5 * h * math.exp(-lam * axis.nodes[m]) * corner

    rhs = lifted_resolvent(model, lam, f, perturbed=False)
    for _ in range(n):
        rhs = lifted_resolvent(model, lam, _kick_blockwise(model, rhs),
                               perturbed=False)
    residual = LiftedVector(grid=f.grid, axis=axis,
                            values=lhs - rhs.values).norm()
    bound = math.exp(-lam * t_max) / lam * f.norm()
    return CheckRow(check_name="laplace_transform", h=axis.dt, lam=lam, n=n,
                    residual=residual, truncation_bound=bound)


def write_check_suite_csv(path, rows) -> None:
    """Write check rows as CSV: check_name, h, lambda, n, residual, truncation_bound."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["check_name", "h", "lambda", "n", "residual",
                         "truncation_bound"])
        for row in rows:
            writer.writerow([row.check_name, repr(row.h), repr(row.lam),
                             row.n, repr(row.residual), repr(row.truncation_bound)])
