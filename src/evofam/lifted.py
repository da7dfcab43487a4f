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

Each check makes one ``_Resolvent`` for its (model, lam, axis): it checks
its arguments once and makes the diagonal lam + 1/h + loss_rate, the kick
blocks and their batched inverse at most once each.  The model is a
``loss_gain_model``: its ``loss_rate`` gives the diagonal in one call over
the axis, and the kick blocks are its B applied to the unit vectors.  The
discounted kick is a trapezoid quadrature, so it refuses an axis rule that
does not nest.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EvaluationError, PreconditionError, StructureError
from .evolution import (
    PerturbedModel,
    TimeGrid,
    _Flow,
    _b_rows,
    _check_table_bytes,
    _dense,
    _require_validated,
    _right_rows,
    _step_factors,
    iterate_right,
)
from .state_space import Grid, _readonly

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
        vals = _readonly(self.values)
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


def _gain_blocks(model: PerturbedModel, nodes: np.ndarray) -> np.ndarray:
    """B(tau_k) as dense matrices for every axis node, shape (K, d, d),
    checked finite as the engine checks its B rows: a failure names the
    first non-finite block's axis node and its first non-finite entry
    (row i, column j), and carries grid node i as ``node``."""
    _check_table_bytes("kick block table", nodes.size * model.grid.size ** 2 * 8)
    blocks = _dense(model.perturbation.apply, model.grid.size, nodes)
    if blocks.size and not (np.isfinite(blocks.min()) and np.isfinite(blocks.max())):
        k, i, j = np.unravel_index(np.argmin(np.isfinite(blocks)), blocks.shape)
        tau = float(nodes[k])
        raise EvaluationError(
            f"perturbation produced a non-finite block at axis node {k}, tau = {tau!r}, "
            f"grid row {i}, column {j}", tau=tau, node=int(i))
    return blocks


def _block_norm(w: np.ndarray, blocks: np.ndarray) -> float:
    return float(np.max((w @ np.abs(blocks)) / w))


# ---------------------------------------------------------------------------
# the lifted operators at lam: discounted kick and resolvents
# ---------------------------------------------------------------------------

class _Resolvent:
    """The lifted operators of one model at one lam on f's axis: f's grid,
    lam > 0 and the validated span are checked on construction, the
    diagonal and the kick blocks B(tau_k) are made when first read, and
    ``perturbed`` turns the blocks into A_k in place, so that with the
    inverse at most two (K, d, d) tables are alive."""

    def __init__(self, model: PerturbedModel, lam: float, f: LiftedVector):
        if f.grid != model.grid:
            raise StructureError("lifted vector grid does not match the model grid")
        if lam <= 0.0:
            raise PreconditionError("lam must be positive")
        _require_validated(model, f.axis.nodes[0], f.axis.nodes[-1], "axis")
        self.model, self.lam, self.axis = model, lam, f.axis

    def require_nested(self, what: str) -> None:
        if not self.axis._quadrature.nested:
            raise PreconditionError(f"{what} needs an axis rule whose weights nest, as the "
                                    f"trapezoid's do; got rule {self.axis.rule!r}")

    @cached_property
    def diag(self) -> np.ndarray:
        """lam + 1/h + loss_rate at every axis node, shape (K, d), checked positive."""
        diag = self.lam + 1.0 / self.axis.dt + self.model.loss_rate(self.axis.nodes)
        # written so that a nan loss rate fails too
        if not np.all(diag > 0.0):
            raise PreconditionError("generator diagonal must be positive for lam > 0")
        return diag

    @cached_property
    def blocks(self) -> np.ndarray:
        return _gain_blocks(self.model, self.axis.nodes)

    def kick(self, values: np.ndarray) -> np.ndarray:
        """The exponentially discounted kick of a history.

        At axis node s the output is the trapezoid quadrature over tau in
        [0, s] of exp(-lam (s - tau)) B(s) U(s, tau) f(tau): free transport
        of the history into s, discounted at rate lam, then kicked once.
        The quadrature takes the engine's one-step form (exact for
        composing U): the history's trapezoid kicks, formed by
        ``_Flow.kicks`` in the frame of the discounted flow, carried along
        the axis, then one B call.  An axis rule whose weights do not nest
        (midpoint) is refused.
        """
        self.require_nested("the discounted kick")
        nodes, h = self.axis.nodes, self.axis.dt
        flow = _Flow(_step_factors(self.model, nodes) * math.exp(-self.lam * h))
        acc = flow.kicks(values.copy(), h)
        flow.carry(acc, framed=True)
        out = np.zeros_like(values)
        out[1:] = _b_rows(self.model, "the discounted history", 0, nodes[1:], acc[1:])
        return out

    def perturbed(self, *rhs: np.ndarray) -> list[np.ndarray]:
        """The perturbed resolvent of each right-hand side from one batched
        block inverse, which this call uses up.

        It solves (lam - generator - B) g = f, the generator being
        -d/dt - loss_rate(t) by the upwind backward difference with zero
        inflow at time 0, by forward substitution: each diagonal block
        A_k = diag(lam + 1/h + loss_rate(t_k)) - B(t_k) is an M-matrix for
        lam > 0, so nonnegative data produce nonnegative solutions.  Every
        block is inverted in one batched call, then each node takes one
        d x d matvec.  Each right-hand side comes out bitwise as if solved
        alone: it takes its own products and its own sweep."""
        diag = self.diag
        blocks = np.negative(self.blocks, out=self.blocks)
        del self.blocks
        idx = np.arange(self.model.grid.size)
        blocks[:, idx, idx] += diag
        inv = np.linalg.inv(blocks)
        del blocks
        outs = [np.matmul(inv, values[:, :, None])[:, :, 0] for values in rhs]
        inv /= self.axis.dt
        for out in outs:
            for step, prev, cur in zip(inv[1:], out, out[1:]):
                cur += step @ prev
        return outs

    def series(self, values: np.ndarray) -> Iterator[np.ndarray]:
        """Terms n = 0, 1, ... of the resolvent series of a history: the free
        resolvent after n rounds of (kick, free resolvent), term 0 the free
        resolvent itself, whose sweep g_k = (f_k + g_{k-1} / h) / A_k
        (A_k = lam + 1/h + loss_rate(t_k), diagonal) is one node-wise carry
        over the axis.  Each is made when requested; consumers must not
        write to a term, since the next one is made from it."""
        diag = self.diag
        flow = _Flow(1.0 / (self.axis.dt * diag[1:]))
        term = values / diag
        for n in itertools.count():
            flow.carry(term)
            yield term
            term = _b_rows(self.model, f"resolvent series term {n}", n, self.axis.nodes,
                           term) / diag


def kick_block_norm(model: PerturbedModel, axis: TimeGrid) -> float:
    """Weighted-norm bound of the kick blocks over the axis nodes: the max
    over nodes t of the induced norm of B(t), max_j sum_i w_i |B_ij| / w_j."""
    _require_validated(model, axis.nodes[0], axis.nodes[-1], "axis")
    return _block_norm(model.grid.weights, _gain_blocks(model, axis.nodes))


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
    op = _Resolvent(model, lam, f)
    left, mid = op.perturbed(op.kick(f.values), f.values)
    right = next(op.series(f.values))
    residual = LiftedVector(grid=f.grid, axis=f.axis, values=left - mid + right).norm()
    return CheckRow(check_name="resolvent_factorization", h=f.axis.dt,
                    lam=lam, n=0, residual=residual, truncation_bound=0.0)


def resolvent_series_check(model: PerturbedModel, lam: float, f: LiftedVector,
                           n_terms: int) -> np.ndarray:
    """Residuals of the geometric resolvent expansion, one per truncation.

    Entry n is the lifted norm of (perturbed resolvent of f) minus the
    partial sum over k <= n of (free resolvent (kick free resolvent)^k) f.
    The discrete expansion is an exact matrix identity, so the residuals
    decay geometrically with ratio about (kick norm)/lam; a ratio
    estimate >= 1 triggers a warning because no convergence is then
    claimed.  The ratio is read off the blocks the perturbed solve inverts.
    """
    if n_terms < 0:
        raise PreconditionError("n_terms must be >= 0")
    op = _Resolvent(model, lam, f)
    ratio = _block_norm(model.grid.weights, op.blocks) / lam
    if ratio >= 1.0:
        warnings.warn(
            f"kick-norm/lam ratio {ratio:.3f} >= 1: the resolvent expansion "
            "carries no convergence claim", stacklevel=2)
    target = op.perturbed(f.values)[0]
    residuals = np.zeros(n_terms + 1)
    partial = np.zeros_like(f.values)
    for n, term in zip(range(n_terms + 1), op.series(f.values)):
        partial = partial + term
        residuals[n] = LiftedVector(grid=f.grid, axis=f.axis, values=target - partial).norm()
    return residuals


def laplace_transform_check(model: PerturbedModel, lam: float, n: int,
                            f: LiftedVector) -> CheckRow:
    """Laplace transform of the n-th lifted iterate against the series term.

    Left side: trapezoid quadrature over t in [0, T_max] of
    exp(-lam t) (n-th lifted iterate at t) f.  Right side: free resolvent
    applied after n rounds of (kick, free resolvent).  Equal in the
    continuum; O(h) on the axis, plus the reported horizon-truncation
    bound exp(-lam T_max)/lam * norm(f).  The axis must use the trapezoid
    rule and satisfy exp(-lam T_max) < 1e-10 (raises with the required
    horizon), and f must be nonnegative (a negative entry raises, naming
    its time and grid node).  Cost: row n is the last row of the suite cut at n (see
    ``_laplace_rows``): one engine pass of n + 1 rows over the axis, one
    row-less ``iterate_right`` to n when f(0) != 0, and n + 1 free
    resolvent sweeps.  A caller that wants rows 0..N takes them from one
    suite to N at that same cost.
    """
    return _laplace_rows(model, lam, f, n)[n]


def _laplace_rows(model: PerturbedModel, lam: float, f: LiftedVector,
                  n_max: int) -> list[CheckRow]:
    """The Laplace check rows for n = 0..n_max, in one pass at the cost of
    its last row (see ``laplace_transform_check``).  Row n and term n are
    prefixes of row n_max and term n_max, so each row comes out bitwise
    the same as a suite cut at its own n."""
    op = _Resolvent(model, lam, f)
    if n_max < 0:
        raise PreconditionError("iterate index must be >= 0")
    op.require_nested("laplace_transform_check")
    axis = f.axis
    t_max = axis.t_end
    if math.exp(-lam * t_max) >= HORIZON_TAIL_LIMIT:
        raise PreconditionError(
            f"time horizon {t_max} too short for lam = {lam}; "
            f"need T_max >= {math.log(1.0 / HORIZON_TAIL_LIMIT) / lam:.3f}"
        )
    h, m = axis.dt, axis.n_steps
    bound = math.exp(-lam * t_max) / lam * f.norm()

    # The left side at axis node k sums, over start nodes i <= k,
    # w_{k-i} exp(-lam (tau_k - tau_i)) (row n from tau_i to tau_k) f(tau_i)
    # with the trapezoid weights w of [0, T_max].  One engine pass with
    # source h f at every node and steps discounted by exp(-lam h) gives
    # that sum with every weight h; the pairs whose weight is h/2 are
    # corrected below: i = k (only row 0 is nonzero there) and
    # (k, i) = (M, 0).
    # the pass owns its source: row 0 is carried in place in h f
    rows = _right_rows(model, axis, h * f.values, n_max, [], lam=lam)
    corners = (iterate_right(model, axis, f.values[0], n_max, keep_rows=False).end_rows
               if np.any(f.values[0]) else None)
    out = []
    for n, row, rhs in zip(range(n_max + 1), rows, op.series(f.values)):
        # a fresh array: the pass makes row n + 1 in ``row``'s buffer
        lhs = row - 0.5 * h * f.values if n == 0 else row.copy()
        if corners is not None:
            lhs[m] -= 0.5 * h * math.exp(-lam * axis.nodes[m]) * corners[n]
        residual = LiftedVector(grid=f.grid, axis=axis, values=lhs - rhs).norm()
        out.append(CheckRow(check_name="laplace_transform", h=h, lam=lam, n=n,
                            residual=residual, truncation_bound=bound))
    return out
