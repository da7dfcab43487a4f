"""Iteration engine for perturbed substochastic evolution families.

Given a two-parameter family ``U(t, s)`` (the unperturbed evolution) and a
time-dependent positive operator ``B(t)`` acting on a weighted-L1 grid
space, the engine builds the perturbation-series iterates

    row 0:    U(t, s) u0
    row n+1:  integral over r in [s, t] of U(t, r) B(r) (row n)(r, s) u0 dr

by composite quadrature on a uniform time lattice, together with the
partial sums whose limit is the perturbed evolution.  The module also
provides the mirrored ("left") recursion as an operator-matrix table for
cross-validation, series summation with a tail-norm stopping rule, and
integral-identity residuals (variation-of-constants and two-interval
composition) used as discretization-error probes.  ``loss_gain_model``
builds the one model form every built-in application takes: a node-wise
exponential loss flow perturbed by a time-scaled gain matrix.

Production evaluation uses a one-step propagation form of the prefix
trapezoid quadrature, which is algebraically identical to direct prefix
evaluation whenever ``U`` composes exactly across intermediate times (all
built-in families do, to rounding); the literal direct evaluation is kept
behind ``direct=True`` for cross-checks and for the midpoint rule, whose
prefix weights are not nested.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import csv

import numpy as np

from .coefficients import SeparableCoefficient, TimeProfile
from .errors import (
    EvaluationError,
    PreconditionError,
    SizeCapError,
    StructureError,
)
from .state_space import Grid, StateVector, weighted_norm_array

TIME_RULES = ("trapezoid", "midpoint")

_POSITIVITY_SLACK = 1e-15


# ---------------------------------------------------------------------------
# time lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time lattice s = tau_0 < ... < tau_M = t_end with step dt.

    ``(t_end - s) / dt`` must be an integer to 1e-12 * dt.  ``t_end == s``
    is allowed as the degenerate single-node lattice (every quadrature on
    it is empty).  ``rule`` selects the prefix quadrature used for the
    iterate integrals.
    """

    s: float
    t_end: float
    dt: float
    rule: str = "trapezoid"
    n_steps: int = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.rule not in TIME_RULES:
            raise StructureError(f"unknown quadrature rule {self.rule!r}; expected one of {TIME_RULES}")
        if not (np.isfinite(self.s) and np.isfinite(self.t_end) and np.isfinite(self.dt)):
            raise StructureError("time grid parameters must be finite")
        if self.dt <= 0.0:
            raise StructureError("time step must be positive")
        if self.t_end < self.s:
            raise StructureError("t_end must be >= s")
        span = self.t_end - self.s
        m = int(round(span / self.dt))
        if abs(span - m * self.dt) > 1e-12 * self.dt:
            raise StructureError(
                f"(t_end - s) = {span!r} is not an integer multiple of dt = {self.dt!r}"
            )
        nodes = self.s + self.dt * np.arange(m + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "n_steps", m)
        object.__setattr__(self, "nodes", nodes)

    def node_index(self, t: float) -> int:
        """Index of the lattice node equal to ``t`` (1e-12 relative), else error."""
        j = int(round((t - self.s) / self.dt))
        if j < 0 or j > self.n_steps or abs(self.nodes[j] - t) > 1e-12 * max(1.0, abs(t)):
            raise PreconditionError(f"time {t!r} does not lie on the lattice")
        return j


def prefix_weights(rule: str, j: int, dt: float) -> np.ndarray:
    """Quadrature weights for integral over [tau_0, tau_j] on nodes 0..j.

    trapezoid: the composite trapezoid rule.
    midpoint:  composite midpoint with cells [tau_2i, tau_2i+2] (their
               centers are odd lattice nodes), closed with one trapezoid
               cell when j is odd.  Node-restricted but not nested in j.
    """
    w = np.zeros(j + 1)
    if j == 0:
        return w
    if rule == "trapezoid":
        w[:] = dt
        w[0] = w[j] = 0.5 * dt
        return w
    if rule == "midpoint":
        j_even = j if j % 2 == 0 else j - 1
        w[1:j_even:2] = 2.0 * dt
        if j != j_even:
            w[j - 1] += 0.5 * dt
            w[j] += 0.5 * dt
        return w
    raise StructureError(f"unknown quadrature rule {rule!r}")


# ---------------------------------------------------------------------------
# families and models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionFamily:
    """Unperturbed two-parameter evolution on a grid space.

    ``apply(t, s, u)`` returns U(t, s) u for s <= t.  Contract: positivity-
    preserving, substochastic on nonnegative states, U(s, s) = identity,
    and exact two-interval composition up to rounding.
    """

    grid: Grid
    apply: Callable[[float, float, np.ndarray], np.ndarray]

    def as_matrix(self, t: float, s: float) -> np.ndarray:
        """U(t, s) as a dense matrix: column j is U(t, s) applied to unit vector j."""
        return np.column_stack([self.apply(t, s, e) for e in np.eye(self.grid.size)])


@dataclass(frozen=True)
class PerturbationFamily:
    """Time-dependent positive bounded operator B(t) on the grid space."""

    grid: Grid
    apply: Callable[[float, np.ndarray], np.ndarray]

    def as_matrix(self, t: float) -> np.ndarray:
        """B(t) as a dense matrix: column j is B(t) applied to unit vector j."""
        return np.column_stack([self.apply(t, e) for e in np.eye(self.grid.size)])


@dataclass(frozen=True)
class PerturbedModel:
    """Bundle of an unperturbed family, its perturbation, and metadata.

    ``loss_rate(t)`` (optional) returns the per-node multiplicative decay
    rates of the unperturbed family at time t; the lifted-space generator
    needs it.  ``conservative`` marks models whose perturbation exactly
    balances the unperturbed loss on nonnegative states.
    """

    name: str
    grid: Grid
    unperturbed: EvolutionFamily
    perturbation: PerturbationFamily
    loss_rate: Callable[[float], np.ndarray] | None = None
    conservative: bool = False

    def __post_init__(self):
        if self.unperturbed.grid != self.grid or self.perturbation.grid != self.grid:
            raise StructureError("model families must share the model grid")


def loss_gain_model(name: str, grid: Grid, loss: SeparableCoefficient,
                    gain_profile: TimeProfile, gain, gain_weights, *,
                    conservative: bool = False) -> PerturbedModel:
    """The loss–gain model every built-in application reduces to.

    With ``loss`` the separable rate F'(t) a (F the antiderivative of its
    time profile, a its per-node factor), the unperturbed flow is the
    node-wise survival factor

        U(t, s) u = exp(-(F(t) - F(s)) a) * u,

    exact in time so it composes to rounding, and the perturbation is the
    time-scaled gain matrix

        B(t) u = q(t) K (v * u),

    with q = ``gain_profile``, K = ``gain`` (nonnegative, K[i, j] moving
    mass from node j to node i) and v = ``gain_weights``.
    """
    d = grid.size
    a = loss.space
    mat = np.asarray(gain, dtype=float)
    v = np.asarray(gain_weights, dtype=float)
    if a.shape != (d,) or mat.shape != (d, d) or v.shape != (d,):
        raise StructureError("loss rate, gain matrix and gain weights must match the grid")
    antiderivative = loss.profile.antiderivative
    q = gain_profile.value

    def u_apply(t, s, u):
        return np.exp(-((antiderivative(t) - antiderivative(s)) * a)) * u

    def b_apply(t, u):
        return q(t) * (mat @ (v * u))

    return PerturbedModel(name=name, grid=grid,
                          unperturbed=EvolutionFamily(grid, u_apply),
                          perturbation=PerturbationFamily(grid, b_apply),
                          loss_rate=loss.value, conservative=conservative)


# ---------------------------------------------------------------------------
# iterate tables
# ---------------------------------------------------------------------------

@dataclass
class DysonPhillipsTable:
    """Iterate rows on the time lattice, with the perturbation applied.

    ``iterates[n, j]`` is row n evaluated at (tau_j, s) applied to u0;
    ``b_applied[n, j]`` is B(tau_j) applied to that state (row n+1's
    integrand, and the defect integrand).  Norms are taken at t_end.
    """

    grid: Grid
    time_grid: TimeGrid
    u0: np.ndarray
    iterates: np.ndarray
    b_applied: np.ndarray
    iterate_norms: np.ndarray
    partial_norms: np.ndarray
    defects: np.ndarray | None = None

    @property
    def n_max(self) -> int:
        return self.iterates.shape[0] - 1


def _as_coeffs(grid: Grid, u0) -> np.ndarray:
    if isinstance(u0, StateVector):
        if u0.grid != grid:
            raise StructureError("initial state lives on a different grid")
        return np.array(u0.coeffs, dtype=float)
    arr = np.asarray(u0, dtype=float)
    StateVector(grid, arr)  # validation only
    return arr.copy()


# Largest table either recursion may allocate.
_TABLE_MEMORY_CAP_BYTES = 256 * 1024 * 1024


def _check_table_bytes(what: str, bytes_needed: int) -> None:
    if bytes_needed > _TABLE_MEMORY_CAP_BYTES:
        raise SizeCapError(
            f"{what} table would need {bytes_needed} bytes; cap is {_TABLE_MEMORY_CAP_BYTES}"
        )


def _check_row(grid: Grid, row: np.ndarray, n: int, scale: float) -> None:
    if not np.all(np.isfinite(row)):
        raise EvaluationError(f"iterate row {n} contains non-finite values", n=n)
    low = float(row.min(initial=0.0))
    if low < -_POSITIVITY_SLACK * scale:
        raise EvaluationError(
            f"iterate row {n} lost positivity (min coefficient {low!r})", n=n
        )


def _b_rows(model: PerturbedModel, n: int, taus, states: np.ndarray) -> np.ndarray:
    """B(tau_j) states[j] for every node j, checked finite once for all rows."""
    apply = model.perturbation.apply
    out = np.empty_like(states)
    for j, tau in enumerate(taus):
        try:
            out[j] = apply(tau, states[j])
        except Exception as exc:
            raise EvaluationError(
                f"perturbation evaluation failed at iterate {n}, tau = {tau!r}: {exc}",
                n=n, tau=tau,
            ) from exc
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        tau = taus[int(np.argmin(np.isfinite(out).all(axis=1)))]
        raise EvaluationError(
            f"perturbation produced non-finite values at iterate {n}, tau = {tau!r}",
            n=n, tau=tau,
        )
    return out


def _right_rows(model: PerturbedModel, tg: TimeGrid, u0: np.ndarray,
                direct: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (row values, B-applied row) for n = 0, 1, ... on nonnegative u0."""
    u_fam = model.unperturbed
    nodes = tg.nodes
    m = tg.n_steps
    dt = tg.dt
    d = model.grid.size
    scale = max(float(np.max(np.abs(u0))) if u0.size else 0.0, 1e-300)

    # row 0: the unperturbed evolution of u0
    row = np.empty((m + 1, d))
    row[0] = u0
    for j in range(1, m + 1):
        row[j] = u_fam.apply(nodes[j], nodes[j - 1], row[j - 1])
    _check_row(model.grid, row, 0, scale)

    n = 0
    while True:
        b_row = _b_rows(model, n, nodes, row)
        yield row, b_row

        n += 1
        nxt = np.zeros_like(row)
        if direct or tg.rule != "trapezoid":
            for j in range(1, m + 1):
                w = prefix_weights(tg.rule, j, dt)
                acc = np.zeros(d)
                for k in range(j + 1):
                    if w[k] != 0.0:
                        acc += w[k] * u_fam.apply(nodes[j], nodes[k], b_row[k])
                nxt[j] = acc
        else:
            # one-step propagation of the prefix trapezoid sums
            carry = np.zeros(d)
            half = 0.5 * dt
            for j in range(1, m + 1):
                carry = u_fam.apply(nodes[j], nodes[j - 1], carry + half * b_row[j - 1])
                carry = carry + half * b_row[j]
                nxt[j] = carry
        _check_row(model.grid, nxt, n, scale)
        row = nxt


def _combined_rows(model: PerturbedModel, tg: TimeGrid, u0: np.ndarray,
                   direct: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row generator with signed initial data routed through decompose."""
    if np.all(u0 >= 0.0):
        yield from _right_rows(model, tg, u0, direct)
        return
    pos = np.maximum(u0, 0.0)
    neg = np.maximum(-u0, 0.0)
    gen_p = _right_rows(model, tg, pos, direct)
    gen_n = _right_rows(model, tg, neg, direct)
    for (row_p, b_p), (row_n, b_n) in zip(gen_p, gen_n):
        yield row_p - row_n, b_p - b_n


def _resolve_direct(tg: TimeGrid, direct: bool | None) -> bool:
    if direct is None:
        return tg.rule != "trapezoid"
    if direct is False and tg.rule != "trapezoid":
        raise PreconditionError("one-step propagation requires the trapezoid rule")
    return direct


def iterate_right(model: PerturbedModel, tg: TimeGrid, u0, n_max: int,
                  *, direct: bool | None = None) -> DysonPhillipsTable:
    """Build iterate rows 0..n_max on the lattice (production recursion).

    Each new row feeds the quadrature of the next; intermediate states and
    the perturbation applied to them are retained for diagnostics.  Signed
    initial data is split into positive/negative parts and recombined
    linearly.  Cost: O(n_max * M) operator applications on the one-step
    path, O(n_max * M^2) on the direct path.
    """
    coeffs = _as_coeffs(model.grid, u0)
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    use_direct = _resolve_direct(tg, direct)
    m = tg.n_steps
    d = model.grid.size
    _check_table_bytes("iterate", 2 * (n_max + 1) * (m + 1) * d * 8)
    iterates = np.empty((n_max + 1, m + 1, d))
    b_applied = np.empty_like(iterates)
    gen = _combined_rows(model, tg, coeffs, use_direct)
    for n in range(n_max + 1):
        row, b_row = next(gen)
        iterates[n] = row
        b_applied[n] = b_row
    norms = np.array([weighted_norm_array(model.grid, iterates[n, m]) for n in range(n_max + 1)])
    return DysonPhillipsTable(
        grid=model.grid, time_grid=tg, u0=coeffs,
        iterates=iterates, b_applied=b_applied,
        iterate_norms=norms, partial_norms=np.cumsum(norms),
    )


def partial_sum_states(table: DysonPhillipsTable, n: int) -> np.ndarray:
    """Partial sum of rows 0..n at every lattice node, shape (M+1, d)."""
    if n < 0 or n > table.n_max:
        raise PreconditionError(f"partial sum index {n} outside table range 0..{table.n_max}")
    return table.iterates[: n + 1].sum(axis=0)


# ---------------------------------------------------------------------------
# series summation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesResult:
    """Summed series at (t_end, s) with convergence metadata."""

    value: np.ndarray
    n_used: int
    converged: bool
    iterate_norms: np.ndarray

    def state(self, grid: Grid) -> StateVector:
        return StateVector(grid, self.value)


def series_sum(model: PerturbedModel, tg: TimeGrid, u0, *, tol: float = 1e-10,
               n_max: int = 40, direct: bool | None = None) -> SeriesResult:
    """Sum iterate rows at t_end until the newest row norm falls below
    ``tol * ||u0||`` (that row is still included), else flag non-convergence
    at ``n_max``.
    """
    coeffs = _as_coeffs(model.grid, u0)
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    use_direct = _resolve_direct(tg, direct)
    u0_norm = weighted_norm_array(model.grid, coeffs)
    m = tg.n_steps
    gen = _combined_rows(model, tg, coeffs, use_direct)
    total = np.zeros(model.grid.size)
    norms: list[float] = []
    for n in range(n_max + 1):
        row, _ = next(gen)
        total += row[m]
        rn = weighted_norm_array(model.grid, row[m])
        norms.append(rn)
        if rn <= tol * u0_norm:
            return SeriesResult(total, n, True, np.array(norms))
    return SeriesResult(total, n_max, False, np.array(norms))


# ---------------------------------------------------------------------------
# integral-identity residuals
# ---------------------------------------------------------------------------

def summed_family_values(model: PerturbedModel, tg: TimeGrid, u0, *,
                         tol: float = 1e-10, n_max: int = 40,
                         direct: bool | None = None) -> np.ndarray:
    """Summed series at every lattice node, shape (M+1, d).

    Same stopping rule as ``series_sum`` (tail norm measured at t_end).
    """
    coeffs = _as_coeffs(model.grid, u0)
    use_direct = _resolve_direct(tg, direct)
    u0_norm = weighted_norm_array(model.grid, coeffs)
    m = tg.n_steps
    gen = _combined_rows(model, tg, coeffs, use_direct)
    total = np.zeros((m + 1, model.grid.size))
    for _ in range(n_max + 1):
        row, _b = next(gen)
        total += row
        if weighted_norm_array(model.grid, row[m]) <= tol * u0_norm:
            break
    return total


def duhamel_residual(model: PerturbedModel, tg: TimeGrid, u0, v_values=None, *,
                     refine: int = 8, tol: float = 1e-12, n_max: int = 40) -> float:
    """Variation-of-constants residual of supplied family values at t_end.

    ``v_values`` holds the perturbed family applied to u0 at every lattice
    node (shape (M+1, d)); by default it is produced on a ``refine``-times
    finer lattice and restricted back, so it is accurate well below the
    lattice quadrature error.  The residual inserts those values into

        V u0  =  U u0  +  quadrature over r of  U(t_end, r) B(r) V(r, s) u0

    evaluated with the lattice rule, measuring how far the values are from
    satisfying the identity: O(dt^2) under the trapezoid rule for accurate
    values on smooth models.  (Feeding a table built at the same resolution
    back in returns series truncation noise instead — the recursion *is*
    this identity — which is why the reference values must come from a
    finer lattice or a closed form.)
    """
    coeffs = _as_coeffs(model.grid, u0)
    m = tg.n_steps
    d = model.grid.size
    if v_values is None:
        if refine < 2:
            raise PreconditionError("refine must be >= 2 to produce an independent reference")
        fine = TimeGrid(tg.s, tg.t_end, tg.dt / refine, tg.rule)
        v_values = summed_family_values(model, fine, coeffs, tol=tol, n_max=n_max)[::refine]
    v_values = np.asarray(v_values, dtype=float)
    if v_values.shape != (m + 1, d):
        raise PreconditionError(
            f"family values must have shape {(m + 1, d)}, got {v_values.shape}"
        )
    u_end = model.unperturbed.apply(tg.t_end, tg.s, coeffs)
    w = prefix_weights(tg.rule, m, tg.dt)
    used = np.flatnonzero(w)
    kicks = _b_rows(model, 0, tg.nodes[used], v_values[used])
    integral = np.zeros(d)
    for j, kick in zip(used, kicks):
        integral += w[j] * model.unperturbed.apply(tg.t_end, tg.nodes[j], kick)
    return weighted_norm_array(model.grid, v_values[m] - u_end - integral)


def cocycle_residual(model: PerturbedModel, tg: TimeGrid, u0, r: float, *,
                     v_apply: Callable[[float, float, np.ndarray], np.ndarray] | None = None,
                     refine: int = 8, tol: float = 1e-12, n_max: int = 40) -> float:
    """Two-interval composition residual || V(t,s)u0 - V(t,r) V(r,s) u0 ||.

    ``r`` must lie on the lattice (raises otherwise).  By default the
    full-interval value is summed at the lattice resolution while the
    composed side runs on ``refine``-times finer sub-lattices: summing at
    one shared resolution composes exactly up to series truncation (the
    prefix weights factor across interior nodes), which would leave the
    residual blind to the quadrature error this check exists to expose.
    Against the sharper composed reference the residual tracks the
    lattice's own O(dt^2) error.  Supplying ``v_apply(t, s, u)`` replaces
    the engine for all three evaluations (e.g. closed forms).
    """
    coeffs = _as_coeffs(model.grid, u0)
    tg.node_index(r)
    if v_apply is not None:
        full = v_apply(tg.t_end, tg.s, coeffs)
        second = v_apply(tg.t_end, r, v_apply(r, tg.s, coeffs))
        return weighted_norm_array(model.grid, full - second)
    if refine < 1:
        raise PreconditionError("refine must be >= 1")
    full = series_sum(model, tg, coeffs, tol=tol, n_max=n_max).value

    def fine(t2, s2, u2):
        return series_sum(model, TimeGrid(s2, t2, tg.dt / refine, tg.rule), u2,
                          tol=tol, n_max=n_max).value

    second = fine(tg.t_end, r, fine(r, tg.s, coeffs))
    return weighted_norm_array(model.grid, full - second)


# ---------------------------------------------------------------------------
# mirrored (left) recursion as operator matrices
# ---------------------------------------------------------------------------

@dataclass
class LeftIterates:
    """Left-recursion iterates as dense operator matrices.

    ``matrices[n, j, k]`` is iterate n as an operator from time tau_k to
    tau_j (zero for k > j); ``iterates[n, j]`` is the start-column operator
    applied to u0, directly comparable with the production table.
    """

    grid: Grid
    time_grid: TimeGrid
    u0: np.ndarray
    matrices: np.ndarray
    iterates: np.ndarray

    @property
    def n_max(self) -> int:
        return self.matrices.shape[0] - 1


def iterate_left(model: PerturbedModel, tg: TimeGrid, u0, n_max: int,
                 *, m_cap: int = 64) -> LeftIterates:
    """Cross-validation recursion; mirrored integrand, full operator table.

    Iterate n+1 from tau_k to tau_j integrates (iterate n)(tau_j, r) B(r)
    U(r, tau_k) over r.  Cost O(n_max * M^3) small matrix products and
    O(M^2) family-matrix evaluations, so the lattice is capped (default
    64 steps) and a memory guard refuses oversized tables.
    """
    coeffs = _as_coeffs(model.grid, u0)
    m = tg.n_steps
    d = model.grid.size
    if m > m_cap:
        raise SizeCapError(f"left recursion lattice has {m} steps; cap is {m_cap}")
    _check_table_bytes("left recursion", (n_max + 1) * (m + 1) ** 2 * d * d * 8)
    nodes = tg.nodes
    u_fam, b_fam = model.unperturbed, model.perturbation

    u_mat = np.zeros((m + 1, m + 1, d, d))
    for j in range(m + 1):
        for k in range(j + 1):
            u_mat[j, k] = u_fam.as_matrix(nodes[j], nodes[k])
    b_mat = np.stack([b_fam.as_matrix(nodes[r]) for r in range(m + 1)])
    # kick[r, k] = B(tau_r) U(tau_r, tau_k): the shared right factor
    kick = np.einsum("rab,rkbc->rkac", b_mat, u_mat)

    mats = np.zeros((n_max + 1, m + 1, m + 1, d, d))
    mats[0] = u_mat
    for n in range(n_max):
        for j in range(m + 1):
            for k in range(j + 1):
                w = prefix_weights(tg.rule, j - k, tg.dt)
                if j == k:
                    continue
                prod = mats[n, j, k:j + 1] @ kick[k:j + 1, k]
                mats[n + 1, j, k] = np.tensordot(w, prod, axes=(0, 0))
    iterates = np.einsum("njab,b->nja", mats[:, :, 0], coeffs)
    return LeftIterates(grid=model.grid, time_grid=tg, u0=coeffs,
                        matrices=mats, iterates=iterates)


def left_right_discrepancy(left: LeftIterates, right: DysonPhillipsTable) -> float:
    """Max weighted-L1 gap between the two recursions over all (n, node)."""
    if left.time_grid.nodes.shape != right.time_grid.nodes.shape or \
            not np.allclose(left.time_grid.nodes, right.time_grid.nodes):
        raise PreconditionError("tables live on different time lattices")
    n_common = min(left.n_max, right.n_max)
    diff = left.iterates[: n_common + 1] - right.iterates[: n_common + 1]
    gaps = np.abs(diff) @ left.grid.weights
    return float(gaps.max())


def iterate_binomial_check(left: LeftIterates, r: float) -> float:
    """Composition identity residual for the left table at split time r.

    Iterate n over [s, t] must equal the sum over k of (iterate k over
    [r, t]) composed with (iterate n-k over [s, r]); returns the max
    weighted-L1 residual over n when applied to the stored u0.
    """
    tg = left.time_grid
    jr = tg.node_index(r)
    m = tg.n_steps
    worst = 0.0
    for n in range(left.n_max + 1):
        lhs = left.matrices[n, m, 0] @ left.u0
        rhs = np.zeros_like(lhs)
        for k in range(n + 1):
            rhs += left.matrices[k, m, jr] @ (left.matrices[n - k, jr, 0] @ left.u0)
        worst = max(worst, weighted_norm_array(left.grid, lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# family contract diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDiagnostics:
    identity_residual: float
    substochastic_excess: float
    positivity_defect: float
    cocycle_residual: float
    perturbation_positivity_defect: float


def validate_family(model: PerturbedModel, times, trial_states) -> FamilyDiagnostics:
    """Probe the family contract on sample times and nonnegative states.

    Returns worst-case residuals for: U(s,s) = identity, norm contraction
    on nonnegative states, positivity of U and B, and two-interval
    composition of U.  Raising on violations is left to the caller so the
    same probe serves tests and CLI validation.
    """
    grid = model.grid
    times = sorted(float(t) for t in times)
    if len(times) < 2:
        raise PreconditionError("need at least two sample times")
    ident = sub_excess = pos_defect = coc = b_pos = 0.0
    for u in trial_states:
        coeffs = _as_coeffs(grid, u)
        if np.any(coeffs < 0.0):
            raise PreconditionError("trial states must be nonnegative")
        norm0 = weighted_norm_array(grid, coeffs)
        scale = max(norm0, 1e-300)
        for i, s in enumerate(times):
            ident = max(ident, weighted_norm_array(
                grid, model.unperturbed.apply(s, s, coeffs) - coeffs) / scale)
            for t in times[i + 1:]:
                ut = model.unperturbed.apply(t, s, coeffs)
                pos_defect = max(pos_defect, max(0.0, -float(ut.min())) / scale)
                sub_excess = max(sub_excess, (weighted_norm_array(grid, ut) - norm0) / scale)
                for r in times:
                    if s < r < t:
                        via = model.unperturbed.apply(t, r, model.unperturbed.apply(r, s, coeffs))
                        coc = max(coc, weighted_norm_array(grid, via - ut) / scale)
            bt = model.perturbation.apply(s, coeffs)
            b_pos = max(b_pos, max(0.0, -float(np.min(bt))) / scale)
    return FamilyDiagnostics(
        identity_residual=ident,
        substochastic_excess=sub_excess,
        positivity_defect=pos_defect,
        cocycle_residual=coc,
        perturbation_positivity_defect=b_pos,
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def write_table_csv(table: DysonPhillipsTable, path) -> None:
    """Dump iterate coefficients: columns n, tau, coeff_index, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "tau", "coeff_index", "value"])
        for n in range(table.n_max + 1):
            for j, tau in enumerate(table.time_grid.nodes):
                for i in range(table.grid.size):
                    writer.writerow([n, repr(float(tau)), i, repr(float(table.iterates[n, j, i]))])


def write_norm_summary_csv(table: DysonPhillipsTable, path) -> None:
    """Dump per-node norms: columns n, tau, iterate_norm, partial_sum."""
    norms = np.abs(table.iterates) @ table.grid.weights  # (N+1, M+1)
    partial = np.cumsum(norms, axis=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "tau", "iterate_norm", "partial_sum"])
        for n in range(table.n_max + 1):
            for j, tau in enumerate(table.time_grid.nodes):
                writer.writerow([n, repr(float(tau)), repr(float(norms[n, j])), repr(float(partial[n, j]))])
