"""Iteration engine for perturbed substochastic evolution families.

Given a two-parameter family ``U(t, s)`` (the unperturbed evolution) and a
time-dependent positive operator ``B(t)`` acting on a weighted-L1 grid
space, the engine builds the perturbation-series iterates

    row 0:    U(t, s) u0
    row n+1:  integral over r in [s, t] of U(t, r) B(r) (row n)(r, s) u0 dr

by composite quadrature on a uniform time lattice, together with the
partial sums whose limit is the perturbed evolution.  Each pass makes the
rows one at a time and holds O(M d) floats; ``iterate_right`` reduces
every row to its t_end value, norm and defect as it is made, and keeps
the full rows only on request.  The module also
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

Operators are applied in batches over a leading time axis: the one-step
survival factors U(tau_j, tau_{j-1}) are computed once per lattice, and B
acts on all M+1 nodes of a row in one call.  Each one-step row is then the
first-order recurrence c_j = e_j c_{j-1} + g_j along the lattice, run by a
blocked recursive carry: O(M d) work in O(K log_K M) numpy calls per row
(K = 8; rows of d >= 512 floats run the plain loop, O(M) calls), and
prefix-stable, so a row on a lattice prefix is bitwise the prefix of the
row on the whole lattice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import functools

import numpy as np

from .coefficients import SeparableCoefficient, TimeProfile
from .errors import (
    EvaluationError,
    ModelContractError,
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

    ``apply(t, s, u)`` returns U(t, s) u for s <= t.  ``t`` and ``s`` are
    scalars or arrays of times of shape ``u.shape[:-1]``, one state per
    time pair.  Contract: U acts node-wise (U(t, s) u = f(t, s) * u for a
    per-node factor f; every built-in model does, and the engine propagates
    rows with the factors f it gets by applying U to ones), positivity-
    preserving, substochastic on nonnegative states, U(s, s) = identity,
    and exact two-interval composition up to rounding.
    """

    grid: Grid
    apply: Callable[[float, float, np.ndarray], np.ndarray]

    def as_matrix(self, t, s) -> np.ndarray:
        """U(t, s) as a dense matrix, column j being U(t, s) e_j; for arrays
        of K times, shape (K, d, d) from one batched apply."""
        return _dense(self.apply, self.grid.size, t, s)


@dataclass(frozen=True)
class PerturbationFamily:
    """Time-dependent positive bounded operator B(t) on the grid space.

    ``apply(t, u)`` returns B(t) u; ``t`` is a scalar or an array of times
    of shape ``u.shape[:-1]``, one state per time.
    """

    grid: Grid
    apply: Callable[[float, np.ndarray], np.ndarray]

    def as_matrix(self, t) -> np.ndarray:
        """B(t) as a dense matrix, column j being B(t) e_j; for an array of K
        times, shape (K, d, d) from one batched apply."""
        return _dense(self.apply, self.grid.size, t)


def _dense(apply, d: int, *times) -> np.ndarray:
    """Apply to every unit vector at once: each time is broadcast over the d
    unit vectors, and rows are turned into columns."""
    shape = np.shape(times[0]) + (d,)
    times = [np.broadcast_to(np.asarray(t, dtype=float)[..., None], shape) for t in times]
    return np.swapaxes(apply(*times, np.broadcast_to(np.eye(d), shape + (d,))), -1, -2)


@dataclass(frozen=True)
class PerturbedModel:
    """Bundle of an unperturbed family, its perturbation, and metadata.

    ``loss_rate(t)`` (optional) returns the per-node multiplicative decay
    rates of the unperturbed family at time t, shape (d,), or at an array
    of K times, shape (K, d); the lifted-space generator needs it.  ``conservative`` marks models whose perturbation exactly
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
    mass from node j to node i) and v = ``gain_weights``.  Both operators
    batch over a leading time axis as the family contracts allow.  U
    raises ``PreconditionError`` naming the first pair with s > t, where
    its factor would exceed 1.
    """
    d = grid.size
    a = loss.space
    mat = np.asarray(gain, dtype=float)
    v = np.asarray(gain_weights, dtype=float)
    if a.shape != (d,) or mat.shape != (d, d) or v.shape != (d,):
        raise StructureError("loss rate, gain matrix and gain weights must match the grid")
    q = gain_profile.value

    def u_apply(t, s, u):
        if np.any(np.less(t, s)):
            t, s = np.broadcast_arrays(t, s)
            k = np.argmax(t < s)
            raise PreconditionError(
                f"U(t, s) needs s <= t, got s = {float(s.flat[k])!r}, t = {float(t.flat[k])!r}")
        out = loss.integral(s, t)
        np.negative(out, out=out)
        np.exp(out, out=out)
        return np.multiply(out, u, out=out)

    def b_apply(t, u):
        out = (u * v) @ mat.T
        out *= np.asarray(q(t))[..., None]
        return out

    return PerturbedModel(name=name, grid=grid,
                          unperturbed=EvolutionFamily(grid, u_apply),
                          perturbation=PerturbationFamily(grid, b_apply),
                          loss_rate=loss.value, conservative=conservative)


# ---------------------------------------------------------------------------
# iterate tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DysonPhillipsTable:
    """Iterate rows on the time lattice, reduced as the row pass makes them.

    Every table holds, per row n: ``end_rows[n]``, row n at (t_end, s)
    applied to u0; ``iterate_norms[n]``, its weighted norm;
    ``partial_norms[n]``, the sum of norms 0..n; and ``defects[n]``, the
    defect D_n, the trapezoid time integral of the weighted norm of B
    applied along row n.  A full table also keeps ``iterates[n, j]``, row
    n at (tau_j, s) applied to u0, and ``b_applied[n, j]``, B(tau_j)
    applied to that state (row n+1's integrand, and the defect
    integrand), 2 (n+1)(M+1) d floats.  A row-less table holds None in
    both and keeps only O(n d) floats.
    """

    grid: Grid
    time_grid: TimeGrid
    u0: np.ndarray
    end_rows: np.ndarray
    iterate_norms: np.ndarray
    partial_norms: np.ndarray
    defects: np.ndarray
    iterates: np.ndarray | None = None
    b_applied: np.ndarray | None = None

    @property
    def n_max(self) -> int:
        return self.end_rows.shape[0] - 1


def _require_rows(table: DysonPhillipsTable, what: str) -> None:
    """Raise PreconditionError, naming ``what``, on a row-less table."""
    if table.iterates is None:
        raise PreconditionError(
            f"{what} needs the full iterate rows; this table was built with "
            "keep_rows=False and holds only the t_end rows and per-row scalars")


def _as_coeffs(grid: Grid, u0) -> np.ndarray:
    if isinstance(u0, StateVector):
        if u0.grid != grid:
            raise StructureError("initial state lives on a different grid")
        return np.array(u0.coeffs, dtype=float)
    arr = np.asarray(u0, dtype=float)
    StateVector(grid, arr)  # validation only
    return arr.copy()


# Largest table either recursion may keep, and largest working set a row
# pass may hold at once.
_TABLE_MEMORY_CAP_BYTES = 256 * 1024 * 1024

# Arrays of (M+1) d floats a row pass holds at once: the step factors,
# row n, its B row, row n+1, and two temporaries of a B call (its input
# product and output, or on the direct path a gathered B row and its
# propagation).
_PASS_ROWS = 6


def _check_table_bytes(what: str, bytes_needed: int) -> None:
    if bytes_needed > _TABLE_MEMORY_CAP_BYTES:
        raise SizeCapError(
            f"{what} would need {bytes_needed} bytes; cap is {_TABLE_MEMORY_CAP_BYTES}"
        )


def _check_row(row: np.ndarray, nodes: np.ndarray, n: int, scale: float) -> None:
    """Raise at the first lattice node where row n is non-finite or negative."""
    floor = -_POSITIVITY_SLACK * scale
    low = row.min(initial=0.0)
    if low >= floor and np.isfinite(row.max(initial=0.0)):
        return
    finite = np.isfinite(row).all(axis=1)
    j = int(np.argmax(~finite | (row < floor).any(axis=1)))
    tau = float(nodes[j])
    if not finite[j]:
        raise EvaluationError(
            f"iterate row {n} contains non-finite values at tau = {tau!r}", n=n, tau=tau)
    raise EvaluationError(
        f"iterate row {n} lost positivity at tau = {tau!r} "
        f"(min coefficient {float(row[j].min())!r})", n=n, tau=tau)


def _step_factors(model: PerturbedModel, nodes: np.ndarray) -> np.ndarray:
    """One-step survival factors U(tau_j, tau_{j-1}) on ones, shape (M, d).

    Raises if ``U`` does not take arrays of times, or if a factor exceeds 1
    (the flow must be substochastic); the sign is left to the row
    positivity check.
    """
    m, d = nodes.size - 1, model.grid.size
    try:
        steps = model.unperturbed.apply(nodes[1:], nodes[:-1], np.broadcast_to(1.0, (m, d)))
    except (TypeError, ValueError) as exc:
        raise ModelContractError(
            f"U(t, s) must accept arrays of times of shape u.shape[:-1], one state per "
            f"time pair; the batched call on the {m} lattice steps failed: {exc}") from exc
    if m and steps.max() > 1.0 + _POSITIVITY_SLACK:
        j, i = np.unravel_index(np.argmax(steps > 1.0 + _POSITIVITY_SLACK), steps.shape)
        raise ModelContractError(
            f"unperturbed flow is not substochastic: step factor {float(steps[j, i])!r} "
            f"> 1 on the step ending at tau = {float(nodes[j + 1])!r}, node index {i}")
    return steps


# Block length of ``_carry``, and the row width (floats per row) from which
# it runs the plain loop at any length.  The blocked form makes about three
# passes over the data where the loop makes one, to save per-call overhead
# that rows this wide already amortize: on a 2-core Xeon with numpy 2.4 it
# measured slower than the loop at d = 512 for every length up to M = 1000,
# and faster at d = 256 from M = 256 on.
_CARRY_BLOCK = 8
_CARRY_WIDE_ROW = 512


def _carry(steps: np.ndarray, out: np.ndarray) -> None:
    """Run the recurrence out[j] = steps[j-1] * out[j-1] + out[j] in place.

    ``out[0]`` is the start and ``out[1:]`` the inputs, shape (M+1, ...);
    ``steps`` holds the M factors, shape (M, ...).  Rows 1..M fall into
    blocks of K = ``_CARRY_BLOCK`` rows.  Block 0 runs the plain loop from
    the start, which for M <= K, or rows of ``_CARRY_WIDE_ROW`` floats or
    more, is the whole run.  Every later block runs its local recurrence
    from zero, all blocks side by side; the true block ends are then
    chained by this same carry on the block products, and each block's
    carry-in is decayed through its other rows.  O(M) row work in
    O(K log_K M) numpy calls, with no division, so zero factors need no
    care.  Each row is computed by a rule fixed by its position, from rows
    and factors before it only: a run on a prefix of the lattice gives
    bitwise the rows of the full run.
    """
    m, k = len(steps), _CARRY_BLOCK
    if m <= k or out[0].size >= _CARRY_WIDE_ROW:
        for j in range(1, m + 1):
            out[j] += steps[j - 1] * out[j - 1]
        return
    scratch = np.empty((-(-m // k),) + out.shape[1:])
    # local recurrences: block 0 from the start, later blocks from zero
    out[1] += steps[0] * out[0]
    for i in range(1, k):
        n = (m - 1 - i) // k + 1
        np.multiply(steps[i::k], out[i:i + (n - 1) * k + 1:k], out=scratch[:n])
        out[1 + i::k] += scratch[:n]
    # chain the ends of the complete blocks through the block products
    full = m // k
    prods = steps[k:full * k].reshape((full - 1, k) + steps.shape[1:]).prod(axis=1)
    _carry(prods, out[k:full * k + 1:k])
    # decay each later block's carry-in through its rows before the end
    carry = scratch[:len(scratch) - 1]
    carry[...] = out[k:len(carry) * k + 1:k]
    for i in range(k - 1):
        rows = out[k + 1 + i::k]
        n = len(rows)
        carry[:n] *= steps[k + i::k]
        rows += carry[:n]


def _trapezoid_kicks(steps: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                     dt: float) -> np.ndarray:
    """One-step trapezoid kicks, the inputs of a ``_carry`` through ``steps``.

    Returns ``out`` of shape (M+1, ...) with out[0] = 0 and
    out[j] = dt/2 (steps[j-1] starts[j-1] + ends[j-1]): the kick at each
    step's start node carried to its end node, plus the kick there.  The
    caller runs the carry, so it can first drop inputs it no longer needs
    and keep them off the carry's peak.
    """
    out = np.zeros((len(steps) + 1,) + ends.shape[1:])
    np.multiply(steps, starts, out=out[1:])
    out[1:] += ends
    out[1:] *= 0.5 * dt
    return out


def _b_rows(model: PerturbedModel, n: int, taus: np.ndarray, states: np.ndarray) -> np.ndarray:
    """B(tau_j) states[j] for every node j in one call, checked finite once."""
    apply = model.perturbation.apply
    try:
        out = apply(taus, states)
    except Exception as exc:
        # error path only: find the first node that fails on its own
        for tau, state in zip(taus.tolist(), states):
            try:
                apply(tau, state)
            except Exception as node_exc:
                raise EvaluationError(
                    f"perturbation evaluation failed at iterate {n}, tau = {tau!r}: {node_exc}",
                    n=n, tau=tau,
                ) from node_exc
        raise EvaluationError(
            f"perturbation evaluation failed at iterate {n} on a batch of "
            f"{len(taus)} times, though every single time succeeds: {exc}", n=n,
        ) from exc
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
        tau = float(taus[int(np.argmin(np.isfinite(out).all(axis=1)))])
        raise EvaluationError(
            f"perturbation produced non-finite values at iterate {n}, tau = {tau!r}",
            n=n, tau=tau,
        )
    return out


# each row of a pass with its lazily applied B row
_Rows = Iterator[tuple[np.ndarray, Callable[[], np.ndarray]]]


def _right_rows(model: PerturbedModel, tg: TimeGrid, source: np.ndarray,
                direct: bool, lam: float = 0.0) -> _Rows:
    """Yield (row values, B of the row) for n = 0, 1, ... on nonnegative data.

    ``source`` is either the start state u0 (shape (d,)), or one state per
    lattice node (shape (M+1, d), one-step trapezoid recursion only).  A
    per-node source starts one run at every node: row n at tau_k is then
    the sum over i <= k of (row n started at tau_i on source[i]) at tau_k,
    all in one pass.  ``lam`` discounts every step by exp(-lam dt), so each
    run is weighted by exp(-lam (tau_k - tau_i)).

    B is applied lazily: the second item is a zero-argument callable that
    returns B(tau_j) row[j] at every node, computed once, on the first call
    or when row n+1 is requested.  A consumer that stops after row n and
    never calls it pays no B application on that row.

    Cost per one-step row: one batched B call and one ``_carry`` of the
    recurrence c_j = steps[j-1] c_{j-1} + g_j, O(M d) work in
    O(K log_K M) numpy calls (O(M) for d >= 512), with the inputs g built
    by whole-array operations.  Every row is prefix-stable: on a lattice cut at node c,
    rows 0..c come out bitwise the same as on the whole lattice.

    Memory: the pass holds ``_PASS_ROWS`` arrays of (M+1) d floats at
    once, and raises ``SizeCapError`` before any operator call when they
    would exceed the table cap (signed data runs two passes side by side).
    """
    nodes = tg.nodes
    m = tg.n_steps
    dt = tg.dt
    d = model.grid.size
    _check_table_bytes("row pass working set", _PASS_ROWS * (m + 1) * d * 8)
    per_node = source.ndim == 2
    if per_node and (direct or tg.rule != "trapezoid"):
        raise PreconditionError("a per-node source needs the one-step trapezoid recursion")
    scale = max(float(np.max(np.abs(source))) if source.size else 0.0, 1e-300)
    steps = _step_factors(model, nodes)
    if lam:
        steps = steps * np.exp(-lam * dt)

    # row 0: the unperturbed evolution of the source
    if per_node:
        row = np.array(source, dtype=float)
    else:
        row = np.zeros((m + 1, d))
        row[0] = source
    _carry(steps, row)
    _check_row(row, nodes, 0, scale)

    n = 0
    while True:
        lazy_b = functools.cache(functools.partial(_b_rows, model, n, nodes, row))
        yield row, lazy_b
        b_row = lazy_b()
        del lazy_b

        n += 1
        if direct or tg.rule != "trapezoid":
            nxt = np.zeros_like(row)
            for j in range(1, m + 1):
                w = prefix_weights(tg.rule, j, dt)
                used = np.flatnonzero(w)
                nxt[j] = w[used] @ model.unperturbed.apply(nodes[j], nodes[used], b_row[used])
            del b_row
        else:
            # one-step propagation of the prefix trapezoid sums: row n at
            # tau_j is steps[j-1] (row n at tau_{j-1}) plus the step's
            # kicks dt/2 (steps[j-1] b_{j-1} + b_j), b the B row of row n-1
            if per_node and n == 1:
                # Row 1's end-point kick at tau_j acts on what row 0 carries
                # into tau_j, without node j's own source: the run started
                # at tau_j has no row-1 integral there yet.  Rows n >= 2
                # need no such split, since every row n >= 1 is zero at its
                # start node.
                ends = _b_rows(model, 0, nodes[1:], steps * row[:-1])
            else:
                ends = b_row[1:]
            nxt = _trapezoid_kicks(steps, b_row[:-1], ends, dt)
            del b_row, ends
            _carry(steps, nxt)
        _check_row(nxt, nodes, n, scale)
        row = nxt


def _combined_rows(model: PerturbedModel, tg: TimeGrid, source: np.ndarray,
                   direct: bool, lam: float = 0.0) -> _Rows:
    """Row generator with signed data routed through decompose."""
    if np.all(source >= 0.0):
        yield from _right_rows(model, tg, source, direct, lam)
        return
    pos = np.maximum(source, 0.0)
    neg = np.maximum(-source, 0.0)
    gen_p = _right_rows(model, tg, pos, direct, lam)
    gen_n = _right_rows(model, tg, neg, direct, lam)
    for (row_p, b_p), (row_n, b_n) in zip(gen_p, gen_n):
        yield row_p - row_n, functools.cache(lambda b_p=b_p, b_n=b_n: b_p() - b_n())


def _resolve_direct(tg: TimeGrid, direct: bool | None) -> bool:
    if direct is None:
        return tg.rule != "trapezoid"
    if direct is False and tg.rule != "trapezoid":
        raise PreconditionError("one-step propagation requires the trapezoid rule")
    return direct


def iterate_right(model: PerturbedModel, tg: TimeGrid, u0, n_max: int,
                  *, direct: bool | None = None, keep_rows: bool = True) -> DysonPhillipsTable:
    """Build iterate rows 0..n_max on the lattice (production recursion).

    One row pass: each new row feeds the quadrature of the next, and each
    row is reduced as it is made to its t_end value, that value's weighted
    norm, and its defect.  With ``keep_rows`` (the default) every row and
    the perturbation applied to it are also kept for diagnostics; without,
    the table is row-less (see ``DysonPhillipsTable``).  Signed initial
    data is split into positive/negative parts and recombined linearly.
    Cost: O(n_max * M) operator applications on the one-step path,
    O(n_max * M^2) on the direct path.  Memory: the pass's O(M d) working
    set, plus O(n_max d) kept, plus 2 (n_max+1)(M+1) d floats with
    ``keep_rows``; what it keeps is checked against the table cap first.
    """
    coeffs = _as_coeffs(model.grid, u0)
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    use_direct = _resolve_direct(tg, direct)
    grid = model.grid
    m = tg.n_steps
    d = grid.size
    _check_table_bytes("iterate table", (n_max + 1) * (2 * (m + 1) * keep_rows + 1) * d * 8)
    end_rows = np.empty((n_max + 1, d))
    defects = np.empty(n_max + 1)
    iterates = np.empty((n_max + 1, m + 1, d)) if keep_rows else None
    b_applied = np.empty_like(iterates) if keep_rows else None
    w = prefix_weights("trapezoid", m, tg.dt)
    gen = _combined_rows(model, tg, coeffs, use_direct)
    for n in range(n_max + 1):
        row, lazy_b = next(gen)
        b_row = lazy_b()
        end_rows[n] = row[m]
        defects[n] = w @ (np.abs(b_row) @ grid.weights)
        if keep_rows:
            iterates[n] = row
            b_applied[n] = b_row
        del row, lazy_b, b_row  # so they die once the pass is past them
    norms = np.array([weighted_norm_array(grid, end) for end in end_rows])
    return DysonPhillipsTable(
        grid=grid, time_grid=tg, u0=coeffs, end_rows=end_rows,
        iterate_norms=norms, partial_norms=np.cumsum(norms), defects=defects,
        iterates=iterates, b_applied=b_applied,
    )


def partial_sum_states(table: DysonPhillipsTable, n: int) -> np.ndarray:
    """Partial sum of rows 0..n at every lattice node, shape (M+1, d)."""
    _require_rows(table, "partial_sum_states")
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
        row = next(gen)[0]
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
    return _summed_values(model, tg, coeffs, tol, n_max, _resolve_direct(tg, direct), 1)[0]


def _summed_values(model: PerturbedModel, tg: TimeGrid, coeffs: np.ndarray,
                   tol: float, n_max: int, direct: bool, stride: int,
                   split: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Summed series at every ``stride``-th lattice node (t_end included),
    and at node ``split`` alone.

    The strided sums stop on the tail at t_end; the sum at ``split`` stops,
    as ``series_sum`` on the lattice cut at that node would, on the tail
    there.  The pass draws rows until both have stopped (at most n_max + 1).
    The recursion is causal, so the sum at ``split`` is bitwise the one
    ``series_sum`` gives on the sub-lattice ending at that node.
    """
    grid = model.grid
    bound = tol * weighted_norm_array(grid, coeffs)
    m = tg.n_steps
    gen = _combined_rows(model, tg, coeffs, direct)
    total = np.zeros((m // stride + 1, grid.size))
    at_split = np.zeros(grid.size)
    open_all, open_split = True, split is not None
    for _ in range(n_max + 1):
        row = next(gen)[0]
        if open_all:
            total += row[::stride]
            open_all = weighted_norm_array(grid, row[m]) > bound
        if open_split:
            at_split += row[split]
            open_split = weighted_norm_array(grid, row[split]) > bound
        if not (open_all or open_split):
            break
    return total, at_split


def _table_series(table: DysonPhillipsTable, coeffs: np.ndarray, tol: float,
                  n_max: int) -> np.ndarray | None:
    """``series_sum``'s value read off a table's t_end rows, or None when the
    table stops before the series does."""
    bound = tol * weighted_norm_array(table.grid, coeffs)
    total = np.zeros(table.grid.size)
    for n in range(min(n_max, table.n_max) + 1):
        total += table.end_rows[n]
        if table.iterate_norms[n] <= bound:
            return total
    return total if table.n_max >= n_max else None


def _duhamel_gap(model: PerturbedModel, tg: TimeGrid, coeffs: np.ndarray,
                 v_values) -> float:
    """How far family values at the lattice nodes miss the
    variation-of-constants identity at t_end, under the lattice rule."""
    m = tg.n_steps
    v_values = np.asarray(v_values, dtype=float)
    if v_values.shape != (m + 1, model.grid.size):
        raise PreconditionError(
            f"family values must have shape {(m + 1, model.grid.size)}, got {v_values.shape}"
        )
    u_end = model.unperturbed.apply(tg.t_end, tg.s, coeffs)
    w = prefix_weights(tg.rule, m, tg.dt)
    used = np.flatnonzero(w)
    kicks = _b_rows(model, 0, tg.nodes[used], v_values[used])
    integral = w[used] @ model.unperturbed.apply(tg.t_end, tg.nodes[used], kicks)
    return weighted_norm_array(model.grid, v_values[m] - u_end - integral)


def _flat_residuals(model: PerturbedModel, tg: TimeGrid, coeffs: np.ndarray,
                    r: float | None = None, table: DysonPhillipsTable | None = None, *,
                    refine: int = 8, tol: float = 1e-12,
                    n_max: int = 40) -> tuple[float, float | None]:
    """Duhamel residual and, for a split time ``r``, cocycle residual.

    One run on the ``refine``-times finer lattice over [s, t_end] gives the
    Duhamel reference values and the cocycle's first leg V(r, s) u0; the
    second leg runs from r on its own fine lattice.  The full-interval
    value is read off ``table`` (the ``iterate_right`` table of the same
    model, lattice and u0) when it holds enough rows, else summed afresh.
    Engine runs: one without ``r``, two with it (three if the table is
    short or absent).
    """
    if refine < 2:
        raise PreconditionError("refine must be >= 2 to produce an independent reference")
    fine = TimeGrid(tg.s, tg.t_end, tg.dt / refine, tg.rule)
    split = None if r is None else tg.node_index(r) * refine
    v_values, first = _summed_values(model, fine, coeffs, tol, n_max,
                                     _resolve_direct(fine, None), refine, split)
    duhamel = _duhamel_gap(model, tg, coeffs, v_values)
    if r is None:
        return duhamel, None
    full = None if table is None else _table_series(table, coeffs, tol, n_max)
    if full is None:
        full = series_sum(model, tg, coeffs, tol=tol, n_max=n_max).value
    second = series_sum(model, TimeGrid(r, tg.t_end, fine.dt, tg.rule), first,
                        tol=tol, n_max=n_max).value
    return duhamel, weighted_norm_array(model.grid, full - second)


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
    if v_values is None:
        return _flat_residuals(model, tg, coeffs, refine=refine, tol=tol, n_max=n_max)[0]
    return _duhamel_gap(model, tg, coeffs, v_values)


def cocycle_residual(model: PerturbedModel, tg: TimeGrid, u0, r: float, *,
                     v_apply: Callable[[float, float, np.ndarray], np.ndarray] | None = None,
                     refine: int = 8, tol: float = 1e-12, n_max: int = 40) -> float:
    """Two-interval composition residual || V(t,s)u0 - V(t,r) V(r,s) u0 ||.

    ``r`` must lie on the lattice (raises otherwise).  By default the
    full-interval value is summed at the lattice resolution while the
    composed side runs on ``refine``-times finer lattices (``refine`` >= 2):
    summing at one shared resolution composes exactly up to series
    truncation (the prefix weights factor across interior nodes), which
    would leave the residual blind to the quadrature error this check
    exists to expose.  Against the sharper composed reference the residual
    tracks the lattice's own O(dt^2) error.  The first leg comes from the
    fine run over [s, t_end] that ``duhamel_residual`` makes, so calling
    both repeats that run.  Supplying ``v_apply(t, s, u)`` replaces the
    engine for all three evaluations (e.g. closed forms).
    """
    coeffs = _as_coeffs(model.grid, u0)
    tg.node_index(r)
    if v_apply is not None:
        full = v_apply(tg.t_end, tg.s, coeffs)
        second = v_apply(tg.t_end, r, v_apply(r, tg.s, coeffs))
        return weighted_norm_array(model.grid, full - second)
    return _flat_residuals(model, tg, coeffs, r, refine=refine, tol=tol, n_max=n_max)[1]


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
    U(r, tau_k) over r.  Cost O(n_max * M^3 * d^3) flops in one matrix
    product per (n, j), after one batched family-matrix build each for U
    and B; the lattice is capped (default 64 steps) and a memory guard
    refuses oversized tables.
    """
    coeffs = _as_coeffs(model.grid, u0)
    m = tg.n_steps
    d = model.grid.size
    if m > m_cap:
        raise SizeCapError(f"left recursion lattice has {m} steps; cap is {m_cap}")
    _check_table_bytes("left recursion table", (n_max + 1) * (m + 1) ** 2 * d * d * 8)
    nodes = tg.nodes

    u_mat = np.zeros((m + 1, m + 1, d, d))
    jj, kk = np.tril_indices(m + 1)
    u_mat[jj, kk] = model.unperturbed.as_matrix(nodes[jj], nodes[kk])
    b_mat = model.perturbation.as_matrix(nodes)
    # kick[r, k] = B(tau_r) U(tau_r, tau_k): the shared right factor
    kick = np.einsum("rab,rkbc->rkac", b_mat, u_mat)
    offsets = [prefix_weights(tg.rule, o, tg.dt) for o in range(m + 1)]

    mats = np.zeros((n_max + 1, m + 1, m + 1, d, d))
    mats[0] = u_mat
    # row j of every iterate depends only on row j of the one before
    for j in range(1, m + 1):
        # block (r, k) of weighted: kick[r, k] times node r's weight on
        # [tau_k, tau_j], so that one matrix product sums over r for all k
        weighted = np.zeros((j + 1, d, j, d))
        for k in range(j):
            weighted[k:, :, k] = offsets[j - k][:, None, None] * kick[k:j + 1, k]
        weighted = weighted.reshape((j + 1) * d, j * d)
        for n in range(n_max):
            row = mats[n, j, :j + 1].transpose(1, 0, 2).reshape(d, (j + 1) * d)
            mats[n + 1, j, :j] = (row @ weighted).reshape(d, j, d).transpose(1, 0, 2)
    iterates = np.einsum("njab,b->nja", mats[:, :, 0], coeffs)
    return LeftIterates(grid=model.grid, time_grid=tg, u0=coeffs,
                        matrices=mats, iterates=iterates)


def left_right_discrepancy(left: LeftIterates, right: DysonPhillipsTable) -> float:
    """Max weighted-L1 gap between the two recursions over all (n, node)."""
    _require_rows(right, "left_right_discrepancy")
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
