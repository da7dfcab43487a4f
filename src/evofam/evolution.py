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
provides the mirrored ("left") recursion on operator matrices for
cross-validation, series summation with a tail-norm stopping rule, and
integral-identity residuals (variation-of-constants and two-interval
composition) used as discretization-error probes.  ``loss_gain_model`` is
the one constructor of a model, and every built-in application is one
call of it: a node-wise exponential loss flow perturbed by a time-scaled
gain matrix.  The gain
is given either as a dense matrix, applied as a matrix product in O(d^2)
per node, or for a strictly upper triangular product-form matrix
K[i, j] = f[i] g[j] (i < j) as the factor pair (f, g), applied as a tail
sum in O(d) per node.

Each time rule is one entry of ``_RULES``: its prefix weights and whether
they nest.  The trapezoid rule, whose weights nest, runs a one-step
propagation form of the prefix quadrature (kicks in ``_Flow.kicks``),
algebraically identical to direct prefix evaluation since ``U`` composes
exactly across intermediate times (a loss flow is exact in time, so to
rounding).  The midpoint rule, whose weights do not nest, runs the literal
direct evaluation, which also stays the reference the one-step path is
tested against.  A row's defect is a trapezoid integral under either rule.

Operators are applied in batches over a leading time axis: the one-step
survival factors U(tau_j, tau_{j-1}) are computed once per lattice, and B
acts on all M+1 nodes of a row in one call.  Each one-step row is then the
first-order recurrence c_j = e_j c_{j-1} + g_j along the lattice, which is
the cocycle law applied node by node: with the running products
P_j = e_1 ... e_j it is c_j = P_j (c_0 + sum over i <= j of g_i / P_i),
one prefix sum in the flow's own frame (``_Flow``), restarted wherever P
would leave [1e-150, 1e150].  The prefix sum is one ``np.cumsum`` on rows
under 256 floats and one add per node on wider rows; the two give the
same sums bitwise, and a row on a lattice prefix is bitwise the prefix of
the row on the whole lattice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .coefficients import SeparableCoefficient, TimeProfile
from .errors import (
    EvaluationError,
    ModelContractError,
    PreconditionError,
    SizeCapError,
    StructureError,
)
from .state_space import Grid, weighted_norm_array

_POSITIVITY_SLACK = 1e-15


# ---------------------------------------------------------------------------
# time lattice
# ---------------------------------------------------------------------------

def _trapezoid_weights(j: int, dt: float) -> np.ndarray:
    """Composite trapezoid weights for the integral over [tau_0, tau_j]."""
    w = np.zeros(j + 1)
    if j:
        w[:] = dt
        w[0] = w[j] = 0.5 * dt
    return w


def _midpoint_weights(j: int, dt: float) -> np.ndarray:
    """Composite midpoint weights for the integral over [tau_0, tau_j], with
    cells [tau_2i, tau_2i+2] (their centers are odd lattice nodes), closed
    with one trapezoid cell when j is odd."""
    w = np.zeros(j + 1)
    j_even = j - j % 2
    w[1:j_even:2] = 2.0 * dt
    if j != j_even:
        w[j - 1] += 0.5 * dt
        w[j] += 0.5 * dt
    return w


class _Rule(NamedTuple):
    """A time rule: ``weights(j, dt)``, its weights on nodes 0..j for the
    integral over [tau_0, tau_j], and whether they nest (see ``_RULES``)."""

    weights: Callable[[int, float], np.ndarray]
    nested: bool


# The one table of time rules, which every path that depends on the rule
# reads through its lattice.  Weights that nest, those on [tau_0, tau_j]
# being those on [tau_0, tau_{j-1}] plus the last step's, run the one-step
# path, whose kicks ``_Flow.kicks`` forms as the trapezoid's; any other
# rule runs the direct path.
_RULES = {
    "trapezoid": _Rule(_trapezoid_weights, nested=True),
    "midpoint": _Rule(_midpoint_weights, nested=False),
}
TIME_RULES = tuple(_RULES)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time lattice s = tau_0 < ... < tau_M = t_end with step dt.

    ``(t_end - s) / dt`` must be an integer to 1e-12 * dt.  ``t_end == s``
    is allowed as the degenerate single-node lattice (every quadrature on
    it is empty).  ``rule`` selects the prefix quadrature used for the
    iterate integrals.  A lattice whose nodes alone would exceed the table
    cap raises ``SizeCapError`` before it is allocated.  Two lattices are
    equal, and hash alike, when their s, t_end, dt and rule are.
    """

    s: float
    t_end: float
    dt: float
    rule: str = "trapezoid"
    n_steps: int = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _quadrature: _Rule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rule not in _RULES:
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
        _check_table_bytes("time lattice", (m + 1) * 8)
        nodes = self.s + self.dt * np.arange(m + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "n_steps", m)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_quadrature", _RULES[self.rule])

    def node_index(self, t: float) -> int:
        """Index of the lattice node equal to ``t`` (1e-12 relative), else error."""
        x = (t - self.s) / self.dt
        j = int(round(x)) if np.isfinite(x) else -1
        if j < 0 or j > self.n_steps or abs(self.nodes[j] - t) > 1e-12 * max(1.0, abs(t)):
            raise PreconditionError(f"time {t!r} does not lie on the lattice")
        return j


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Operator:
    """One operator of a model, ``apply`` being U's or B's closure.

    It stays a dataclass with an ``apply`` field, and every U and B call in
    the package goes through ``model.unperturbed.apply`` or
    ``model.perturbation.apply``, because the benchmark's tracer
    (``perfbench/tracing.py``) counts operator calls by swapping in
    ``dataclasses.replace(model.unperturbed, apply=...)`` and its
    ``perturbation`` twin.
    """

    apply: Callable[..., np.ndarray]


def _dense(apply, d: int, *times) -> np.ndarray:
    """An operator as dense matrices, column j being its apply to e_j: each
    time is broadcast over the d unit vectors, and rows are turned into
    columns; for arrays of K times, shape (K, d, d) from one batched apply."""
    shape = np.shape(times[0]) + (d,)
    times = [np.broadcast_to(np.asarray(t, dtype=float)[..., None], shape) for t in times]
    return np.swapaxes(apply(*times, np.broadcast_to(np.eye(d), shape + (d,))), -1, -2)


@dataclass(frozen=True)
class PerturbedModel:
    """A loss–gain model, made by ``loss_gain_model`` only.

    ``unperturbed.apply(t, s, u)`` is U(t, s) u for s <= t and
    ``perturbation.apply(t, u)`` is B(t) u, each time a scalar or an array
    of times of shape ``u.shape[:-1]``, one state per time (pair).  U acts
    node-wise by construction, U(t, s) u = exp(-(F(t) - F(s)) a) * u, so the
    engine propagates rows with the factors it gets by applying U to ones.
    ``loss_rate(t)`` is the per-node loss rate F'(t) a, shape (d,), or
    (K, d) at an array of K times; the lifted-space generator reads it.
    ``validated_span`` (optional) is the (first, last) time the model's
    contract was checked at; the engine refuses a lattice outside it.
    """

    name: str
    grid: Grid
    unperturbed: _Operator
    perturbation: _Operator
    loss_rate: Callable[[float], np.ndarray]
    validated_span: tuple[float, float] | None = None


def loss_gain_model(name: str, grid: Grid, loss: SeparableCoefficient,
                    gain_profile: TimeProfile, gain, gain_weights, *,
                    validated_span: tuple[float, float] | None = None) -> PerturbedModel:
    """The loss–gain model every built-in application reduces to.

    With ``loss`` the separable rate F'(t) a (F the antiderivative of its
    time profile, a its per-node factor), the unperturbed flow is the
    node-wise survival factor

        U(t, s) u = exp(-(F(t) - F(s)) a) * u,

    exact in time so it composes to rounding, and the perturbation is the
    time-scaled gain matrix

        B(t) u = q(t) K (v * u),

    with q = ``gain_profile``, K = ``gain`` (nonnegative, K[i, j] moving
    mass from node j to node i) and v = ``gain_weights``.  ``gain`` is
    either the dense matrix K, whose weights are folded in once so that
    B(t) u = q(t) (u @ (K v)^T), one matrix product in O(d^2) per node, or
    a tuple (f, g) of d-vectors standing for the strictly upper
    triangular K[i, j] = f[i] g[j] (i < j), applied in O(d) per node as

        B(t) u = q(t) f[i] sum_{j > i} g[j] v[j] u[j],

    the tail sums taken by one reversed cumulative sum, formed in place in
    the output (never as a total minus a prefix sum, which cancels where
    the tail is small), so a call allocates only its output.  The last
    node's gain is exactly 0.  Both operators batch over a leading time
    axis (see ``PerturbedModel``).  U raises ``PreconditionError``
    naming the first pair with s > t, where its factor would exceed 1.
    """
    d = grid.size
    a = loss.space
    v = np.asarray(gain_weights, dtype=float)
    if isinstance(gain, tuple):
        f, g = (np.asarray(h, dtype=float) for h in gain)
        gain_ok = f.shape == g.shape == (d,)
    else:
        mat = np.asarray(gain, dtype=float)
        gain_ok = mat.shape == (d, d)
    if a.shape != (d,) or not gain_ok or v.shape != (d,):
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

    if isinstance(gain, tuple):
        head, tail_weights = f[:-1], (g * v)[1:]

        def b_apply(t, u):
            out = np.empty(np.shape(u))
            # out[..., i] = sum over j > i of g_j v_j u_j, summed from
            # j = d-1 down: the products go into out[..., i] for j = i+1,
            # then one cumsum along the reversed view, in place
            np.multiply(u[..., 1:], tail_weights, out=out[..., :-1])
            tails = out[..., -2::-1]
            np.cumsum(tails, axis=-1, out=tails)
            out[..., :-1] *= head
            out[..., -1] = 0.0
            out *= np.asarray(q(t))[..., None]
            return out
    else:
        # the weights folded into the matrix once, on the first call so
        # that set-up does not pay for it, and the fold then replaces the
        # matrix: kv[j, i] = K[i, j] v[j]
        kv = None

        def b_apply(t, u):
            nonlocal kv, mat
            if kv is None:
                kv = np.multiply(mat.T, v[:, None], out=np.empty((d, d)))
                mat = None
            out = u @ kv
            out *= np.asarray(q(t))[..., None]
            return out

    return PerturbedModel(name=name, grid=grid, unperturbed=_Operator(u_apply),
                          perturbation=_Operator(b_apply), loss_rate=loss.value,
                          validated_span=validated_span)


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
    applied along row n, as the pass reduced it.  A full table also keeps
    ``iterates[n, j]``, row n at (tau_j, s) applied to u0, (n+1)(M+1) d
    floats.  A row-less table holds None there and keeps only O(n d)
    floats.
    """

    grid: Grid
    time_grid: TimeGrid
    u0: np.ndarray
    end_rows: np.ndarray
    iterate_norms: np.ndarray
    partial_norms: np.ndarray
    defects: np.ndarray
    iterates: np.ndarray | None = None

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
    """A fresh float copy of ``u0``: one finite coefficient per grid node."""
    arr = np.array(u0, dtype=float)
    if arr.ndim != 1:
        raise StructureError("state coefficients must be one-dimensional")
    if arr.size != grid.size:
        raise StructureError(
            f"state has {arr.size} coefficients on a grid of size {grid.size}")
    if not np.all(np.isfinite(arr)):
        raise StructureError("state coefficients must be finite")
    return arr


# Largest table either recursion may keep, and largest working set a row
# pass may hold at once.
_TABLE_MEMORY_CAP_BYTES = 256 * 1024 * 1024

# Arrays of (M+1) d floats a row pass holds at once.  From a start state:
# the flow's running products, row n and the output of a B call on it
# (a factor pair's tail sum is formed in place in that output); the next
# row's kicks then take one array beside the products and the B row,
# which is divided by them in place.  The direct path holds three too:
# row n+1, the B row, and per node the propagation of its weighted B
# rows (a view of them where those nodes are contiguous, as under the
# trapezoid; under the midpoint rule a gathered copy of the odd nodes).
# A per-node source is the pass's own and is carried in place as row 0.
# Its row 1 peaks twice at five: as it forms its end-point B rows (the
# products, row 0, which the Laplace check still reads, the step factors,
# their product with row 0 and the B call's output), and at its kicks
# (the products, row 0, the B row, the end-point rows and the kicks), so
# dropping the step factors would not lower the count.  Traced peaks of
# rows 0..3 by ``scripts/pass_peak.py`` (tracemalloc, numpy 2.4), each
# source made inside the count, in these arrays; what lies above the
# count is lattice vectors (the defect's weights and integrand among them)
# and numpy's fixed iterator buffers (up to about 197 KB):
#
#   path       gain    d = 128, M = 512   d = 512, M = 128   count
#   one-step   dense    3.16               3.18               3
#   one-step   pair     3.40               3.43               3
#   midpoint   dense    3.30               3.32               3
#   midpoint   pair     3.30               3.32               3
#   direct     dense    3.29               3.31               3
#   direct     pair     3.29               3.31               3
#   per-node   dense    5.14               5.11               5
#   per-node   pair     5.38               5.36               5
_PASS_ROWS = 3
_PER_NODE_PASS_ROWS = 5


def _check_table_bytes(what: str, bytes_needed: int) -> None:
    if bytes_needed > _TABLE_MEMORY_CAP_BYTES:
        raise SizeCapError(
            f"{what} would need {bytes_needed} bytes; cap is {_TABLE_MEMORY_CAP_BYTES}"
        )


def _check_pass_rows(model: PerturbedModel, tg: TimeGrid, rows: int) -> None:
    """Raise ``SizeCapError`` when ``rows`` arrays of (M+1) d floats
    would exceed the table cap."""
    _check_table_bytes("row pass working set", rows * (tg.n_steps + 1) * model.grid.size * 8)


def _source_rows(source: np.ndarray) -> int:
    """The arrays one pass from ``source`` holds (see ``_PASS_ROWS``)."""
    return _PER_NODE_PASS_ROWS if source.ndim == 2 else _PASS_ROWS


def _require_validated(model: PerturbedModel, first: float, last: float, what: str) -> None:
    """Raise PreconditionError when [first, last] leaves the model's
    ``validated_span`` (to 1e-12 relative); ``what`` names the interval."""
    if model.validated_span is None:
        return
    lo, hi = model.validated_span
    if first < lo - 1e-12 * max(1.0, abs(lo)) or last > hi + 1e-12 * max(1.0, abs(hi)):
        raise PreconditionError(f"{what} [{float(first)!r}, {float(last)!r}] leaves the span "
                                f"[{lo!r}, {hi!r}] model {model.name!r} was validated on")


def _check_row(row: np.ndarray, nodes: np.ndarray, n: int, scale: float) -> None:
    """Raise at the first lattice node, and its first grid node, where row
    n is non-finite or negative."""
    floor = -_POSITIVITY_SLACK * scale
    low = row.min(initial=0.0)
    if low >= floor and np.isfinite(row.max(initial=0.0)):
        return
    j = int(np.argmax((~np.isfinite(row) | (row < floor)).any(axis=1)))
    tau = float(nodes[j])
    finite = np.isfinite(row[j])
    if not finite.all():
        i = int(np.argmin(finite))
        raise EvaluationError(f"iterate row {n} contains non-finite values at tau = {tau!r}, "
                              f"grid node {i}", n=n, tau=tau, node=i)
    i = int(np.argmax(row[j] < floor))
    raise EvaluationError(
        f"iterate row {n} lost positivity at tau = {tau!r}, grid node {i} "
        f"(min coefficient {float(row[j].min())!r})", n=n, tau=tau, node=i)


def _step_factors(model: PerturbedModel, nodes: np.ndarray) -> np.ndarray:
    """One-step survival factors U(tau_j, tau_{j-1}) on ones, shape (M, d),
    each exp(-x) >= 0.

    Raises if a factor is not <= 1: a negative loss rate expands, and a nan
    one is not substochastic either.
    """
    m, d = nodes.size - 1, model.grid.size
    steps = model.unperturbed.apply(nodes[1:], nodes[:-1], np.broadcast_to(1.0, (m, d)))
    # written so that a nan maximum fails too
    if m and not steps.max() <= 1.0 + _POSITIVITY_SLACK:
        j, i = np.unravel_index(np.argmax(~(steps <= 1.0 + _POSITIVITY_SLACK)), steps.shape)
        raise ModelContractError(
            f"unperturbed flow U is not substochastic: step factor {float(steps[j, i])!r} "
            f"is not <= 1 on the step ending at tau = {float(nodes[j + 1])!r}, node index {i}")
    return steps


# A chunk of the carry holds its running products inside
# [_FLOW_FLOOR, 1 / _FLOW_FLOOR] in magnitude, so that an input divided by
# one cannot overflow unless the input itself is within 1e150 of overflow.
_FLOW_FLOOR = 1e-150

# Rows of at least ``_LOOP_ROW`` floats take their prefix sums by one
# in-place add per node, narrower rows by one ``np.cumsum`` along time; the
# two give bitwise the same sums.  ``np.cumsum`` along time costs about
# 2 us plus 4.5 ns per float at w = 128, the loop about 1 us per node
# plus 0.5 ns per float.  Time of the loop / ``np.cumsum`` on one chunk of
# (M + 1) x w floats, median of 15 paired rounds, range over 2 runs
# (``scripts/bench_carry.py``; 2-core Xeon, Python 3.11, numpy 2.4):
#
#   w       M = 8       M = 32      M = 128     M = 512
#   2       5.97-6.09   16.0-17.7   44.5-48.0   83.8-91.9
#   128     1.02-1.56   1.27-1.95   1.54-2.10   2.10-2.17
#   256     0.86        0.88-0.91   0.96-1.02   1.01
#   384     0.58-0.60   0.71-0.74   0.73-0.75   0.67-0.77
#   512     0.36-0.52   0.39-0.46   0.34-0.49   0.40-0.42
#   1024    0.28-0.29   0.24        0.19-0.27   0.15-0.17
#
# The two tie at 256 floats, and the loop wins from 384 on.
_LOOP_ROW = 256


def _in_band(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` lies in [floor, 1/floor] (False on a
    nan).  Every factor a flow is made of is >= 0: U's exp(-x), times
    exp(-lam dt), or the lifted series' 1/(h diag) with diag > 0."""
    return bool(a.min() >= _FLOW_FLOOR and a.max() <= 1.0 / _FLOW_FLOOR)


def _rows_in_band(a: np.ndarray) -> np.ndarray:
    """Per row of ``a``, whether every entry lies in the band."""
    rows = a.reshape(len(a), -1)
    return ((rows >= _FLOW_FLOOR) & (rows <= 1.0 / _FLOW_FLOOR)).all(axis=1)


def _first_out_of_band(block: np.ndarray) -> int | None:
    """Index of the first row of ``block`` with an entry outside the band."""
    if _in_band(block):
        return None
    return int(np.argmin(_rows_in_band(block)))


def _accumulate_loop(ufunc: np.ufunc, rows: np.ndarray) -> None:
    """rows[j] = ufunc(rows[j-1], rows[j]) for j = 1, 2, ... in place, one
    call per row."""
    views = list(rows)
    for prev, cur in zip(views, views[1:]):
        ufunc(cur, prev, out=cur)


def _accumulate_whole(ufunc: np.ufunc, rows: np.ndarray) -> None:
    """The same running results as ``_accumulate_loop`` (``ufunc`` is
    commutative), by one ``ufunc.accumulate`` along time."""
    ufunc.accumulate(rows, axis=0, out=rows)


def _accumulate(ufunc: np.ufunc, rows: np.ndarray) -> None:
    """Running sums or products of ``rows`` along time, in place, by the
    method ``_LOOP_ROW`` picks for the row width."""
    (_accumulate_loop if rows[0].size >= _LOOP_ROW else _accumulate_whole)(ufunc, rows)


class _Flow:
    """The lattice's one-step factors as running products, in chunks.

    The recurrence c_j = e_j c_{j-1} + g_j is the cocycle law applied node
    by node, so on a chunk that starts at node s with value c_s it is one
    prefix sum in the flow's own frame:

        c_j = P_j (c_s + sum over s < i <= j of g_i / P_i),
        P_j = e_{s+1} ... e_j.

    ``prod[j]`` holds P_j in the frame of the chunk that runs through or
    ends at node j (``prod[0]`` = 1).  A chunk runs on until the next
    product would leave the band [_FLOW_FLOOR, 1 / _FLOW_FLOOR] in some
    entry; the next chunk starts at the node before.  A step whose own factor leaves the band (an exact
    zero, say) is carried as one plain step, and holds ``prod`` = 1.
    Every product is the one before it times one factor, and each chunk
    boundary is fixed by the factors before it, so both are the same on
    any prefix of the lattice.  Planning costs O(M d) in all: the first
    window covers the whole lattice, and after each restart the window is
    twice the chunk just closed and doubles while no restart is found.
    """

    def __init__(self, steps: np.ndarray):
        m = len(steps)
        prod = np.empty((m + 1,) + steps.shape[1:])
        prod[0] = 1.0
        # (s, e, factor): a chunk from node s to node e carried in its
        # frame, or with e = s + 1 the plain step of factor ``factor``
        chunks: list[tuple[int, int, np.ndarray | None]] = []
        s = j = 0
        window = m
        # which factors lie in the band, checked for the whole lattice at
        # the first restart, so that many restarts cost O(1) calls each
        own_in_band = None
        while j < m:
            if j == s and not (_in_band(steps[s]) if own_in_band is None
                               else own_in_band[s]):
                prod[s + 1] = 1.0
                chunks.append((s, s + 1, steps[s].copy()))
                s = j = s + 1
                if own_in_band is None:
                    own_in_band = _rows_in_band(steps).tolist()
                continue
            end = min(m, j + window)
            block = prod[j + 1:end + 1]
            block[...] = steps[j:end]
            if j > s:
                block[0] *= prod[j]
            _accumulate(np.multiply, block)
            bad = _first_out_of_band(block)
            if bad is None:
                j = end
                window *= 2
                continue
            j += bad
            chunks.append((s, j, None))
            window = max(2 * (j - s), 16)
            s = j
            if own_in_band is None:
                own_in_band = _rows_in_band(steps).tolist()
        if j > s:
            chunks.append((s, j, None))
        self.prod = prod
        self.chunks = chunks

    def carry(self, out: np.ndarray, framed: bool = False) -> None:
        """Run the recurrence out[j] = e_j out[j-1] + out[j] in place.

        ``out[0]`` is the start and ``out[1:]`` the inputs g, shape
        (M+1, ...); with ``framed`` the inputs are already g_j / P_j (see
        ``kicks``).  Per chunk: add its start value, one prefix sum along
        time, multiply by P; unframed inputs are first divided by P in one
        call.  The prefix sum is one ``np.cumsum`` on rows under
        ``_LOOP_ROW`` floats and one add per node on wider ones.  Node j
        reads only nodes and factors before it, so a run on a prefix of the
        lattice gives bitwise the rows of the full run, and a non-finite
        input at node j leaves the nodes before j finite.
        """
        if not framed:
            np.divide(out, self.prod, out=out)
        for s, e, factor in self.chunks:
            if factor is not None:
                out[e] += factor * out[s]
                continue
            seg = out[s + 1:e + 1]
            seg[0] += out[s]
            _accumulate(np.add, seg)
            seg *= self.prod[s + 1:e + 1]

    def kicks(self, b_row: np.ndarray, dt: float, ends: np.ndarray | None = None) -> np.ndarray:
        """The one-step trapezoid kicks of a B row, framed for ``carry``.

        The kick into node j is g_j = dt/2 (e_j b_{j-1} + b_j), and since
        e_j / P_j = 1 / P_{j-1} inside a chunk, g_j / P_j is
        dt/2 (beta_{j-1} + beta_j) with beta = b / P: one divide and one add
        for the whole row.  ``ends`` (shape (M, ...)), when given, stands in
        for b_1..b_M as the steps' end-point rows.  The first kick of a
        chunk that starts at s > 0 reads b_s itself (P_s = 1 in that chunk's
        frame), and a plain step takes its kick unframed.  Row 0 of the
        result is 0.  ``b_row`` and ``ends`` are divided in place, and the
        kicks take one new array.
        """
        heads = [(s, e, factor, b_row[s].copy()) for s, e, factor in self.chunks
                 if s or factor is not None]
        beta = np.divide(b_row, self.prod, out=b_row)
        end_beta = beta[1:] if ends is None else np.divide(ends, self.prod[1:], out=ends)
        out = np.empty_like(beta)
        out[0] = 0.0
        np.add(beta[:-1], end_beta, out=out[1:])
        for s, e, factor, b_s in heads:
            if factor is not None:
                # prod[e] = 1 after a plain step, so end_beta[e - 1] is unframed
                out[e] = factor * b_s + end_beta[e - 1]
            else:
                out[s + 1] = b_s + end_beta[s]
        out *= 0.5 * dt
        return out


def _b_rows(model: PerturbedModel, kicked: str, n: int, taus: np.ndarray,
            states: np.ndarray) -> np.ndarray:
    """B(tau_j) states[j] for every node j in one call, checked finite
    once, into a new array (the one-step pass divides it in place).

    A failure names ``kicked``, what the states are (say "iterate 3"), and
    carries ``n``.  B raises only from its gain profile's domain (a power
    profile at t < 0, or with p < 0 at t = 0), whose message names the
    time; a non-finite output carries its first tau and grid node.
    """
    try:
        out = model.perturbation.apply(taus, states)
    except ModelContractError as exc:
        raise EvaluationError(f"perturbation evaluation failed at {kicked}: {exc}",
                              n=n) from exc
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
        j, i = divmod(int(np.argmin(np.isfinite(out))), out.shape[-1])
        tau = float(taus[j])
        raise EvaluationError(
            f"perturbation produced non-finite values at {kicked}, tau = {tau!r}, grid node {i}",
            n=n, tau=tau, node=i,
        )
    return out


def _refuse_negative(source: np.ndarray, nodes: np.ndarray) -> None:
    """Raise PreconditionError at the first negative entry of ``source``,
    naming its grid node and, for a per-node source, its lattice time."""
    if not source.min(initial=0.0) < 0.0:
        return
    k, i = divmod(int(np.argmax(source < 0.0)), source.shape[-1])
    where = f"tau = {float(nodes[k])!r}, grid node {i}" if source.ndim == 2 else f"grid node {i}"
    raise PreconditionError(f"the engine runs on nonnegative data only; the source is "
                            f"negative at {where}")


def _right_rows(model: PerturbedModel, tg: TimeGrid, source: np.ndarray, n_max: int,
                defects: list, direct: bool = False, lam: float = 0.0) -> Iterator[np.ndarray]:
    """One row pass: the values of rows n = 0..n_max, and their defects.

    ``source`` is either the start state u0 (shape (d,)), or one state per
    lattice node (shape (M+1, d), one-step recursion only), and must be
    nonnegative: honesty is a statement about the positive cone.  A
    per-node source starts one run at every node: row n at tau_k is then
    the sum over i <= k of (row n started at tau_i on source[i]) at tau_k,
    all in one pass.  ``lam`` discounts every step by exp(-lam dt), so each
    run is weighted by exp(-lam (tau_k - tau_i)).  A rule whose weights do
    not nest runs the direct path; ``direct`` forces it under the trapezoid
    rule too, as the reference the one-step path is tested against.

    The pass makes row n's B row, B(tau_j) row[j] at every node, in one
    call when the consumer asks past row n: for row n+1, or after row
    n_max, where the pass ends.  It reduces it at once to the defect D_n,
    the trapezoid integral over the lattice of its weighted norm (B is
    positive, so the B row of nonnegative data is its own absolute value),
    and appends D_n to ``defects``, a list the caller owns.  A consumer
    that stops after row n makes no B call on it.  Rows are read only; a
    start-state pass's count below assumes its consumer drops row n before
    it asks for row n+1.

    Cost per one-step row: one batched B call, its kicks divided by the
    flow's running products P in one call (see ``_Flow.kicks``), and one
    prefix sum along the lattice per chunk of ``_Flow`` (one chunk unless
    the flow decays past 1e-150 or has a factor below it).  Every row is
    prefix-stable: on a lattice cut at node c, rows 0..c come out bitwise
    the same as on the whole lattice.

    Memory: the pass holds ``_PASS_ROWS`` = 3 arrays of (M+1) d floats at
    once (``_PER_NODE_PASS_ROWS`` = 5 from a per-node source, which the
    pass owns: row 0 is carried in it in place).

    The arguments are checked when this is called, before any operator
    call: a lattice outside the model's ``validated_span`` (to 1e-12
    relative) and a negative source entry raise ``PreconditionError``, and
    a working set over the table cap raises ``SizeCapError``.
    """
    _require_validated(model, tg.s, tg.t_end, "lattice")
    direct = direct or not tg._quadrature.nested
    if source.ndim == 2 and direct:
        raise PreconditionError("a per-node source needs the one-step recursion")
    _refuse_negative(source, tg.nodes)
    _check_pass_rows(model, tg, _source_rows(source))
    return _row_pass(model, tg, source, n_max, defects, direct, lam)


def _row_pass(model: PerturbedModel, tg: TimeGrid, source: np.ndarray, n_max: int,
              defects: list, direct: bool, lam: float) -> Iterator[np.ndarray]:
    """The rows of ``_right_rows``, on the arguments it has checked."""
    nodes = tg.nodes
    m = tg.n_steps
    dt = tg.dt
    d = model.grid.size
    per_node = source.ndim == 2
    # the source is nonnegative, so its largest entry is its largest magnitude
    scale = max(float(source.max(initial=0.0)), 1e-300)
    # the defect is a trapezoid integral whatever the lattice rule
    trapezoid = _trapezoid_weights(m, dt)
    steps = _step_factors(model, nodes)
    if lam:
        steps = steps * np.exp(-lam * dt)
    flow = _Flow(steps)
    if not per_node:
        # the running products replace the factors; only the per-node
        # source's row 1 reads them again
        del steps
    ends = None

    # row 0: the unperturbed evolution of the source
    if per_node:
        # the pass owns a per-node source: row 0 is carried in it in place
        row = np.asarray(source, dtype=float)
    else:
        row = np.zeros((m + 1, d))
        row[0] = source
    del source  # so that row 0 dies once the pass and its caller are past it
    flow.carry(row)
    _check_row(row, nodes, 0, scale)
    if direct:
        del flow

    n = 0
    while True:
        yield row
        if per_node and n == 0 and n_max:
            # Row 1's end-point kick at tau_j acts on what row 0 carries
            # into tau_j, without node j's own source: the run started at
            # tau_j has no row-1 integral there yet.  Rows n >= 2 need no
            # such split, since every row n >= 1 is zero at its start node.
            ends = _b_rows(model, "iterate 0", 0, nodes[1:], steps * row[:-1])
            del steps
        b_row = _b_rows(model, f"iterate {n}", n, nodes, row)
        del row  # the pass reads row n no further
        defects.append(trapezoid @ (b_row @ model.grid.weights))
        if n == n_max:
            return

        n += 1
        if direct:
            row = np.zeros((m + 1, d))
            for j in range(1, m + 1):
                w = tg._quadrature.weights(j, dt)
                used = np.flatnonzero(w)
                if used[-1] - used[0] + 1 == used.size:
                    # contiguous nodes (the trapezoid's): a view, not a copy
                    used = slice(used[0], used[-1] + 1)
                row[j] = w[used] @ model.unperturbed.apply(nodes[j], nodes[used], b_row[used])
            del b_row
        else:
            # one-step propagation of the prefix trapezoid sums: row n at
            # tau_j is e_j (row n at tau_{j-1}) plus the step's kicks, formed
            # in the flow's frame from the B row of row n-1
            row = flow.kicks(b_row, dt, ends)
            b_row = ends = None  # the kicks divided them in place
            flow.carry(row, framed=True)
        _check_row(row, nodes, n, scale)


def iterate_right(model: PerturbedModel, tg: TimeGrid, u0, n_max: int,
                  *, keep_rows: bool = True) -> DysonPhillipsTable:
    """Build iterate rows 0..n_max on the lattice (production recursion).

    One row pass: each new row feeds the quadrature of the next, and each
    row is reduced as it is made to its t_end value and that value's
    weighted norm; its defect is the one the pass reduces from its B row
    (see ``_right_rows``).  With ``keep_rows`` (the default) every row is
    also kept for diagnostics; without, the table is row-less (see
    ``DysonPhillipsTable``).  ``u0`` must be nonnegative.
    Cost: O(n_max * M) operator applications under the trapezoid rule
    (one-step path), O(n_max * M^2) under the midpoint rule (direct path),
    with n_max + 1 batched B calls.
    Memory: the pass's working set, three arrays of (M+1) d floats, plus
    O(n_max d) kept, plus (n_max+1)(M+1) d floats with ``keep_rows``; what
    it keeps is checked against the table cap first.
    """
    coeffs = _as_coeffs(model.grid, u0)
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    grid = model.grid
    m = tg.n_steps
    d = grid.size
    _check_table_bytes("iterate table", (n_max + 1) * ((m + 1) * keep_rows + 1) * d * 8)
    end_rows = np.empty((n_max + 1, d))
    iterates = np.empty((n_max + 1, m + 1, d)) if keep_rows else None
    defects: list[float] = []
    n = 0
    for row in _right_rows(model, tg, coeffs, n_max, defects):
        end_rows[n] = row[m]
        if keep_rows:
            iterates[n] = row
        n += 1
        del row  # so that the pass can drop it while it makes the next row
    norms = np.array([weighted_norm_array(grid, end) for end in end_rows])
    return DysonPhillipsTable(
        grid=grid, time_grid=tg, u0=coeffs, end_rows=end_rows,
        iterate_norms=norms, partial_norms=np.cumsum(norms), defects=np.array(defects),
        iterates=iterates,
    )


# ---------------------------------------------------------------------------
# series summation
# ---------------------------------------------------------------------------

# The tail tolerance, relative to ||u0||, wherever a caller gives none:
# ``series_sum``, both residuals and the CLI's ``[engine] series_tol``.
_SERIES_TOL = 1e-10


@dataclass(frozen=True)
class SeriesResult:
    """Summed series at (t_end, s) with convergence metadata."""

    value: np.ndarray
    n_used: int
    converged: bool
    iterate_norms: np.ndarray


def _tail_sum(rows: Iterator[np.ndarray], take, grid: Grid, coeffs: np.ndarray,
              tol: float, n_max: int) -> SeriesResult:
    """Add ``row[take]`` of the rows 0, 1, ... of a pass from ``coeffs``
    onto a zero array, in row order, and stop after the first row whose
    t_end value ``row[-1]`` has norm <= ``tol * ||coeffs||`` (that row is
    still added), after row ``n_max``, or when ``rows`` runs out: the one
    tail rule of ``series_sum``, the residuals' fine pass and coarse sum."""
    bound = tol * weighted_norm_array(grid, coeffs)
    total = None
    norms: list[float] = []
    converged = False
    for row in islice(rows, n_max + 1):
        if total is None:
            total = np.zeros(row[take].shape)
        total += row[take]
        norms.append(weighted_norm_array(grid, row[-1]))
        del row  # so a pass can drop it while it makes the next row
        converged = norms[-1] <= bound
        if converged:
            break
    return SeriesResult(total, len(norms) - 1, converged, np.array(norms))


def _row_values(model: PerturbedModel, tg: TimeGrid, coeffs: np.ndarray,
                n_max: int) -> Iterator[np.ndarray]:
    """The rows 0..n_max of a pass whose defects no caller reads; the pass
    is asked for, and checks its arguments, when its first row is."""
    yield from _right_rows(model, tg, coeffs, n_max, [])


def series_sum(model: PerturbedModel, tg: TimeGrid, u0, *, tol: float = _SERIES_TOL,
               n_max: int = 40) -> SeriesResult:
    """Sum iterate rows at t_end until the newest row norm falls below
    ``tol * ||u0||`` (that row is still included), else flag non-convergence
    at ``n_max``.
    """
    coeffs = _as_coeffs(model.grid, u0)
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    return _tail_sum(_row_values(model, tg, coeffs, n_max), -1, model.grid, coeffs, tol, n_max)


# ---------------------------------------------------------------------------
# integral-identity residuals
# ---------------------------------------------------------------------------

# The residuals' reference lattice is this many times finer than the run's,
# and their series sums stop at this row if the tail has not.
_REFINE = 8
_RESIDUAL_ROWS = 40


def _duhamel_gap(model: PerturbedModel, tg: TimeGrid, coeffs: np.ndarray,
                 v_values) -> float:
    """How far family values at the lattice nodes miss the
    variation-of-constants identity at t_end, under the lattice rule."""
    _require_validated(model, tg.s, tg.t_end, "lattice")
    _refuse_negative(coeffs, tg.nodes)
    m = tg.n_steps
    v_values = np.asarray(v_values, dtype=float)
    if v_values.shape != (m + 1, model.grid.size):
        raise PreconditionError(
            f"family values must have shape {(m + 1, model.grid.size)}, got {v_values.shape}"
        )
    u_end = model.unperturbed.apply(tg.t_end, tg.s, coeffs)
    w = tg._quadrature.weights(m, tg.dt)
    used = np.flatnonzero(w)
    kicks = _b_rows(model, "the family values", 0, tg.nodes[used], v_values[used])
    integral = w[used] @ model.unperturbed.apply(tg.t_end, tg.nodes[used], kicks)
    return weighted_norm_array(model.grid, v_values[m] - u_end - integral)


def _flat_residuals(model: PerturbedModel, tg: TimeGrid, coeffs: np.ndarray,
                    table: DysonPhillipsTable | None = None, *, cocycle: bool = False,
                    tol: float = _SERIES_TOL) -> tuple[float, float | None]:
    """Duhamel residual and, with ``cocycle``, the cocycle residual.

    One run on the ``_REFINE``-times finer lattice gives the Duhamel
    reference values at the lattice nodes and, at t_end, the fine sum the
    cocycle residual holds the coarse one against.  The coarse sum is read
    off ``table`` (the ``iterate_right`` table of the same model, lattice
    and u0) as far as its rows go, and a fresh coarse run sums the rest.
    Engine runs: one, two with ``cocycle`` and a short or absent table.
    """
    grid = model.grid
    fine = TimeGrid(tg.s, tg.t_end, tg.dt / _REFINE, tg.rule)
    v_values = _tail_sum(_row_values(model, fine, coeffs, _RESIDUAL_ROWS),
                         slice(None, None, _REFINE),
                         grid, coeffs, tol, _RESIDUAL_ROWS).value
    duhamel = _duhamel_gap(model, tg, coeffs, v_values)
    if not cocycle:
        return duhamel, None
    # a fresh run's rows are bitwise the table's, so the sum is the same
    # wherever the table stops; the run starts only if the sum gets past it
    kept = () if table is None else table.end_rows[:, None]
    rows = chain(kept, islice(_row_values(model, tg, coeffs, _RESIDUAL_ROWS), len(kept), None))
    full = _tail_sum(rows, -1, grid, coeffs, tol, _RESIDUAL_ROWS).value
    return duhamel, weighted_norm_array(grid, full - v_values[-1])


def duhamel_residual(model: PerturbedModel, tg: TimeGrid, u0, v_values=None, *,
                     tol: float = _SERIES_TOL) -> float:
    """Variation-of-constants residual of supplied family values at t_end.

    ``v_values`` holds the perturbed family applied to u0 at every lattice
    node (shape (M+1, d)); by default it is the series summed on the
    8-times finer lattice (stopped on the tail at t_end by ``tol``, or at
    row 40), read at the lattice nodes, so it is accurate well below the
    lattice quadrature error.  The residual inserts those values into

        V u0  =  U u0  +  quadrature over r of  U(t_end, r) B(r) V(r, s) u0

    evaluated with the lattice rule, measuring how far the values are from
    satisfying the identity: O(dt^2) under the trapezoid rule for accurate
    values on smooth models.  (Feeding a table built at the same resolution
    back in returns series truncation noise instead — the recursion *is*
    this identity — which is why the reference values must come from a
    finer lattice or a closed form.)  ``u0`` must be nonnegative, with
    supplied values or without.
    """
    coeffs = _as_coeffs(model.grid, u0)
    if v_values is None:
        return _flat_residuals(model, tg, coeffs, tol=tol)[0]
    return _duhamel_gap(model, tg, coeffs, v_values)


def cocycle_residual(model: PerturbedModel, tg: TimeGrid, u0, r: float, *,
                     tol: float = _SERIES_TOL) -> float:
    """Two-interval composition residual || V(t,s)u0 - V(t,r) V(r,s) u0 ||.

    Computed as the t_end series sum on the lattice against the one on the
    8-times finer lattice, which ``duhamel_residual`` also runs (both
    stopped as there).  ``r`` must lie on the lattice and is only checked:
    on one lattice the legs compose exactly up to series truncation (the
    prefix weights factor across the split node; under the midpoint rule
    across an even node, as every node of the refined lattice is), so the
    composed side on the fine lattice is its own t_end sum, whatever
    ``r``.  At the coarse resolution it would leave the check blind to the
    O(dt^2) quadrature error it exists to expose.
    """
    coeffs = _as_coeffs(model.grid, u0)
    tg.node_index(r)
    return _flat_residuals(model, tg, coeffs, cocycle=True, tol=tol)[1]


# ---------------------------------------------------------------------------
# mirrored (left) recursion as operator matrices
# ---------------------------------------------------------------------------

@dataclass
class LeftIterates:
    """Left-recursion iterates: ``iterates[n, j]`` is iterate n from s to
    tau_j applied to u0, directly comparable with the production table."""

    grid: Grid
    time_grid: TimeGrid
    iterates: np.ndarray

    @property
    def n_max(self) -> int:
        return self.iterates.shape[0] - 1


# Most lattice steps the left recursion takes.
_LEFT_STEP_CAP = 64


def _left_bytes(m: int, n_max: int, d: int) -> int:
    """Bytes ``iterate_left`` holds at once on m steps, in arrays of
    (m+1) d^2 floats: m+1 each for the U and kick tables and for one
    node's weighted kicks (at most as large), n_max+1 each for that node's
    row of every iterate and for the start columns of all nodes, and one
    each for a row's copy and its product with the weighted kicks."""
    return (3 * (m + 1) + 2 * (n_max + 1) + 2) * (m + 1) * d * d * 8


def iterate_left(model: PerturbedModel, tg: TimeGrid, u0, n_max: int) -> LeftIterates:
    """Cross-validation recursion; mirrored integrand, on operator matrices.

    Iterate n+1 from tau_k to tau_j integrates (iterate n)(tau_j, r) B(r)
    U(r, tau_k) over r.  Cost O(n_max * M^3 * d^3) flops in one matrix
    product per (n, j), after one batched family-matrix build each for U
    and B; the lattice is capped at 64 steps, a memory guard refuses
    oversized working sets, and a lattice outside the model's
    ``validated_span`` or a negative entry of ``u0`` raises
    ``PreconditionError``.
    """
    coeffs = _as_coeffs(model.grid, u0)
    _require_validated(model, tg.s, tg.t_end, "lattice")
    _refuse_negative(coeffs, tg.nodes)
    m = tg.n_steps
    d = model.grid.size
    if m > _LEFT_STEP_CAP:
        raise SizeCapError(f"left recursion lattice has {m} steps; cap is {_LEFT_STEP_CAP}")
    _check_table_bytes("left recursion working set", _left_bytes(m, n_max, d))
    nodes = tg.nodes

    u_mat = np.zeros((m + 1, m + 1, d, d))
    jj, kk = np.tril_indices(m + 1)
    u_mat[jj, kk] = _dense(model.unperturbed.apply, d, nodes[jj], nodes[kk])
    b_mat = _dense(model.perturbation.apply, d, nodes)
    # kick[r, k] = B(tau_r) U(tau_r, tau_k): the shared right factor
    kick = np.einsum("rab,rkbc->rkac", b_mat, u_mat)
    del b_mat, jj, kk
    offsets = [tg._quadrature.weights(o, tg.dt) for o in range(m + 1)]

    # starts[n, j]: iterate n from tau_0 to tau_j, the column u0 meets
    starts = np.zeros((n_max + 1, m + 1, d, d))
    starts[0] = u_mat[:, 0]
    # row j of every iterate depends only on row j of the one before
    for j in range(1, m + 1):
        # block (r, k) of weighted: kick[r, k] times node r's weight on
        # [tau_k, tau_j], so that one matrix product sums over r for all k
        weighted = np.zeros((j + 1, d, j, d))
        for k in range(j):
            weighted[k:, :, k] = offsets[j - k][:, None, None] * kick[k:j + 1, k]
        weighted = weighted.reshape((j + 1) * d, j * d)
        rows = np.zeros((n_max + 1, j + 1, d, d))
        rows[0] = u_mat[j, :j + 1]
        for n in range(n_max):
            row = rows[n].transpose(1, 0, 2).reshape(d, (j + 1) * d)
            rows[n + 1, :j] = (row @ weighted).reshape(d, j, d).transpose(1, 0, 2)
        starts[:, j] = rows[:, 0]
        # freed before the next node's are made: the peak holds one of each
        del weighted, rows
    iterates = np.einsum("njab,b->nja", starts, coeffs)
    return LeftIterates(grid=model.grid, time_grid=tg, iterates=iterates)


def left_right_discrepancy(left: LeftIterates, right: DysonPhillipsTable) -> float:
    """Max weighted-L1 gap between the two recursions over all (n, node)."""
    _require_rows(right, "left_right_discrepancy")
    if left.time_grid != right.time_grid:
        raise PreconditionError(f"tables live on different time lattices: "
                                f"{left.time_grid} and {right.time_grid}")
    if left.grid != right.grid:
        raise PreconditionError("tables live on different state grids")
    n_common = min(left.n_max, right.n_max)
    diff = left.iterates[: n_common + 1] - right.iterates[: n_common + 1]
    gaps = np.abs(diff) @ left.grid.weights
    return float(gaps.max())
