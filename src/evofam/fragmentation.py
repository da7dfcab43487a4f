"""Non-autonomous fragmentation on a truncated mass grid.

Parents of size y break at rate ``a(t, y)`` into fragments distributed by
a daughter density ``b(x, y)`` supported strictly below the parent size.
States live on a uniform mass grid over [x_min, x_max] with weights x*dx,
so the weighted norm is the total mass; the daughter quadrature uses
plain dx weights, with the x-weighting carried by the norm.

Both built-in daughters factor as b(x, y) = f(x) g(y) on x < y, so their
gain at x_i is f_i times the tail sum over larger parents j > i of
g_j dx a(t, x_j) u_j.  Built from the factor pair of ``daughter_factors``,
a model's gain costs O(d) per node; built from a dense daughter matrix, it
is a matrix product, O(d^2) per node.  A pair model is also validated in
O(d) time and memory: it builds the d x d matrix only when a caller reads
``FragmentationModel.daughter``.

The mass constraint (integral of x*b(x, y) over fragments equals y) can
only hold up to truncation on a grid: fragments below x_min are simply
lost.  ``kernel_mass_check`` quantifies the per-parent deviation, and the
mass that the gain fails to return — visible as a positive ledger
residual of the series — is grid leakage, reported separately from the
honesty defect.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coefficients import (SeparableCoefficient, TimeProfile, entry_error,
                           require_finite_nonnegative, sample_nonnegative, sample_times)
from .errors import ModelContractError, PreconditionError, StructureError
from .evolution import (
    DysonPhillipsTable,
    PerturbedModel,
    TimeGrid,
    _as_coeffs,
    loss_gain_model,
)
from .honesty import mass_ledger
from .state_space import Grid, uniform_mass_grid


@dataclass(frozen=True)
class FragmentationModel:
    """Validated fragmentation model on a uniform mass grid.

    ``kernel`` is the daughter density b(x_i, x_j) in the form the model
    was built from: the dense matrix, strictly upper triangular (zero for
    x_i >= x_j), or the pair (f, g) with b(x_i, x_j) = f[i] g[j] for i < j
    (g rescaled with the columns; f[-1] and g[0] are never read).
    ``daughter`` is the dense matrix either way; a pair model builds it,
    d x d floats, on first read and keeps it.  ``dx`` is the uniform node
    spacing; ``normalization_residuals[j]`` the relative deviation of the
    plain-dx quadrature of x*b(x, x_j) from x_j measured at construction,
    before any normalization (the smallest parent has no grid fragments,
    so its residual is always 1).  ``validated_span`` is the (first, last)
    time the rate was sampled at.  ``normalized`` records whether columns
    were rescaled to satisfy the constraint exactly on the grid.
    """

    grid: Grid
    rate: SeparableCoefficient
    kernel: np.ndarray | tuple[np.ndarray, np.ndarray]
    dx: float
    normalization_residuals: np.ndarray
    validated_span: tuple[float, float]
    normalized: bool = False

    @functools.cached_property
    def daughter(self) -> np.ndarray:
        if isinstance(self.kernel, tuple):
            return _strict_upper(*self.kernel)
        return self.kernel


# ---------------------------------------------------------------------------
# daughter kernels
# ---------------------------------------------------------------------------

def daughter_factors(grid: Grid, kind: str, *,
                     nu: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Product factors (f, g) of the built-in daughter kinds: b(x_i, x_j) =
    f_i g_j for i < j, and zero on and below the diagonal.

    binary_uniform  b(x, y) = 2 / y for x < y (two fragments, uniform split):
                    f = 1, g = 2 / x
    powerlaw        b(x, y) = (nu + 2) x**nu / y**(nu + 1) for x < y:
                    f = (nu + 2) x**nu, g = x**-(nu + 1)
    Both satisfy the continuum mass constraint exactly.
    """
    x = grid.nodes
    with np.errstate(divide="ignore"):
        if kind == "binary_uniform":
            return np.ones(x.size), 2.0 / x
        if kind == "powerlaw":
            if nu <= -2.0:
                raise StructureError("powerlaw daughter exponent must exceed -2")
            return (nu + 2.0) * x ** nu, 1.0 / x ** (nu + 1.0)
    raise StructureError(f"unknown daughter kernel kind {kind!r}")


def _strict_upper(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The dense matrix with entries f_i g_j for i < j and zero elsewhere."""
    mat = np.outer(f, g)
    np.copyto(mat, 0.0, where=np.tri(*mat.shape, dtype=bool))
    return mat


def daughter_matrix(grid: Grid, kind: str, *, nu: float = 1.0) -> np.ndarray:
    """Dense daughter density matrix b(x_i, x_j) of ``daughter_factors``."""
    return _strict_upper(*daughter_factors(grid, kind, nu=nu))


def fragmentation_rate(grid: Grid, kind: str, params: dict | None = None) -> SeparableCoefficient:
    """Breakup rate a(t, x) built-ins.

    constant   a = value;  linear  a = scale * x;  power  a = scale * x**exponent
    product_t  a = scale * t * x**exponent
    """
    params = dict(params or {})
    x = grid.nodes
    if kind == "constant":
        return SeparableCoefficient(profile=TimeProfile(kind="constant",
                                                        c0=float(params.get("value", 1.0))),
                                    space=np.ones(grid.size))
    if kind == "linear":
        return SeparableCoefficient(profile=TimeProfile(kind="constant",
                                                        c0=float(params.get("scale", 1.0))),
                                    space=x.copy())
    if kind == "power":
        return SeparableCoefficient(profile=TimeProfile(kind="constant",
                                                        c0=float(params.get("scale", 1.0))),
                                    space=x ** float(params.get("exponent", 1.0)))
    if kind == "product_t":
        return SeparableCoefficient(profile=TimeProfile(kind="power",
                                                        c0=float(params.get("scale", 1.0)),
                                                        p=1.0),
                                    space=x ** float(params.get("exponent", 1.0)))
    raise StructureError(f"unknown fragmentation rate kind {kind!r}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _require_valid_pair(f: np.ndarray, g: np.ndarray) -> None:
    """Raise as ``require_finite_nonnegative`` does on the pair's dense
    matrix, naming the same first (i, j), in O(d) time and memory.

    Row i holds the products f_i g_j, j > i.  Rounding is monotone, so all
    are finite iff f_i times the largest |g_j| is (a nan or inf factor, or
    an overflow, makes that product non-finite), and none is negative iff
    neither f_i times the smallest nor times the largest g_j is (a product
    that rounds to -0.0 is not negative).  Suffix extrema of g[1:] give
    those bounds for every row at once; only a flagged row is built, and
    it raises only if its own products confirm the fault.
    """
    head, tail = f[:-1], g[1:]

    def suffix(extremum, h):
        return extremum.accumulate(h[::-1])[::-1]

    checks = (
        ("not finite",
         lambda: ~np.isfinite(head * suffix(np.maximum, np.abs(tail))),
         lambda row: ~np.isfinite(row)),
        ("negative",
         lambda: np.minimum(head * suffix(np.minimum, tail),
                            head * suffix(np.maximum, tail)) < 0.0,
         lambda row: row < 0.0),
    )
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        for problem, flagged, bad in checks:
            for i in np.flatnonzero(flagged()):
                hits = np.flatnonzero(bad(f[i] * tail[i:]))
                if hits.size:
                    raise entry_error("daughter matrix", problem, (int(i), int(i + 1 + hits[0])))


def _column_quadrature(grid: Grid, dx: float, kernel) -> np.ndarray:
    """Plain-dx quadrature sum_i dx x_i b(x_i, x_j) of each parent j's fragments.

    For a pair this is dx g_j times the exclusive prefix sum of x_i f_i
    over i < j, in O(d); the smallest parent's is exactly 0.  Where f is
    near the float maximum that sum can overflow while every f_i g_j is
    finite, so then, and only then, it is summed scaled down by 2^k, with
    2^k above d times the largest node, and its products scaled back up.
    """
    x = grid.nodes
    if isinstance(kernel, tuple):
        f, g = kernel
        quad = np.zeros(x.size)
        with np.errstate(over="ignore"):
            prefix = np.cumsum(x[:-1] * f[:-1])
        if np.isfinite(prefix[-1]):  # an overflow stays inf or nan to the end
            quad[1:] = dx * (g[1:] * prefix)
        else:
            k = x.size.bit_length() + max(int(np.frexp(x[-1])[1]), 0)
            prefix = np.cumsum(x[:-1] * np.ldexp(f[:-1], -k))
            quad[1:] = dx * np.ldexp(g[1:] * prefix, k)
        return quad
    return dx * (x @ kernel)


def _column_mass_residuals(grid: Grid, quad: np.ndarray) -> np.ndarray:
    """Relative deviation of each parent's fragment quadrature from x_j."""
    return np.abs(quad - grid.nodes) / grid.nodes


def fragmentation_model(grid: Grid, rate: SeparableCoefficient, daughter, *,
                        force_normalize: bool = False,
                        time_samples=None) -> FragmentationModel:
    """Validate and assemble a fragmentation model.

    ``daughter`` is either the dense matrix b(x_i, x_j) or a tuple (f, g)
    of product factors, b(x_i, x_j) = f_i g_j for i < j, as
    ``daughter_factors`` returns them.  The model keeps the form it was
    given.  A pair is validated in O(d) time and memory, from f[:-1], g[1:]
    and a prefix sum, and raises as its dense matrix would; the series
    engine then applies the gain as a tail sum in O(d) per node instead of
    the matrix product's O(d^2).  The grid must be a uniform mass grid
    (weights x*dx).  Validation checks the rate at ``time_samples`` (default
    and span as in ``collision_model``) and the daughter for sign and
    finiteness, zeroes nothing silently: a matrix's entries on or below the
    diagonal must already be zero.  The per-parent mass-constraint
    residuals are recorded, never gated: on a truncated grid the smallest
    parent has no grid fragments, so its residual is always 1.
    ``force_normalize`` rescales every column with grid support so that
    the constraint holds exactly on the grid (diagnostic use: isolates
    honesty/leakage effects from quadrature error); a pair's g is rescaled
    by the same column factors.
    """
    if grid.kind != "mass":
        raise StructureError("fragmentation needs a mass grid")
    diffs = np.diff(grid.nodes)
    if grid.size < 2:
        raise StructureError("fragmentation grid needs at least 2 nodes")
    dx = float(diffs[0])
    if np.max(np.abs(diffs - dx)) > 1e-12 * dx:
        raise StructureError("fragmentation grid must be uniformly spaced")

    times = sample_times(time_samples)
    sample_nonnegative(rate, times, grid.size, "breakup rate")

    if isinstance(daughter, tuple):
        kernel = tuple(np.ravel(np.asarray(h, dtype=float)) for h in daughter)
        shape = tuple(h.size for h in kernel)
    else:
        kernel = np.asarray(daughter, dtype=float)
        shape = kernel.shape
    if shape != (grid.size, grid.size):
        raise StructureError(
            f"daughter matrix shape {shape} does not match grid size {grid.size}"
        )
    if isinstance(kernel, tuple):
        # a pair has no entries on or below the diagonal to check
        _require_valid_pair(*kernel)
    else:
        require_finite_nonnegative(kernel, "daughter matrix")
        # each row's first nonzero column; the first row where it sits on or
        # below the diagonal holds the first offender in row-major order
        nonzero = kernel != 0.0
        first = nonzero.argmax(axis=1)
        rows = np.arange(grid.size)
        offending = np.flatnonzero(nonzero[rows, first] & (first <= rows))
        if offending.size:
            i = offending[0]
            j = first[i]
            raise ModelContractError(
                f"daughter matrix must vanish for x >= y; nonzero at (i, j) = ({i}, {j})"
            )

    quad = _column_quadrature(grid, dx, kernel)
    residuals = _column_mass_residuals(grid, quad)
    if force_normalize:
        scale = np.where(quad > 0.0, grid.nodes / np.where(quad > 0.0, quad, 1.0), 1.0)
        if isinstance(kernel, tuple):
            kernel = (kernel[0], kernel[1] * scale)
        else:
            kernel = kernel * scale[None, :]

    return FragmentationModel(grid=grid, rate=rate, kernel=kernel, dx=dx,
                              normalization_residuals=residuals,
                              validated_span=(float(times.min()), float(times.max())),
                              normalized=bool(force_normalize))


def binary_fragmentation_model() -> FragmentationModel:
    """The reference fragmentation model: binary-uniform daughter, linear
    rate a(t, x) = x, 64 uniform nodes on [1/64, 1], columns as built."""
    grid = uniform_mass_grid(1.0 / 64.0, 1.0, 64)
    rate = fragmentation_rate(grid, "linear")
    return fragmentation_model(grid, rate, daughter_factors(grid, "binary_uniform"))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def kernel_mass_check(model: FragmentationModel, t: float) -> np.ndarray:
    """Mass-constraint residual |quad(x b(x, y)) - y| / y of the active kernel.

    The quadrature runs over grid fragments below the parent (plain dx
    weights); the residual therefore mixes quadrature error O(dx) with
    truncation below x_min (dominant for small parents).  The built-in
    daughters are time-independent, so ``t`` does not affect the value;
    it stays in the signature for kernel generality.  Returns one residual
    per parent.
    """
    del t
    return _column_mass_residuals(model.grid,
                                  _column_quadrature(model.grid, model.dx, model.kernel))


def fragmentation_perturbed_model(model: FragmentationModel) -> PerturbedModel:
    """Adapt the fragmentation model to the series engine: loss at the
    breakup rate a = q(t) a(x), gain B(t) u = q(t) daughter @ (dx a(x) u),
    applied as the factored tail sum when the model keeps its factors.

    Never conservative: even with normalized columns the smallest
    parent has no grid fragments, so some breakup mass always leaks below
    x_min.
    """
    rate = model.rate
    return loss_gain_model("fragmentation", model.grid, rate, rate.profile, model.kernel,
                           model.dx * rate.space, validated_span=model.validated_span)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def mol_reference(model: FragmentationModel, tg: TimeGrid, u0, *,
                  substeps: int = 8) -> np.ndarray:
    """Method-of-lines reference: classical RK4 on the semi-discrete system.

    Integrates du/dt = -a(t, x) u + (fragment gain of u) on the model's
    own grid with fixed step tg.dt / substeps.  Shares the spatial
    discretization with the series engine, so the comparison isolates the
    time-integration error.
    """
    if substeps < 1:
        raise PreconditionError("substeps must be >= 1")
    coeffs = _as_coeffs(model.grid, u0)
    mat = model.daughter
    dx = model.dx

    def rhs(t, y):
        a = model.rate.value(t)
        return -a * y + dx * (mat @ (a * y))

    h = tg.dt / substeps
    y = coeffs
    t = tg.s
    for _ in range(tg.n_steps * substeps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def grid_leakage(table: DysonPhillipsTable) -> np.ndarray:
    """Mass unaccounted for by iterates + defect: loss below x_min, per n.

    For fragmentation tables the ledger residual is exactly the mass the
    gain failed to return because fragments fell below the grid; it is
    truncation, not dishonesty, and must never be folded into the defect.
    """
    return mass_ledger(table).residuals.copy()

