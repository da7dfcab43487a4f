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
is a matrix product, O(d^2) per node.

The mass constraint (integral of x*b(x, y) over fragments equals y) can
only hold up to truncation on a grid: fragments below x_min are simply
lost.  ``kernel_mass_check`` quantifies the per-parent deviation, and the
mass that the gain fails to return — visible as a positive ledger
residual of the series — is grid leakage, reported separately from the
honesty defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (SeparableCoefficient, TimeProfile, require_finite_nonnegative,
                           sample_nonnegative)
from .errors import ModelContractError, PreconditionError, StructureError
from .evolution import (
    DysonPhillipsTable,
    PerturbedModel,
    TimeGrid,
    _as_coeffs,
    _require_rows,
    iterate_right,
    loss_gain_model,
    prefix_weights,
)
from .honesty import DefectSeries, MassLedger, mass_ledger, table_verdict
from .state_space import Grid, uniform_mass_grid

# Largest per-parent mass-constraint residual that strict construction
# repairs by exact column normalization; anything larger is considered a
# modelling error rather than quadrature slack.
KERNEL_STRICT_LIMIT = 1e-3


@dataclass(frozen=True)
class FragmentationModel:
    """Validated fragmentation model on a uniform mass grid.

    ``daughter[i, j]`` is the daughter density b(x_i, x_j), strictly upper
    triangular (zero for x_i >= x_j); ``dx`` the uniform node spacing;
    ``normalization_residuals[j]`` the relative deviation of the plain-dx
    quadrature of x*b(x, x_j) from x_j measured at construction, before
    any normalization (the smallest parent has no grid fragments, so its
    residual is always 1).  ``normalized`` records whether columns were
    rescaled to satisfy the constraint exactly on the grid.  ``factors``
    is the pair (f, g) with daughter[i, j] = f[i] g[j] for i < j (g
    rescaled with the columns) when the model was built from one, else
    None.
    """

    grid: Grid
    rate: SeparableCoefficient
    daughter: np.ndarray
    dx: float
    normalization_residuals: np.ndarray
    normalized: bool = False
    factors: tuple[np.ndarray, np.ndarray] | None = None

    def rate_values(self, t: float) -> np.ndarray:
        return np.asarray(self.rate.value(t), dtype=float)


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

def _column_mass_residuals(grid: Grid, dx: float, daughter: np.ndarray) -> np.ndarray:
    """Relative deviation of sum_i dx * x_i * b[i, j] from x_j, per parent j."""
    quad = dx * (grid.nodes @ daughter)
    return np.abs(quad - grid.nodes) / grid.nodes


def fragmentation_model(grid: Grid, rate: SeparableCoefficient, daughter, *,
                        strict: bool = False, force_normalize: bool = False,
                        kernel_tol: float = KERNEL_STRICT_LIMIT,
                        time_samples=None) -> FragmentationModel:
    """Validate and assemble a fragmentation model.

    ``daughter`` is either the dense matrix b(x_i, x_j) or a tuple (f, g)
    of product factors, b(x_i, x_j) = f_i g_j for i < j, as
    ``daughter_factors`` returns them.  A pair is expanded once to its
    dense matrix, which is validated and stored exactly as a matrix would
    be; the model also keeps the pair, and the series engine then applies
    the gain as a tail sum in O(d) per node instead of the matrix product's
    O(d^2).  The grid must be a uniform mass grid (weights x*dx).  Validation
    checks the rate and daughter for sign and finiteness, zeroes nothing
    silently: daughter entries on or below the diagonal must already be
    zero.  Strict mode requires every parent's mass-constraint residual
    below ``kernel_tol`` and then normalizes columns exactly; that is a
    fine-grid regime — on coarse truncated grids small parents always
    fail (the smallest has residual 1), so the default is lenient with
    residuals recorded.  ``force_normalize`` rescales every column with
    grid support regardless of the gate (diagnostic use: isolates
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

    if time_samples is None:
        time_samples = np.linspace(0.0, 1.0, 9)
    sample_nonnegative(rate, np.asarray(time_samples, dtype=float), grid.size,
                       "breakup rate")

    if isinstance(daughter, tuple):
        factors = tuple(np.ravel(np.asarray(h, dtype=float)) for h in daughter)
        shape = tuple(h.size for h in factors)
    else:
        factors, mat = None, np.asarray(daughter, dtype=float)
        shape = mat.shape
    if shape != (grid.size, grid.size):
        raise StructureError(
            f"daughter matrix shape {shape} does not match grid size {grid.size}"
        )
    if factors is not None:
        mat = _strict_upper(*factors)
    require_finite_nonnegative(mat, "daughter matrix")
    # each row's first nonzero column; the first row where it sits on or
    # below the diagonal holds the first offender in row-major order
    nonzero = mat != 0.0
    first = nonzero.argmax(axis=1)
    rows = np.arange(grid.size)
    offending = np.flatnonzero(nonzero[rows, first] & (first <= rows))
    if offending.size:
        i = offending[0]
        j = first[i]
        raise ModelContractError(
            f"daughter matrix must vanish for x >= y; nonzero at (i, j) = ({i}, {j})"
        )

    residuals = _column_mass_residuals(grid, dx, mat)
    normalized = False
    if strict:
        worst = float(np.max(residuals))
        if worst >= kernel_tol:
            j = int(np.argmax(residuals))
            raise ModelContractError(
                f"mass-constraint residual {worst:.3e} at parent node {j} "
                f"exceeds the strict gate {kernel_tol:.0e}; use lenient mode "
                "on truncated grids"
            )
        force_normalize = True
    if force_normalize:
        quad = dx * (grid.nodes @ mat)
        scale = np.where(quad > 0.0, grid.nodes / np.where(quad > 0.0, quad, 1.0), 1.0)
        mat = mat * scale[None, :]
        if factors is not None:
            factors = (factors[0], factors[1] * scale)
        normalized = True

    return FragmentationModel(grid=grid, rate=rate, daughter=mat, dx=dx,
                              normalization_residuals=residuals,
                              normalized=normalized, factors=factors)


def binary_fragmentation_model(x_min: float = 1.0 / 64.0, x_max: float = 1.0,
                               n: int = 64, *, rate_kind: str = "linear",
                               rate_params: dict | None = None,
                               **kwargs) -> FragmentationModel:
    """Binary-uniform daughter with a(t, x) built-in rate on a uniform grid."""
    grid = uniform_mass_grid(x_min, x_max, n)
    rate = fragmentation_rate(grid, rate_kind, rate_params)
    return fragmentation_model(grid, rate, daughter_factors(grid, "binary_uniform"),
                               **kwargs)


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
    return _column_mass_residuals(model.grid, model.dx, model.daughter)


def fragmentation_perturbed_model(model: FragmentationModel,
                                  name: str = "fragmentation") -> PerturbedModel:
    """Adapt the fragmentation model to the series engine: loss at the
    breakup rate a = q(t) a(x), gain B(t) u = q(t) daughter @ (dx a(x) u),
    applied as the factored tail sum when the model keeps its factors.

    Never flagged conservative: even with normalized columns the smallest
    parent has no grid fragments, so some breakup mass always leaks below
    x_min.
    """
    rate = model.rate
    gain = model.daughter if model.factors is None else model.factors
    return loss_gain_model(name, model.grid, rate, rate.profile, gain,
                           model.dx * rate.space)


# ---------------------------------------------------------------------------
# identities and references
# ---------------------------------------------------------------------------

def vn_identity_residual(model: FragmentationModel, table: DysonPhillipsTable,
                         n: int) -> float:
    """Pointwise integral-equation residual of the n-th partial sum.

    With v_n the sum of iterate rows 0..n, the continuum partial sums obey

        v_n(t, x) = u0(x) - integral_s^t a(r, x) v_n(r, x) dr
                          + integral_s^t (gain of v_{n-1})(r, x) dr

    pointwise in x.  The residual is the max-abs deviation at t_end with
    both time integrals taken by the lattice rule.  Unlike the engine's
    own recursion (which propagates with the decay flow and satisfies its
    discrete fixed point exactly), this arrangement integrates the bare
    rate against the unknown, so the residual shows the genuine O(dt^2)
    quadrature error.
    """
    _require_rows(table, "vn_identity_residual")
    if not 0 <= n <= table.n_max:
        raise PreconditionError(f"need 0 <= n <= {table.n_max}, got {n}")
    tg = table.time_grid
    m = tg.n_steps
    vn = np.sum(table.iterates[:n + 1], axis=0)
    w = prefix_weights(tg.rule, m, tg.dt) if m else np.zeros(1)
    loss = np.zeros(model.grid.size)
    gain = np.zeros(model.grid.size)
    for j, tau in enumerate(tg.nodes):
        if m == 0 or w[j] == 0.0:
            continue
        loss += w[j] * (model.rate_values(tau) * vn[j])
        if n >= 1:
            gain += w[j] * np.sum(table.b_applied[:n, j], axis=0)
    return float(np.max(np.abs(vn[m] - table.u0 + loss - gain)))


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
        a = model.rate_values(t)
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


@dataclass(frozen=True)
class ShatteringRow:
    """One grid of the shattering sweep."""

    x_min: float
    n_nodes: int
    defect_last: float
    limit_estimate: float
    verdict: str
    leakage_last: float


@dataclass(frozen=True)
class ShatteringReport:
    """Honesty trend across grids with x_min halving.

    ``defect_persists`` is True when the finest grid's honesty limit stays
    above its threshold — the signature of mass escaping to zero size in
    finite time.  ``ledger`` and ``series`` are the finest grid's mass
    ledger and defect verdict.  Exploratory: thresholds control the
    verdict per grid, but no pass/fail is implied by the trend itself.
    """

    alpha: float
    rows: tuple[ShatteringRow, ...]
    defect_persists: bool
    ledger: MassLedger
    series: DefectSeries


def shattering_experiment(alpha: float, tg: TimeGrid, *, n_max: int, x_max: float = 1.0,
                          x_min_start: float = 1.0 / 16.0, n_grids: int = 4,
                          nodes_per_grid: int = 64,
                          daughter_kind: str = "binary_uniform", nu: float = 1.0,
                          rel_threshold: float = 1e-8,
                          persistence: int = 3) -> ShatteringReport:
    """Run the series on grids with x_min halving under rate a(x) = x**(-alpha).

    Singular rates (alpha > 0) blow up toward zero size; the truncated
    grids probe whether the honesty limit estimate stays bounded away
    from zero as the truncation recedes.  alpha = 0 is the bounded
    control and must come out honest on every grid.  Every grid's table
    runs to iterate ``n_max`` (required, as in ``iterate_right``; the CLI
    passes ``[engine] n_max``).  ``rel_threshold`` and ``persistence`` feed
    each grid's ``table_verdict``.
    """
    if alpha < 0.0:
        raise PreconditionError("alpha must be >= 0")
    if x_min_start <= 0.0 or x_min_start >= x_max:
        raise PreconditionError("need 0 < x_min_start < x_max")
    if n_grids < 1:
        raise PreconditionError("n_grids must be >= 1")

    rows = []
    x_min = x_min_start
    for _ in range(n_grids):
        grid = uniform_mass_grid(x_min, x_max, nodes_per_grid)
        rate = fragmentation_rate(grid, "power",
                                  {"scale": 1.0, "exponent": -alpha})
        model = fragmentation_model(grid, rate,
                                    daughter_factors(grid, daughter_kind, nu=nu))
        series_model = fragmentation_perturbed_model(model)
        u0 = np.where(grid.nodes >= 0.5 * x_max, 1.0, 0.0)
        table = iterate_right(series_model, tg, u0, n_max, keep_rows=False)
        verdict = table_verdict(table, rel_threshold=rel_threshold,
                                persistence=persistence)
        defects = verdict.values
        leakage = grid_leakage(table)
        rows.append(ShatteringRow(
            x_min=x_min,
            n_nodes=grid.size,
            defect_last=float(defects[-1]),
            limit_estimate=float(verdict.limit_estimate),
            verdict=verdict.verdict,
            leakage_last=float(leakage[-1]),
        ))
        x_min *= 0.5

    return ShatteringReport(alpha=alpha, rows=tuple(rows),
                            defect_persists=rows[-1].verdict != "honest",
                            ledger=mass_ledger(table), series=verdict)
