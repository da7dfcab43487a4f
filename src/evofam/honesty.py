"""Mass-defect (honesty) diagnostics for iterate tables.

For nonnegative initial data the iterate partial sums, the time integral
of the perturbation norm along the newest iterate (the *defect*), and the
initial mass satisfy a ledger inequality: partial mass + defect never
exceeds the initial mass, with equality in the conservative case.  The
perturbed evolution loses no mass to infinity exactly when the defect
sequence dies out, so a decaying defect certifies honesty while a strict
plateau flags mass leaking past every finite iterate.  This module turns a
finite defect sequence into such a verdict, assembles the ledger, and
checks the kernel detailed-balance certificate that guarantees honesty for
collision models a priori.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .evolution import DysonPhillipsTable
from .state_space import StateVector, weighted_norm_array

VERDICT_HONEST = "honest"
VERDICT_DISHONEST = "dishonest"
VERDICT_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# defect sequence and verdict
# ---------------------------------------------------------------------------

def defect(table: DysonPhillipsTable, n: int) -> float:
    """Trapezoid time integral of the perturbation norm along iterate n."""
    if n < 0 or n > table.n_max:
        raise PreconditionError(f"iterate index {n} outside table range 0..{table.n_max}")
    return float(table.defects[n])


def defect_sequence(table: DysonPhillipsTable) -> np.ndarray:
    """All defects D_0..D_N, as the row pass computed them."""
    return table.defects


@dataclass(frozen=True)
class DefectSeries:
    """Defect sequence with its extrapolated limit and verdict.

    ``threshold`` is the absolute cutoff actually used (relative threshold
    times the initial-state norm).  ``limit_estimate`` is the last defect
    plus a geometric tail bound D_N * r / (1 - r) when the tail ratio r is
    below one; with a non-decaying tail the bound is meaningless and the
    estimate falls back to the last value.
    """

    values: np.ndarray
    ratios: np.ndarray
    threshold: float
    limit_estimate: float
    verdict: str


def honesty_verdict(defects, u0_norm: float, *, rel_threshold: float = 1e-8,
                    decay_ratio: float = 0.9, plateau_ratio: float = 0.99,
                    persistence: int = 3) -> DefectSeries:
    """Classify a finite defect sequence.

    honest:        the last ``persistence`` ratios all fall below
                   ``decay_ratio`` and the geometric tail bound lands below
                   the absolute threshold;
    dishonest:     the tail ratios all exceed ``plateau_ratio`` while the
                   last defect still sits above 10x threshold (a plateau —
                   mass persistently unaccounted for);
    inconclusive:  everything else, including any sequence with fewer than
                   three computed ratios.  Honesty is never certified from
                   a non-decaying tail.
    """
    values = np.asarray(defects, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise PreconditionError("defect sequence must be a nonempty 1-d array")
    if persistence < 1:
        raise PreconditionError("persistence must be >= 1")
    threshold = rel_threshold * u0_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = values[1:] / values[:-1]
    ratios = np.where(np.isfinite(raw), raw, 0.0)  # 0/0 -> collapsed tail

    last = float(values[-1])
    n_ratios = ratios.size
    if n_ratios < max(persistence, 3):
        return DefectSeries(values, ratios, threshold, last, VERDICT_INCONCLUSIVE)

    tail = ratios[-persistence:]
    r = float(ratios[-1])
    if np.all(tail < decay_ratio):
        limit = last + last * r / (1.0 - r)
        verdict = VERDICT_HONEST if limit < threshold else VERDICT_INCONCLUSIVE
        return DefectSeries(values, ratios, threshold, limit, verdict)
    if np.all(tail > plateau_ratio) and last > 10.0 * threshold:
        return DefectSeries(values, ratios, threshold, last, VERDICT_DISHONEST)
    limit = last + last * r / (1.0 - r) if r < 1.0 else last
    return DefectSeries(values, ratios, threshold, limit, VERDICT_INCONCLUSIVE)


def table_verdict(table: DysonPhillipsTable, **kwargs) -> DefectSeries:
    """Defect sequence + verdict straight from an iterate table."""
    u0_norm = weighted_norm_array(table.grid, table.u0)
    return honesty_verdict(defect_sequence(table), u0_norm, **kwargs)


# ---------------------------------------------------------------------------
# mass ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassLedger:
    """Accounting rows: initial mass vs partial mass + defect, per iterate.

    ``residuals[n] = u0_norm - partial_mass[n] - defects[n]``; nonnegative
    up to quadrature slack for dissipative models, zero in the conservative
    case.  A persistently positive residual that the defect does not
    explain is mass the discretization lost track of (e.g. grid leakage),
    not an honesty defect.
    """

    u0_norm: float
    partial_mass: np.ndarray
    defects: np.ndarray
    residuals: np.ndarray

    @property
    def n_max(self) -> int:
        return self.partial_mass.size - 1


def mass_ledger(table: DysonPhillipsTable) -> MassLedger:
    defects = defect_sequence(table)
    u0_norm = weighted_norm_array(table.grid, table.u0)
    partial = table.partial_norms
    return MassLedger(
        u0_norm=u0_norm,
        partial_mass=partial.copy(),
        defects=defects.copy(),
        residuals=u0_norm - partial - defects,
    )


def write_honesty_report(path, ledger: MassLedger, series: DefectSeries) -> None:
    """CSV rows ``n,defect,partial_mass,ledger_residual`` plus a footer row
    carrying the extrapolated limit and the verdict."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "defect", "partial_mass", "ledger_residual"])
        for n in range(ledger.n_max + 1):
            writer.writerow([
                n,
                repr(float(ledger.defects[n])),
                repr(float(ledger.partial_mass[n])),
                repr(float(ledger.residuals[n])),
            ])
        writer.writerow(["limit_estimate", repr(float(series.limit_estimate)),
                         "verdict", series.verdict])


# ---------------------------------------------------------------------------
# detailed-balance certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceCertificate:
    """Outcome of the kernel reversibility test.

    ``symmetry_residual`` measures how far the weighted kernel fails to be
    reversible against the reference density; ``growth_residual`` is the
    worst (most negative) value of lam * M + dM/dt along the scaled
    reference M(t, v) = beta(t) * M0(v).  Acceptance requires a reversible
    kernel and a nonnegative growth margin: together they guarantee an
    honest evolution without running the iteration at all.
    """

    lam: float
    time_samples: tuple[float, ...]
    symmetry_residual: float
    growth_residual: float
    accepted: bool


def detailed_balance_certificate(model, reference_density, lam: float, time_samples, *,
                                 beta: Callable[[float], float] | None = None,
                                 tol: float = 1e-8,
                                 fd_step: float = 1e-4) -> BalanceCertificate:
    """Test a collision kernel against a reversibility reference density.

    ``model`` must expose ``grid`` and ``kernel_values(t) -> (d, d)`` (entry
    [i, j] is the scattering rate density from node j to node i).  The
    reference density must be strictly positive.  ``beta`` defaults to
    ``1 - exp(-lam * t)``, which vanishes at zero and keeps the growth
    margin exactly ``lam * M0``; a custom profile must vanish at t = 0 and
    stay positive for t > 0.
    """
    grid = model.grid
    if isinstance(reference_density, StateVector):
        if reference_density.grid != grid:
            raise PreconditionError("reference density grid does not match the model grid")
        reference_density = reference_density.coeffs
    m0 = np.asarray(reference_density, dtype=float)
    if m0.shape != (grid.size,):
        raise PreconditionError("reference density must have one value per grid node")
    if np.any(m0 <= 0.0) or not np.all(np.isfinite(m0)):
        raise PreconditionError("reference density must be strictly positive and finite")
    if lam <= 0.0:
        raise PreconditionError("lam must be positive")
    samples = tuple(sorted(float(t) for t in time_samples))
    if not samples or samples[0] < 0.0:
        raise PreconditionError("time samples must be nonnegative and nonempty")

    if beta is None:
        beta = lambda t: 1.0 - math.exp(-lam * t)
    if abs(beta(0.0)) > 1e-12:
        raise PreconditionError("time profile beta must vanish at t = 0")
    for t in samples:
        if t > 0.0 and beta(t) <= 0.0:
            raise PreconditionError("time profile beta must be positive for t > 0")

    w = grid.weights
    ww = np.outer(w, w)
    sym = 0.0
    scale = 0.0
    for t in samples:
        kern = np.asarray(model.kernel_values(t), dtype=float)
        weighted = ww * kern * m0[None, :]
        scale = max(scale, float(np.max(np.abs(weighted))))
        sym = max(sym, float(np.max(np.abs(weighted - weighted.T))))
    symmetry_residual = sym / scale if scale > 0.0 else 0.0

    growth = math.inf
    m0_min, m0_max = float(m0.min()), float(m0.max())
    for t in samples:
        if t >= fd_step:
            dbeta = (beta(t + fd_step) - beta(t - fd_step)) / (2.0 * fd_step)
        else:
            dbeta = (beta(t + fd_step) - beta(t)) / fd_step
        margin = lam * beta(t) + dbeta
        # M0 > 0, so the sign of the margin decides which node is worst
        growth = min(growth, margin * (m0_min if margin >= 0.0 else m0_max))
    growth_scale = max(1.0, lam * m0_max)
    accepted = symmetry_residual <= tol and growth >= -tol * growth_scale
    return BalanceCertificate(
        lam=lam,
        time_samples=samples,
        symmetry_residual=symmetry_residual,
        growth_residual=float(growth),
        accepted=accepted,
    )
