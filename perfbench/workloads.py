"""The benchmark's four workloads: seeded inputs, expected outcome, reference error.

BENCHMARK.json lists three of them; oracle_long is run by hand only (see
README.md for why).

Each workload writes one INI config and one CSV initial state (``[initial]
kind = csv``) into a work directory; the CLI sees nothing else.  The seed
only sets the nonnegative initial coefficients u0, so every seed runs the
same shapes and the same amount of engine work.  ``ref_err`` compares the
CLI's output files with a reference that does not come from the iteration
engine; every reference error is dominated by time-quadrature error, so
reordering floating-point sums inside the engine does not move it.

Why each workload exists is stated on its definition below and in README.md.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammainc

DEFAULT_SEED = 1

# SAMPLE_NOTE: every workload is sized to about 0.1-0.2 s a call.  run_s is
# the fastest call of a run, and on a shared host a short call is far more
# likely than a long one to find a stretch free of other tenants' load: with
# calls of 0.4-1.5 s the fastest call still spread 0.13-0.44 (quartile
# distance over median) across four or five runs, while sub-millisecond
# set-up calls in the same runs spread 0.05-0.13.  The shapes (d, dt,
# n_max, call pattern) are kept; only the time horizon is shortened.

# u0 coefficients are drawn uniformly from this band: strictly positive, and
# narrow enough that the seed moves ref_err far less than the metric bounds.
U0_LOW, U0_HIGH = 0.5, 1.5


@dataclass(frozen=True)
class Inputs:
    """Files generated for one workload and seed."""

    ini: Path
    u0: np.ndarray
    out_dir: Path


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape and how to judge its outputs.

    ``tables`` lists (n_max, M) of every main iterate table the CLI builds;
    ``tolerance`` is the largest accepted ``ref_err``; ``reference`` maps
    u0 to whatever ``ref_err`` compares against, and ``ref_err`` maps
    (output directory, u0, reference) to the error.
    """

    name: str
    command: str
    verdict_key: str
    verdict: str
    exit_code: int
    tolerance: float
    dim: int
    tables: tuple
    ini: str
    reference: Callable[[np.ndarray], object]
    ref_err: Callable[[Path, np.ndarray, object], float]

    def argv(self, inputs: Inputs) -> list:
        return [self.command, str(inputs.ini), "--output-dir", str(inputs.out_dir)]

    def make_inputs(self, seed: int, work_dir: Path) -> Inputs:
        """Write this workload's CSV and INI for ``seed`` under ``work_dir``."""
        u0 = initial_state(seed, self.dim)
        work_dir.mkdir(parents=True, exist_ok=True)
        csv_path = work_dir / f"{self.name}_u0.csv"
        csv_path.write_text("".join(f"{v!r}\n" for v in u0.tolist()))
        out_dir = work_dir / f"{self.name}_out"
        ini_path = work_dir / f"{self.name}.ini"
        ini_path.write_text(self.ini.format(csv=csv_path, out=out_dir))
        return Inputs(ini=ini_path, u0=u0, out_dir=out_dir)

    def table_bytes_computed(self) -> int:
        """Bytes of the largest iterate + B-applied table: 2 (n+1)(M+1) d 8."""
        return max(2 * (n + 1) * (m + 1) * self.dim * 8 for n, m in self.tables)


def initial_state(seed: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(U0_LOW, U0_HIGH, dim)


def parse_stdout(text: str) -> dict:
    """``key=value`` lines the CLI prints on success."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _mass_err(out_dir: Path, u0: np.ndarray, ref: tuple) -> float:
    """|partial_mass[N] - reference mass| / ||u0||, from ledger.csv.

    partial_mass[N] sits in the row before the verdict footer.
    """
    mass_ref, u0_norm = ref
    return abs(float(_csv_rows(out_dir / "ledger.csv")[-2][2]) - mass_ref) / u0_norm


# ---------------------------------------------------------------------------
# oracle_long: closed-form two-node exchange, long lattice
# ---------------------------------------------------------------------------

# dt = 1e-3 over [0, 1/10]: M = 100 steps, about 0.15 s a call (see
# SAMPLE_NOTE).
ORACLE_T_END = 0.1


def _oracle_reference(u0: np.ndarray) -> np.ndarray:
    # rate 1 over [0, T]: D_n = ||u0|| * P(n + 1, T), regularized lower gamma
    return gammainc(np.arange(21) + 1.0, ORACLE_T_END)


def _oracle_err(out_dir: Path, u0: np.ndarray, ref: np.ndarray) -> float:
    rows = _csv_rows(out_dir / "defects.csv")[1:]
    defects = np.array([float(r[1]) for r in rows])
    norm = float(u0.sum())
    return float(np.max(np.abs(defects - norm * ref)) / norm)


ORACLE_LONG = Workload(
    # d = 2: every operator application is pure call overhead, and the
    # Duhamel and cocycle residuals rerun the engine (about 90 % of the run).
    name="oracle_long",
    command="run",
    verdict_key="verdict",
    verdict="honest",
    exit_code=0,
    tolerance=1e-7,
    dim=2,
    tables=((20, 100),),
    ini=f"""[experiment]
kind = oracle

[engine]
s = 0.0
t_end = {ORACLE_T_END!r}
dt = 0.001
n_max = 20
series_tol = 1e-10
rule = trapezoid

[initial]
kind = csv
path = {{csv}}

[oracle]
rate = 1.0

[output]
directory = {{out}}
""",
    reference=_oracle_reference,
    ref_err=_oracle_err,
)


# ---------------------------------------------------------------------------
# lifted_suite: the lifted-space identity checks with the shipped parameters,
# except the Laplace check's lam = 32 and horizon 0.75 (shipped: 8 and 3)
# ---------------------------------------------------------------------------

def _lifted_err(out_dir: Path, u0: np.ndarray, ref) -> float:
    for row_type, name, value in _csv_rows(out_dir / "report.csv")[1:]:
        if row_type == "result" and name == "worst_residual_over_bound":
            return float(value)
    raise ValueError("report.csv has no worst_residual_over_bound row")


LIFTED_SUITE = Workload(
    # The Laplace check calls iterate_right 148 times on short
    # sub-lattices: the same engine as many short calls, so per-call fixed
    # cost shows here and not in oracle_long.
    name="lifted_suite",
    command="run",
    verdict_key="verdict",
    verdict="complete",
    exit_code=0,
    tolerance=0.5,
    dim=2,
    tables=((20, 64),),
    ini="""[experiment]
kind = lifted_checks

[engine]
t_end = 1.0
dt = 0.015625
n_max = 20

[initial]
kind = csv
path = {csv}

[oracle]
rate = 1.0

[lifted]
h = 0.015625
t_max = 1.0
lam_factorization = 2.0
lam_series = 0.0
n_terms = 8
lam_laplace = 32.0
laplace_t_max = 0.75
n_laplace_max = 3

[output]
directory = {out}
""",
    reference=lambda u0: None,
    ref_err=_lifted_err,
)


# ---------------------------------------------------------------------------
# wide_fragmentation: 512-node mass grid, compute-bound B applications
# ---------------------------------------------------------------------------

WIDE_N, WIDE_DT, WIDE_T_END = 512, 1.0 / 64.0, 0.25


def _wide_reference(u0: np.ndarray) -> tuple:
    """(mass at t = 1/4 of the method-of-lines RK4 reference, ||u0||)."""
    from evofam.evolution import TimeGrid
    from evofam.fragmentation import (daughter_matrix, fragmentation_model,
                                      fragmentation_rate, mol_reference)
    from evofam.state_space import uniform_mass_grid

    grid = uniform_mass_grid(1.0 / WIDE_N, 1.0, WIDE_N)
    rate = fragmentation_rate(grid, "product_t", {"scale": 2.0, "exponent": 1.0})
    model = fragmentation_model(grid, rate, daughter_matrix(grid, "binary_uniform"))
    y = mol_reference(model, TimeGrid(0.0, WIDE_T_END, WIDE_DT), u0, substeps=8)
    return float(grid.weights @ np.abs(y)), float(grid.weights @ u0)


WIDE_FRAGMENTATION = Workload(
    # Each B application is a 512 x 512 matvec, so the engine is bound by
    # compute, not call overhead; the largest table (about 2.9 MB) and the
    # 512^2 daughter validation in set-up.  A d=2-tuned engine change that
    # loses at large d shows up here.
    name="wide_fragmentation",
    command="run",
    verdict_key="verdict",
    verdict="honest",
    exit_code=0,
    tolerance=1e-5,
    dim=WIDE_N,
    tables=((20, 16),),
    ini=f"""[experiment]
kind = fragmentation

[engine]
t_end = {WIDE_T_END!r}
dt = {WIDE_DT!r}
n_max = 20

[grid]
kind = mass
xmin = {1.0 / WIDE_N!r}
xmax = 1.0
n = {WIDE_N}

[rate]
kind = product_t
scale = 2.0
exponent = 1.0

[daughter]
kind = binary_uniform

[initial]
kind = csv
path = {{csv}}

[output]
directory = {{out}}
""",
    reference=_wide_reference,
    ref_err=_mass_err,
)


# ---------------------------------------------------------------------------
# collision_sweep: 128-node velocity grid, dt sweep, time-dependent profiles
# ---------------------------------------------------------------------------

COLLISION_N = 128
COLLISION_T_END = 0.25
COLLISION_RK4_STEPS = 512  # h = 1/2048


def _collision_reference(u0: np.ndarray) -> tuple:
    """(mass at t = 1/4, ||u0||) of du/dt = -nu(t) u + k(t) K (w * u) by fine RK4.

    nu(t) = 1 + t, k(t) = 1 + 0.5 t, K the gaussian kernel (amplitude 0.5,
    width 0.5) on the midpoint velocity grid over [-1, 1] with weights dv.
    """
    dv = 2.0 / COLLISION_N
    v = -1.0 + (np.arange(COLLISION_N) + 0.5) * dv
    kernel = 0.5 * np.exp(-(((v[:, None] - v[None, :]) / 0.5) ** 2))
    w = np.full(COLLISION_N, dv)

    def rhs(t, y):
        return -(1.0 + t) * y + (1.0 + 0.5 * t) * (kernel @ (w * y))

    h = COLLISION_T_END / COLLISION_RK4_STEPS
    y = u0.astype(float).copy()
    for i in range(COLLISION_RK4_STEPS):
        t = i * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(w @ np.abs(y)), float(w @ u0)


COLLISION_SWEEP = Workload(
    # The only workload through the boltzmann layer (three strict
    # collision_model validations with time-dependent profiles), the sweep
    # path and the sweep.csv writer; its mid-size d sits between the
    # overhead-bound and matmul-bound regimes.
    name="collision_sweep",
    command="sweep",
    verdict_key="verdicts",
    verdict="honest;honest;honest",
    exit_code=0,
    tolerance=2e-6,
    dim=COLLISION_N,
    tables=((20, 8), (20, 16), (20, 32)),
    ini=f"""[experiment]
kind = boltzmann

[engine]
t_end = {COLLISION_T_END!r}
dt = 0.03125
n_max = 20

[grid]
kind = velocity
min = -1.0
max = 1.0
n = {COLLISION_N}

[frequency]
kind = affine
c0 = 1.0
c1 = 1.0

[kernel]
kind = gaussian
amplitude = 0.5
width = 0.5
time_kind = affine
time_c0 = 1.0
time_c1 = 0.5

[initial]
kind = csv
path = {{csv}}

[sweep]
kind = dt
values = 0.03125, 0.015625, 0.0078125

[output]
directory = {{out}}
""",
    reference=_collision_reference,
    ref_err=_mass_err,
)


WORKLOADS = {w.name: w for w in (ORACLE_LONG, LIFTED_SUITE, WIDE_FRAGMENTATION,
                                 COLLISION_SWEEP)}
