"""Batch experiment runner: config in, CSV tables (and optional SVG) out.

Subcommands
-----------
run <config>     one experiment; writes report.csv, ledger.csv, defects.csv
                 (plus checks.csv for lifted runs, plots.svg when
                 [output] emit_svg = true); refuses a config with a [sweep]
                 section
sweep <config>   repeats the experiment across the [sweep] section's
                 sequence of step sizes (kind = dt) or small-mass cutoffs
                 (kind = x_min, fragmentation only) and adds sweep.csv with
                 one row per entry; its ratio column divides each row's
                 Duhamel residual by the previous row's, a convergence
                 ratio for kind = dt only; leakage repeats ledger_residual
                 on fragmentation sweeps and is 0.0 on all others; an
                 x_min sweep under a singular rate is the shattering probe

Exit codes: 0 honest/complete, 2 dishonest, 3 inconclusive, 1 on
configuration or model-contract errors and on outputs that cannot be
written, each reported as one ``error:`` line.  Identical configs produce
byte-identical CSV files: every number is written with repr (shortest
round-trip form), summation order is fixed, nothing is randomized, and
wall time goes to stdout only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .boltzmann import (
    CollisionKernel,
    collision_model,
    collision_perturbed_model,
    frequency_matching_kernel,
    gaussian_kernel_matrix,
    outflow_kernel_matrix,
    uniform_kernel_matrix,
    validation_times,
)
from .coefficients import SeparableCoefficient, TimeProfile
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, EvofamError, StructureError
from .evolution import TimeGrid, _flat_residuals, duhamel_residual, iterate_right
from .fragmentation import (
    daughter_factors,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    grid_leakage,
)
from .honesty import (
    VERDICT_DISHONEST,
    VERDICT_HONEST,
    VERDICT_INCONCLUSIVE,
    mass_ledger,
    table_verdict,
)
from .lifted import (
    CheckRow,
    LiftedVector,
    _laplace_rows,
    kick_block_norm,
    lifted_norm,
    resolvent_factorization_check,
    resolvent_series_check,
)
from .presets import two_state_exchange
from .state_space import uniform_mass_grid, uniform_velocity_grid

LIFTED_CHECK_BOUND = 0.1

_EXIT_BY_VERDICT = {VERDICT_HONEST: 0, VERDICT_DISHONEST: 2,
                    VERDICT_INCONCLUSIVE: 3}


@dataclass
class RunArtifacts:
    """Everything a runner produced; written by the single writer at the end."""

    exit_code: int
    results: list = field(default_factory=list)
    ledger: object = None
    series: object = None
    check_rows: tuple = ()
    sweep_rows: tuple = ()


# ---------------------------------------------------------------------------
# model construction from config sections: only the keys present reach the
# library calls, so every absent key takes the library's own default
# ---------------------------------------------------------------------------

def _split_kind(params: dict) -> tuple[str, dict]:
    rest = dict(params)
    kind = rest.pop("kind")
    return kind, rest


def _require_section(cfg: ExperimentConfig, name: str) -> dict:
    if name not in cfg.sections:
        raise ConfigError(f"experiment {cfg.kind!r} requires a [{name}] section")
    return cfg.sections[name]


def build_oracle_model(cfg: ExperimentConfig):
    return two_state_exchange(**cfg.sections.get("oracle", {}))


def _time_profile_from_params(kind: str, params: dict) -> TimeProfile:
    """Build a TimeProfile from flat config parameters."""
    if kind == "constant":
        return TimeProfile(kind="constant", c0=float(params.get("value", 1.0)))
    if kind == "affine":
        return TimeProfile(kind="affine", c0=float(params.get("c0", 1.0)),
                           c1=float(params.get("c1", 0.0)))
    if kind == "power":
        return TimeProfile(kind="power", c0=float(params.get("scale", 1.0)),
                           p=float(params.get("exponent", 1.0)))
    if kind == "pwlinear":
        times = np.asarray(params["times"], dtype=float)
        values = np.asarray(params["values"], dtype=float)
        return TimeProfile(kind="pwlinear", times=times, values=values)
    raise StructureError(f"unknown time profile kind {kind!r}")


_KERNEL_MATRICES = {"uniform": uniform_kernel_matrix, "gaussian": gaussian_kernel_matrix}


def build_collision(cfg: ExperimentConfig, strict: bool | None):
    grid_cfg, frequency_cfg, kernel_cfg = (
        _require_section(cfg, name) for name in ("grid", "frequency", "kernel"))
    grid = uniform_velocity_grid(grid_cfg["min"], grid_cfg["max"], grid_cfg["n"])

    kernel_kind, kernel_args = _split_kind(kernel_cfg)
    # the time_ keys, time_kind among them, describe the kernel's time profile
    time_args = {key[len("time_"):]: kernel_args.pop(key)
                 for key in list(kernel_args) if key.startswith("time_")}
    if kernel_kind == "outflow":
        target = np.asarray(kernel_args.get("target", [1.0]))
        if target.size == 1:
            target = np.full(grid.size, target[0])
        if target.shape != (grid.size,):
            raise ConfigError("[kernel] target must hold 1 or grid-n values")
        matrix = outflow_kernel_matrix(grid, target)
    else:
        matrix = _KERNEL_MATRICES[kernel_kind](grid, **kernel_args)
    profile = (_time_profile_from_params(time_args.pop("kind"), time_args)
               if time_args else TimeProfile())
    kernel = CollisionKernel(profile=profile, matrix=matrix)

    freq_kind, freq_args = _split_kind(frequency_cfg)
    if freq_kind == "matching":
        frequency = frequency_matching_kernel(grid, kernel)
    else:
        frequency = SeparableCoefficient(
            profile=_time_profile_from_params(freq_kind, freq_args),
            space=np.ones(grid.size),
        )

    if strict is None:
        strict = cfg.sections.get("model", {}).get("strict_subcritical")
    flags = {} if strict is None else {"strict": strict}
    cmodel = collision_model(grid, frequency, kernel,
                             time_samples=validation_times(_engine_grid(cfg)), **flags)
    return collision_perturbed_model(cmodel)


def build_fragmentation(cfg: ExperimentConfig):
    grid_cfg, rate_cfg, daughter_cfg = (
        _require_section(cfg, name) for name in ("grid", "rate", "daughter"))
    grid = uniform_mass_grid(grid_cfg["xmin"], grid_cfg["xmax"], grid_cfg["n"])
    rate = fragmentation_rate(grid, *_split_kind(rate_cfg))
    daughter_kind, daughter_args = _split_kind(daughter_cfg)
    fmodel = fragmentation_model(
        grid, rate, daughter_factors(grid, daughter_kind, **daughter_args),
        time_samples=validation_times(_engine_grid(cfg)),
        **cfg.sections.get("model", {}),
    )
    return fragmentation_perturbed_model(fmodel)


def build_model(cfg: ExperimentConfig, strict: bool | None = None):
    """The config's model; ``strict``, when not None, takes the place of a
    boltzmann model's ``[model] strict_subcritical``.  No CLI path sets it:
    the benchmark harness calls ``build_model(cfg, None)``."""
    if cfg.kind in ("oracle", "lifted_checks"):
        return build_oracle_model(cfg)
    if cfg.kind == "boltzmann":
        return build_collision(cfg, strict)
    if cfg.kind == "fragmentation":
        return build_fragmentation(cfg)
    raise ConfigError(f"experiment {cfg.kind!r} does not build a single model")


def _read_initial_csv(cfg: ExperimentConfig) -> np.ndarray | None:
    """The values of an ``[initial] kind = csv`` file, None for other kinds."""
    if cfg.initial.kind != "csv":
        return None
    try:
        return np.loadtxt(cfg.initial.path, dtype=float, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[initial] path {cfg.initial.path!r}: {exc}") from exc


def initial_coefficients(cfg: ExperimentConfig, grid, csv_values=None) -> np.ndarray:
    """u0 on ``grid``; a csv run reads its file here unless ``csv_values``
    holds what ``_read_initial_csv`` returned."""
    init = cfg.initial
    if init.kind == "uniform":
        return np.ones(grid.size)
    if init.kind == "point":
        if not 0 <= init.node < grid.size:
            raise ConfigError(
                f"[initial] node = {init.node} outside 0..{grid.size - 1}")
        coeffs = np.zeros(grid.size)
        coeffs[init.node] = 1.0
        return coeffs
    if init.kind == "maxwellian":
        return np.exp(-grid.nodes ** 2 / (2.0 * init.temperature))
    coeffs = _read_initial_csv(cfg) if csv_values is None else csv_values
    if coeffs.shape != (grid.size,):
        raise ConfigError(
            f"[initial] csv holds {coeffs.shape} values, grid needs {grid.size}")
    bad = ~np.isfinite(coeffs) | (coeffs < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"[initial] csv data must be finite and nonnegative; "
                          f"grid node {i} holds {float(coeffs[i])!r}")
    return coeffs


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value))


def _engine_grid(cfg: ExperimentConfig) -> TimeGrid:
    eng = cfg.engine
    return TimeGrid(eng.s, eng.t_end, eng.dt, eng.rule)


def _table_diagnostics(cfg: ExperimentConfig, model, tg: TimeGrid, u0):
    # row-less: the ledger, verdict, leakage and full series value read
    # only the per-row scalars and the t_end rows
    table = iterate_right(model, tg, u0, cfg.engine.n_max, keep_rows=False)
    ledger = mass_ledger(table)
    series = table_verdict(table, rel_threshold=cfg.honesty.threshold,
                           persistence=cfg.honesty.persistence)
    return table, ledger, series


def run_engine_experiment(cfg: ExperimentConfig) -> RunArtifacts:
    model = build_model(cfg)
    tg = _engine_grid(cfg)
    u0 = initial_coefficients(cfg, model.grid)
    table, ledger, series = _table_diagnostics(cfg, model, tg, u0)

    # one fine pass serves both residuals: the cocycle row holds its t_end
    # sum against the coarse one, read off the table
    duhamel, cocycle = _flat_residuals(model, tg, u0, table, cocycle=tg.n_steps >= 2,
                                       tol=cfg.engine.series_tol)
    results = [
        ("experiment", cfg.kind),
        ("model", model.name),
        ("verdict", series.verdict),
        ("defect_limit", _fmt(series.limit_estimate)),
        ("defect_last", _fmt(series.values[-1])),
        ("u0_norm", _fmt(ledger.u0_norm)),
        ("ledger_max_abs_residual", _fmt(np.max(np.abs(ledger.residuals)))),
        ("duhamel_residual", _fmt(duhamel)),
    ]
    if cocycle is not None:
        results.append(("cocycle_residual", _fmt(cocycle)))
    if cfg.kind == "fragmentation":
        results.append(("leakage_last", _fmt(grid_leakage(table)[-1])))

    return RunArtifacts(exit_code=_EXIT_BY_VERDICT[series.verdict],
                        results=results, ledger=ledger, series=series)


def _lifted_profile(axis: TimeGrid, u0: np.ndarray) -> np.ndarray:
    shape = axis.nodes * np.exp(-axis.nodes)
    return np.outer(shape, u0)


def run_lifted_checks(cfg: ExperimentConfig) -> RunArtifacts:
    model = build_model(cfg)
    tg = _engine_grid(cfg)
    u0 = initial_coefficients(cfg, model.grid)
    _table, ledger, series = _table_diagnostics(cfg, model, tg, u0)

    lifted = cfg.lifted
    h, lam_series = lifted.h, lifted.lam_series
    axis = TimeGrid(0.0, lifted.t_max, h)
    f = LiftedVector(grid=model.grid, axis=axis,
                     values=_lifted_profile(axis, u0))
    f_norm = lifted_norm(f)
    if f_norm == 0.0:
        # every check's bound is a multiple of it (the Laplace history's
        # norm is 0 only with this one, or on an axis its horizon refuses)
        raise ConfigError(f"the lifted history t exp(-t) u0 on [0, {lifted.t_max!r}] has "
                          "zero norm, so no check has a bound: u0 or [lifted] t_max is 0")
    rows = [resolvent_factorization_check(model, lifted.lam_factorization, f)]
    bounds = [LIFTED_CHECK_BOUND * f_norm]

    if lam_series == 0.0:
        lam_series = 4.0 * kick_block_norm(model, axis)
    residuals = resolvent_series_check(model, lam_series, f, lifted.n_terms)
    for n, res in enumerate(residuals):
        rows.append(CheckRow(check_name="resolvent_series", h=h, lam=lam_series,
                             n=n, residual=float(res), truncation_bound=0.0))
        bounds.append(LIFTED_CHECK_BOUND * f_norm)

    laplace_axis = TimeGrid(0.0, lifted.laplace_t_max, h)
    g = LiftedVector(grid=model.grid, axis=laplace_axis,
                     values=_lifted_profile(laplace_axis, u0))
    laplace = _laplace_rows(model, lifted.lam_laplace, g, lifted.n_laplace_max)
    rows.extend(laplace)
    bounds.extend([LIFTED_CHECK_BOUND * lifted_norm(g)] * len(laplace))

    complete = all(row.residual <= bound for row, bound in zip(rows, bounds))
    worst = max(row.residual / bound for row, bound in zip(rows, bounds))
    results = [
        ("experiment", cfg.kind),
        ("model", model.name),
        ("verdict", "complete" if complete else "inconclusive"),
        ("engine_verdict", series.verdict),
        ("n_checks", str(len(rows))),
        ("worst_residual_over_bound", _fmt(worst)),
        ("defect_limit", _fmt(series.limit_estimate)),
    ]
    return RunArtifacts(exit_code=0 if complete else 3, results=results,
                        ledger=ledger, series=series, check_rows=tuple(rows))


def run_sweep(cfg: ExperimentConfig) -> RunArtifacts:
    sweep = _require_section(cfg, "sweep")
    kind, values = sweep["kind"], sweep["values"]
    if len(values) < 2:
        raise ConfigError("[sweep] values needs at least 2 entries")
    if kind == "x_min" and cfg.kind != "fragmentation":
        raise ConfigError("[sweep] kind = x_min applies to fragmentation only")
    if kind == "dt" and any(value <= 0.0 for value in values):
        raise ConfigError("[sweep] dt values must be positive")
    if kind == "x_min":
        xmax = _require_section(cfg, "grid")["xmax"]
        if not all(0.0 < value < xmax for value in values):
            raise ConfigError("[sweep] x_min values must lie inside the grid span")

    subs = []
    for value in values:
        if kind == "dt":
            sub = dataclasses.replace(cfg, engine=dataclasses.replace(cfg.engine, dt=value))
        else:
            override = dict(cfg.sections)
            override["grid"] = dict(override["grid"], xmin=value)
            sub = dataclasses.replace(cfg, sections=override)
        # every row's lattice is made, and so checked, before the first row runs
        subs.append((value, sub, _engine_grid(sub)))

    rows = []
    last = None
    csv_values = _read_initial_csv(cfg)
    for value, sub, tg in subs:
        # each row builds (and validates) its model on its own lattice
        model = build_model(sub)
        u0 = initial_coefficients(cfg, model.grid, csv_values)
        table, ledger, series = _table_diagnostics(cfg, model, tg, u0)
        duhamel = duhamel_residual(model, tg, u0, tol=cfg.engine.series_tol)
        leakage = grid_leakage(table)[-1] if cfg.kind == "fragmentation" else 0.0
        ratio = "" if last is None or last == 0.0 else _fmt(duhamel / last)
        rows.append((_fmt(value), _fmt(series.limit_estimate),
                     _fmt(np.max(np.abs(ledger.residuals))), _fmt(leakage),
                     _fmt(duhamel), ratio, series.verdict))
        last = duhamel
        final = (ledger, series)

    verdicts = [row[-1] for row in rows]
    if VERDICT_DISHONEST in verdicts:
        code = 2
    elif VERDICT_INCONCLUSIVE in verdicts:
        code = 3
    else:
        code = 0
    results = [
        ("experiment", cfg.kind),
        ("sweep_kind", kind),
        ("n_rows", str(len(rows))),
        ("verdicts", ";".join(verdicts)),
    ]
    return RunArtifacts(exit_code=code, results=results, ledger=final[0],
                        series=final[1], sweep_rows=tuple(rows))


# ---------------------------------------------------------------------------
# output writing (single writer, after the runner finished)
# ---------------------------------------------------------------------------

def _rewrite(path, write) -> None:
    """Call ``write`` on a text stream over ``path``, written in place and
    cut on every exit, error exits included, to what this call wrote.

    Like O_TRUNC, the cut applies to regular files only, so a path that
    names a device or a FIFO (say a link to /dev/null) is written as it
    was before.
    """
    # not O_TRUNC: ext4's auto_da_alloc starts writeback on closing a file
    # truncated over data (https://docs.kernel.org/admin-guide/ext4.html)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        try:
            write(fh)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _write_csv(path, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    _rewrite(path, write)


def _svg_panel(lines, x0, y0, width, height, series, title, log_y):
    plot_w, plot_h = width - 70, height - 50
    px, py = x0 + 55, y0 + 25
    ys_all = []
    for _label, ys in series:
        for y in ys:
            ys_all.append(math.log10(max(abs(y), 1e-300)) if log_y else y)
    lo, hi = min(ys_all), max(ys_all)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    n_pts = max(len(ys) for _label, ys in series)

    def sx(i):
        return px + plot_w * (i / max(n_pts - 1, 1))

    def sy(v):
        t = (v - lo) / (hi - lo)
        return py + plot_h * (1.0 - t)

    lines.append(f'<rect x="{px}" y="{py}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="black"/>')
    lines.append(f'<text x="{x0 + width / 2:.1f}" y="{y0 + 15}" '
                 f'text-anchor="middle" font-size="13">{title}</text>')
    lines.append(f'<text x="{px - 8}" y="{py + 10}" text-anchor="end" '
                 f'font-size="10">{hi:.3g}</text>')
    lines.append(f'<text x="{px - 8}" y="{py + plot_h:.1f}" text-anchor="end" '
                 f'font-size="10">{lo:.3g}</text>')
    colors = ("black", "gray")
    for idx, (label, ys) in enumerate(series):
        vals = [math.log10(max(abs(y), 1e-300)) if log_y else y for y in ys]
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        color = colors[idx % len(colors)]
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        lines.append(f'<text x="{px + 6}" y="{py + 14 + 12 * idx}" '
                     f'font-size="10" fill="{color}">{label}</text>')


def _write_svg(path, ledger, series) -> None:
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="560" '
             'viewBox="0 0 640 560">']
    _svg_panel(lines, 0, 0, 640, 280,
               [("defect", list(series.values))],
               "defect vs iterate (log10 scale)", log_y=True)
    _svg_panel(lines, 0, 280, 640, 280,
               [("ledger residual", list(ledger.residuals))],
               "ledger residual vs iterate", log_y=False)
    lines.append("</svg>")
    _rewrite(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def write_outputs(out_dir, cfg: ExperimentConfig, art: RunArtifacts) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name):
        written.append(name)
        return os.path.join(out_dir, name)

    # rows are generated as the file is written, none held as a list
    report = itertools.chain((("config", *row) for row in cfg.echo_rows),
                             (("result", *row) for row in art.results))
    _write_csv(target("report.csv"), ("row_type", "name", "value"), report)
    ledger, series = art.ledger, art.series
    if ledger is not None and series is not None:
        rows = ((n, *map(_fmt, entry)) for n, entry in enumerate(
            zip(ledger.defects, ledger.partial_mass, ledger.residuals)))
        footer = ("limit_estimate", _fmt(series.limit_estimate), "verdict", series.verdict)
        _write_csv(target("ledger.csv"), ("n", "defect", "partial_mass", "ledger_residual"),
                   itertools.chain(rows, [footer]))
        _write_csv(target("defects.csv"), ("n", "defect"),
                   enumerate(map(_fmt, series.values)))
        if cfg.output.emit_svg:
            _write_svg(target("plots.svg"), ledger, series)
    if art.check_rows:
        _write_csv(target("checks.csv"),
                   ("check_name", "h", "lambda", "n", "residual", "truncation_bound"),
                   ((row.check_name, _fmt(row.h), _fmt(row.lam), row.n,
                     _fmt(row.residual), _fmt(row.truncation_bound))
                    for row in art.check_rows))
    if art.sweep_rows:
        _write_csv(target("sweep.csv"),
                   ("resolution", "defect_limit", "ledger_residual", "leakage",
                    "duhamel_residual", "ratio", "verdict"), art.sweep_rows)
    return written


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evofam",
        description="perturbation-series experiments with honesty diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (("run", "run one experiment"),
                          ("sweep", "run a resolution sweep")):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("config", help="path to the INI experiment config")
        cmd.add_argument("--output-dir", default=None,
                         help="override [output] directory")
    return parser


# built once: parsing leaves the parser as it was
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = parse_config(args.config)
        if args.command == "sweep":
            art = run_sweep(cfg)
        elif "sweep" in cfg.sections:
            raise ConfigError("a config with a [sweep] section runs with the "
                              "sweep subcommand, not run")
        elif cfg.kind == "lifted_checks":
            art = run_lifted_checks(cfg)
        else:
            art = run_engine_experiment(cfg)
        out_dir = args.output_dir or cfg.output.directory
        try:
            written = write_outputs(out_dir, cfg, art)
        except OSError as exc:
            raise ConfigError(f"cannot write outputs to {out_dir!r}: {exc}") from exc
    except EvofamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, value in art.results:
        print(f"{name}={value}")
    print(f"files={','.join(written)}")
    print(f"output_dir={out_dir}")
    print(f"wall_time_s={time.perf_counter() - started:.3f}")
    return art.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
