"""Batch experiment runner: config in, CSV tables (and optional SVG) out.

Subcommands
-----------
run <config>     one experiment; writes report.csv, ledger.csv, defects.csv
                 (plus checks.csv for lifted runs, shattering.csv for
                 shattering runs, plots.svg when SVG output is on)
sweep <config>   repeats the experiment across a resolution sequence from
                 the [sweep] section and adds sweep.csv with one row per
                 entry and a convergence-ratio column

Exit codes: 0 honest/complete, 2 dishonest, 3 inconclusive, 1 on
configuration or model-contract errors.  Identical configs produce
byte-identical CSV files: every number is written with repr (shortest
round-trip form), summation order is fixed, nothing is randomized, and
wall time goes to stdout only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
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
from .coefficients import SeparableCoefficient, time_profile_from_params
from .config import (
    ExperimentConfig,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_str,
    kernel_time_params,
    parse_config,
    profile_params,
)
from .errors import ConfigError, EvofamError
from .evolution import TimeGrid, cocycle_residual, duhamel_residual, iterate_right
from .fragmentation import (
    daughter_matrix,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    grid_leakage,
    shattering_experiment,
)
from .honesty import (
    VERDICT_DISHONEST,
    VERDICT_HONEST,
    VERDICT_INCONCLUSIVE,
    mass_ledger,
    table_verdict,
    write_honesty_report,
)
from .lifted import (
    CheckRow,
    LiftedVector,
    kick_block_norm,
    laplace_transform_check,
    lifted_norm,
    resolvent_factorization_check,
    resolvent_series_check,
    write_check_suite_csv,
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
    shattering_rows: tuple = ()
    sweep_rows: tuple = ()


# ---------------------------------------------------------------------------
# model construction from config sections
# ---------------------------------------------------------------------------

def _split_kind(params: dict) -> tuple[str, dict]:
    rest = dict(params)
    kind = rest.pop("kind")
    return kind, rest


def _require_section(cfg: ExperimentConfig, name: str) -> None:
    if name not in cfg.sections:
        raise ConfigError(f"experiment {cfg.kind!r} requires a [{name}] section")


def build_oracle_model(cfg: ExperimentConfig):
    return two_state_exchange(get_float(cfg.sections, "oracle", "rate", 1.0))


def build_collision(cfg: ExperimentConfig, strict: bool | None):
    for name in ("grid", "frequency", "kernel"):
        _require_section(cfg, name)
    if get_str(cfg.sections, "grid", "kind") != "velocity":
        raise ConfigError("[grid] kind must be 'velocity' for collision runs")
    grid = uniform_velocity_grid(
        get_float(cfg.sections, "grid", "min"),
        get_float(cfg.sections, "grid", "max"),
        get_int(cfg.sections, "grid", "n"),
    )

    kernel_kind, kernel_args = _split_kind(profile_params(cfg.sections, "kernel"))
    if kernel_kind == "uniform":
        matrix = uniform_kernel_matrix(grid, kernel_args.get("value", 1.0))
    elif kernel_kind == "gaussian":
        matrix = gaussian_kernel_matrix(grid, amplitude=kernel_args.get("amplitude", 1.0),
                                        width=kernel_args.get("width", 1.0))
    else:
        target = kernel_args.get("target", [1.0])
        target = np.full(grid.size, target[0]) if len(target) == 1 else np.asarray(target)
        if target.shape != (grid.size,):
            raise ConfigError("[kernel] target must hold 1 or grid-n values")
        matrix = outflow_kernel_matrix(grid, target)
    tp = kernel_time_params(cfg.sections)
    kernel = CollisionKernel(profile=time_profile_from_params(tp.pop("kind"), tp),
                             matrix=matrix)

    freq_kind, freq_args = _split_kind(profile_params(cfg.sections, "frequency"))
    if freq_kind == "matching":
        frequency = frequency_matching_kernel(grid, kernel)
    else:
        frequency = SeparableCoefficient(
            profile=time_profile_from_params(freq_kind, freq_args),
            space=np.ones(grid.size),
        )

    if strict is None:
        strict = get_bool(cfg.sections, "model", "strict_subcritical", True)
    cmodel = collision_model(grid, frequency, kernel, strict=strict,
                             time_samples=validation_times(_engine_grid(cfg)))
    return collision_perturbed_model(cmodel)


def build_fragmentation(cfg: ExperimentConfig, strict: bool | None):
    for name in ("grid", "rate", "daughter"):
        _require_section(cfg, name)
    if get_str(cfg.sections, "grid", "kind") != "mass":
        raise ConfigError("[grid] kind must be 'mass' for fragmentation runs")
    grid = uniform_mass_grid(
        get_float(cfg.sections, "grid", "xmin"),
        get_float(cfg.sections, "grid", "xmax"),
        get_int(cfg.sections, "grid", "n"),
    )
    rate_kind, rate_args = _split_kind(profile_params(cfg.sections, "rate"))
    rate = fragmentation_rate(grid, rate_kind, rate_args)
    daughter = daughter_matrix(
        grid,
        get_str(cfg.sections, "daughter", "kind"),
        nu=get_float(cfg.sections, "daughter", "nu", 1.0),
    )
    if strict is None:
        strict = get_bool(cfg.sections, "model", "strict_kernel", False)
    fmodel = fragmentation_model(
        grid, rate, daughter, strict=strict,
        force_normalize=get_bool(cfg.sections, "model", "force_normalize", False),
        time_samples=validation_times(_engine_grid(cfg)),
    )
    return fragmentation_perturbed_model(fmodel)


def build_model(cfg: ExperimentConfig, strict: bool | None):
    if cfg.kind in ("oracle", "lifted_checks"):
        return build_oracle_model(cfg)
    if cfg.kind == "boltzmann":
        return build_collision(cfg, strict)
    if cfg.kind == "fragmentation":
        return build_fragmentation(cfg, strict)
    raise ConfigError(f"experiment {cfg.kind!r} does not build a single model")


def initial_coefficients(cfg: ExperimentConfig, grid) -> np.ndarray:
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
    try:
        coeffs = np.loadtxt(init.path, dtype=float, ndmin=1)
    except OSError as exc:
        raise ConfigError(f"[initial] path {init.path!r}: {exc}") from exc
    if coeffs.shape != (grid.size,):
        raise ConfigError(
            f"[initial] csv holds {coeffs.shape} values, grid needs {grid.size}")
    if not np.all(np.isfinite(coeffs)) or np.any(coeffs < 0.0):
        raise ConfigError("[initial] csv data must be finite and nonnegative")
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
    table = iterate_right(model, tg, u0, cfg.engine.n_max)
    ledger = mass_ledger(table)
    series = table_verdict(table, rel_threshold=cfg.honesty.threshold,
                           persistence=cfg.honesty.persistence)
    return table, ledger, series


def run_engine_experiment(cfg: ExperimentConfig, strict: bool | None) -> RunArtifacts:
    model = build_model(cfg, strict)
    tg = _engine_grid(cfg)
    u0 = initial_coefficients(cfg, model.grid)
    table, ledger, series = _table_diagnostics(cfg, model, tg, u0)

    duhamel = duhamel_residual(model, tg, u0, tol=cfg.engine.series_tol)
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
    if tg.n_steps >= 2:
        split = tg.nodes[tg.n_steps // 2]
        results.append(("cocycle_residual", _fmt(
            cocycle_residual(model, tg, u0, split, tol=cfg.engine.series_tol))))
    if cfg.kind == "fragmentation":
        results.append(("leakage_last", _fmt(grid_leakage(table)[-1])))

    return RunArtifacts(exit_code=_EXIT_BY_VERDICT[series.verdict],
                        results=results, ledger=ledger, series=series)


def _lifted_profile(axis: TimeGrid, u0: np.ndarray) -> np.ndarray:
    shape = axis.nodes * np.exp(-axis.nodes)
    return np.outer(shape, u0)


def run_lifted_checks(cfg: ExperimentConfig) -> RunArtifacts:
    model = build_oracle_model(cfg)
    tg = _engine_grid(cfg)
    u0 = initial_coefficients(cfg, model.grid)
    _table, ledger, series = _table_diagnostics(cfg, model, tg, u0)

    sec = cfg.sections
    h = get_float(sec, "lifted", "h", 1.0 / 64.0)
    t_max = get_float(sec, "lifted", "t_max", 1.0)
    lam_fact = get_float(sec, "lifted", "lam_factorization", 2.0)
    lam_series = get_float(sec, "lifted", "lam_series", 0.0)
    n_terms = get_int(sec, "lifted", "n_terms", 8)
    lam_laplace = get_float(sec, "lifted", "lam_laplace", 8.0)
    laplace_t_max = get_float(sec, "lifted", "laplace_t_max", 3.0)
    n_laplace = get_int(sec, "lifted", "n_laplace_max", 3)

    axis = TimeGrid(0.0, t_max, h)
    f = LiftedVector(grid=model.grid, axis=axis,
                     values=_lifted_profile(axis, u0))
    f_norm = lifted_norm(f)
    rows = [resolvent_factorization_check(model, lam_fact, f)]
    bounds = [LIFTED_CHECK_BOUND * f_norm]

    if lam_series <= 0.0:
        lam_series = 4.0 * kick_block_norm(model, axis)
    residuals = resolvent_series_check(model, lam_series, f, n_terms)
    for n, res in enumerate(residuals):
        rows.append(CheckRow(check_name="resolvent_series", h=h, lam=lam_series,
                             n=n, residual=float(res), truncation_bound=0.0))
        bounds.append(LIFTED_CHECK_BOUND * f_norm)

    laplace_axis = TimeGrid(0.0, laplace_t_max, h)
    g = LiftedVector(grid=model.grid, axis=laplace_axis,
                     values=_lifted_profile(laplace_axis, u0))
    g_norm = lifted_norm(g)
    for n in range(n_laplace + 1):
        rows.append(laplace_transform_check(model, lam_laplace, n, g))
        bounds.append(LIFTED_CHECK_BOUND * g_norm)

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


def run_shattering(cfg: ExperimentConfig) -> RunArtifacts:
    _require_section(cfg, "shattering")
    sec = cfg.sections
    tg = _engine_grid(cfg)
    alpha = get_float(sec, "shattering", "alpha")
    report = shattering_experiment(
        alpha, tg,
        x_max=get_float(sec, "shattering", "x_max", 1.0),
        x_min_start=get_float(sec, "shattering", "x_min_start", 1.0 / 16.0),
        n_grids=get_int(sec, "shattering", "n_grids", 4),
        nodes_per_grid=get_int(sec, "shattering", "nodes_per_grid", 64),
        n_max=get_int(sec, "shattering", "n_max", 12),
        daughter_kind=get_str(sec, "daughter", "kind", "binary_uniform"),
        nu=get_float(sec, "daughter", "nu", 1.0),
        rel_threshold=get_float(sec, "shattering", "rel_threshold", 1e-8),
        persistence=cfg.honesty.persistence,
    )

    final = report.rows[-1]
    results = [
        ("experiment", cfg.kind),
        ("model", "fragmentation"),
        ("verdict", final.verdict),
        ("alpha", _fmt(alpha)),
        ("defect_persists", str(report.defect_persists)),
        ("finest_x_min", _fmt(final.x_min)),
        ("finest_defect_last", _fmt(final.defect_last)),
        ("finest_limit_estimate", _fmt(final.limit_estimate)),
        ("finest_leakage_last", _fmt(final.leakage_last)),
    ]
    return RunArtifacts(exit_code=_EXIT_BY_VERDICT[final.verdict],
                        results=results, ledger=report.ledger,
                        series=report.series, shattering_rows=report.rows)


def run_sweep(cfg: ExperimentConfig, strict: bool | None) -> RunArtifacts:
    _require_section(cfg, "sweep")
    kind = get_str(cfg.sections, "sweep", "kind")
    values = get_float_list(cfg.sections, "sweep", "values")
    if kind not in ("dt", "x_min"):
        raise ConfigError(f"[sweep] kind = {kind!r}; expected 'dt' or 'x_min'")
    if len(values) < 2:
        raise ConfigError("[sweep] values needs at least 2 entries")
    if cfg.kind not in ("oracle", "boltzmann", "fragmentation"):
        raise ConfigError(f"experiment {cfg.kind!r} cannot be swept")
    if kind == "x_min" and cfg.kind != "fragmentation":
        raise ConfigError("[sweep] kind = x_min applies to fragmentation only")

    rows = []
    last = None
    for value in values:
        # each row builds (and validates) its model on its own lattice
        if kind == "dt":
            if value <= 0.0:
                raise ConfigError("[sweep] dt values must be positive")
            sub = dataclasses.replace(cfg, engine=dataclasses.replace(cfg.engine, dt=value))
        else:
            if not 0.0 < value < get_float(cfg.sections, "grid", "xmax"):
                raise ConfigError("[sweep] x_min values must lie inside the grid span")
            override = dict(cfg.sections)
            override["grid"] = dict(override["grid"], xmin=repr(value))
            sub = dataclasses.replace(cfg, sections=override)
        model = build_model(sub, strict)
        tg = _engine_grid(sub)
        u0 = initial_coefficients(cfg, model.grid)
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

def _write_report(path, cfg: ExperimentConfig, art: RunArtifacts) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row_type", "name", "value"])
        for name, value in cfg.echo_rows:
            writer.writerow(["config", name, value])
        for name, value in art.results:
            writer.writerow(["result", name, value])


def _write_defects(path, series) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "defect"])
        for n, value in enumerate(series.values):
            writer.writerow([n, repr(float(value))])


def _write_shattering(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_min", "n_nodes", "defect_last", "limit_estimate",
                         "verdict", "leakage_last"])
        for row in rows:
            writer.writerow([repr(row.x_min), row.n_nodes, repr(row.defect_last),
                             repr(row.limit_estimate), row.verdict,
                             repr(row.leakage_last)])


def _write_sweep(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["resolution", "defect_limit", "ledger_residual",
                         "leakage", "duhamel_residual", "ratio", "verdict"])
        for row in rows:
            writer.writerow(row)


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
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(out_dir, cfg: ExperimentConfig, art: RunArtifacts,
                  emit_svg: bool) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name):
        written.append(name)
        return os.path.join(out_dir, name)

    _write_report(target("report.csv"), cfg, art)
    if art.ledger is not None and art.series is not None:
        write_honesty_report(target("ledger.csv"), art.ledger, art.series)
        _write_defects(target("defects.csv"), art.series)
        if emit_svg:
            _write_svg(target("plots.svg"), art.ledger, art.series)
    if art.check_rows:
        write_check_suite_csv(target("checks.csv"), art.check_rows)
    if art.shattering_rows:
        _write_shattering(target("shattering.csv"), art.shattering_rows)
    if art.sweep_rows:
        _write_sweep(target("sweep.csv"), art.sweep_rows)
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
        cmd.add_argument("--emit-svg", action="store_true",
                         help="also write plots.svg")
        mode = cmd.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="strict", action="store_true",
                          default=None, help="force strict model validation")
        mode.add_argument("--lenient", dest="strict", action="store_false",
                          help="force lenient model validation")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = parse_config(args.config)
        if args.command == "sweep":
            art = run_sweep(cfg, args.strict)
        elif cfg.kind == "lifted_checks":
            art = run_lifted_checks(cfg)
        elif cfg.kind == "shattering_sweep":
            art = run_shattering(cfg)
        else:
            art = run_engine_experiment(cfg, args.strict)
        out_dir = args.output_dir or cfg.output.directory
        emit_svg = args.emit_svg or cfg.output.emit_svg
        written = write_outputs(out_dir, cfg, art, emit_svg)
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
