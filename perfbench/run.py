#!/usr/bin/env python3
"""evofam benchmark: run one seeded workload through the CLI, in process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a separate
traced run.  Human-readable lines (environment, sample counts, failures)
come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every CLI
invocation is checked (exit code, verdict, ref_err within tolerance); a
miss is printed to stderr and makes the exit code 1.  Spans and the full
result go to ``perfbench/out/results/``.  See README.md for the workloads
and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# set-up reps after each timed invocation take this share of its time
SETUP_SHARE = 0.05
MIN_SAMPLES = 3
MIN_SETUP_REPS = 3


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s")


# glibc sysconf names for the L2 and L3 sizes (Python's os.sysconf_names
# lacks them); glibc answers from cpuid, so no file outside the checkout is read
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194


def environment() -> dict:
    """Versions, cores, OpenBLAS threads and cache sizes of this machine."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    def sysconf(name: int) -> int | None:
        try:
            return os.sysconf(name) or None
        except (OSError, ValueError):
            return None

    def openblas_threads() -> int | None:
        libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
        for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
        return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "machine": platform.machine(),
    }


class Checker:
    """Runs the CLI in process and checks every invocation's outputs."""

    def __init__(self, workload, inputs, reference):
        from evofam import cli

        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.ref_errs: list[float] = []

    def invoke(self, around=contextlib.nullcontext) -> float:
        """One ``evofam`` invocation; returns its wall seconds."""
        from workloads import parse_stdout

        wl = self.workload
        gc.collect()
        out = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with around(), contextlib.redirect_stdout(out):
                code = self.cli.main(wl.argv(self.inputs))
        except Exception as exc:  # a raising run is a failed run, not a crash
            self.fail(f"raised {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start

        fields = parse_stdout(out.getvalue())
        verdict = fields.get(wl.verdict_key)
        if code != wl.exit_code:
            self.fail(f"exit code {code}, expected {wl.exit_code}")
        elif verdict != wl.verdict:
            self.fail(f"{wl.verdict_key}={verdict}, expected {wl.verdict}")
        else:
            err = wl.ref_err(self.inputs.out_dir, self.inputs.u0, self.reference)
            self.ref_errs.append(err)
            if not err <= wl.tolerance:
                self.fail(f"ref_err={err!r} above tolerance {wl.tolerance!r}")
        return elapsed

    def fail(self, what: str) -> None:
        msg = f"FAILED {self.workload.name} run {self.attempted}: {what}"
        print(msg, file=sys.stderr)
        self.failures.append(msg)


def setup_times(inputs, budget: float) -> list:
    """Repeated parse_config + build_model, the set-up every invocation pays."""
    from evofam.cli import build_model
    from evofam.config import parse_config

    samples = []
    end = time.perf_counter() + budget
    while len(samples) < MIN_SETUP_REPS or time.perf_counter() < end:
        gc.collect()
        start = time.perf_counter()
        build_model(parse_config(str(inputs.ini)), None)
        samples.append(time.perf_counter() - start)
    return samples


def peak_heap_mb(checker: Checker) -> float:
    """Peak tracemalloc heap of one untimed, untraced invocation."""
    tracemalloc.start()
    try:
        checker.invoke()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def end_to_end(checker: Checker, seconds: float, log: dict) -> dict:
    """Fastest invocation and fastest set-up of the run.

    On a shared host other tenants' load slows a call by up to 2x, in
    spells of seconds to minutes, so a median moves with the share of a run
    spent slow; the fastest of many short samples moves much less.  Over
    four or five 20 s runs per workload, with calls of 0.4-1.5 s, the
    spread (quartile distance over median) of the median call was
    0.16-0.28 and of the fastest call 0.04-0.23; of the median set-up
    0.16-0.51 and of the fastest set-up 0.01-0.16.
    """
    peak = peak_heap_mb(checker)  # also warms lazy imports before timing
    gc.freeze()  # keep the per-sample gc.collect() off the long-lived heap
    # set-up reps follow each invocation, so both sample sets see the same
    # stretches of a noisy host
    runs, setup = [], []
    end = time.perf_counter() + seconds
    while len(runs) < MIN_SAMPLES or time.perf_counter() < end:
        runs.append(checker.invoke())
        setup += setup_times(checker.inputs, SETUP_SHARE * runs[-1])
    log.update(run_s_samples=runs, setup_s_samples=setup)
    print(f"run_s: fastest of {len(runs)} invocations (median "
          f"{statistics.median(runs):.4g} s); setup_s: fastest of {len(setup)} "
          f"parse_config + build_model (median {statistics.median(setup):.4g} s)")
    return {
        "run_s": min(runs),
        "setup_s": min(setup),
        "peak_mb": peak,
        "ref_err": statistics.median(checker.ref_errs) if checker.ref_errs else math.nan,
    }


def per_layer(checker: Checker, seconds: float, log: dict) -> dict:
    """Alternate untraced and traced invocations; medians of the times."""
    from tracing import Tracer

    checker.invoke()  # warm-up
    gc.freeze()
    tracer = Tracer()
    untraced, per_run = [], []
    end = time.perf_counter() + seconds
    while not per_run or time.perf_counter() < end:
        untraced.append(checker.invoke())
        run_id = len(per_run) + 1
        with tracer.installed():
            checker.invoke(lambda: tracer.invocation(run_id))
        per_run.append(tracer.metrics(run_id))

    out = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if _is_time(name):
            out[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            checker.fail(f"count {name} differs across traced runs: {values}")
        out[name] = values[0]
    out["trace_overhead_s"] = out["traced_run_s"] - statistics.median(untraced)
    out["evolution.table_bytes_computed"] = checker.workload.table_bytes_computed()
    log.update(untraced_run_s_samples=untraced,
               traced_run_s_samples=[m["traced_run_s"] for m in per_run],
               spans=tracer.span_records())
    print(f"traced: {len(per_run)} traced and {len(untraced)} untraced invocations")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evofam" / "cli.py").is_file():
        print(f"error: no evofam sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one BLAS thread: the box is small and shared, and no workload's matvec
    # (d <= 512) gains from threads; must be set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # stay on one core, the last one the process may use: migrations between
    # cores and the housekeeping work that lands on the first core were the
    # largest source of run-to-run spread on a shared 2-core box
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    import evofam
    from workloads import DEFAULT_SEED, WORKLOADS

    if Path(evofam.__file__).resolve().parent != SRC / "evofam":
        print(f"error: evofam imported from {evofam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    env = environment()
    env["largest_table_bytes_computed"] = wl.table_bytes_computed()
    l3 = env["l3_bytes"]
    env["largest_table_fits_l3"] = None if l3 is None else wl.table_bytes_computed() < l3
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload={wl.name} seed={seed} seconds={seconds} trace={args.trace}")

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    log: dict = {"env": env, "workload": wl.name, "seed": seed,
                 "seconds": seconds, "trace": args.trace}
    try:
        inputs = wl.make_inputs(seed, work)
        checker = Checker(wl, inputs, wl.reference(inputs.u0))
        if args.trace:
            measured, wanted = per_layer(checker, seconds, log), spec["per_layer"]
        else:
            measured, wanted = end_to_end(checker, seconds, log), spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checker.failures)
    print(f"ops_failed: {failed}/{checker.attempted}; ref_err tolerance {wl.tolerance!r}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    log.update(metrics=measured, failures=checker.failures, attempted=checker.attempted)
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(log, indent=1, default=float))
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
