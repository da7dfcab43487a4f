#!/usr/bin/env python3
"""Run every bundled experiment config and summarize the outcomes.

Usage: python3 scripts/run_all.py [output-root]

Each config writes its CSV tables under <output-root>/<config-stem>/
(default: out/). The summary prints each config's exit code and wall time
(wall_time_s, measured around the in-process CLI call) on stdout, never in
the output directory. Exit code: the worst code any run produced, with
dishonest (2) outranking inconclusive (3) outranking honest (0).
"""
from __future__ import annotations

import pathlib
import sys
import time

from evofam.cli import main

RUNS = (
    ("run", "oracle.ini"),
    ("run", "boltzmann_conservative.ini"),
    ("run", "boltzmann_timedep.ini"),
    ("run", "fragmentation_binary.ini"),
    ("run", "lifted_checks.ini"),
    ("run", "shattering_sweep.ini"),
    ("sweep", "oracle_dt_sweep.ini"),
    ("sweep", "fragmentation_dt_sweep.ini"),
)

SEVERITY = {0: 0, 3: 1, 2: 2, 1: 3}


def run_all(output_root: str) -> int:
    here = pathlib.Path(__file__).resolve().parent
    outcomes = []
    for command, name in RUNS:
        config = here / name
        out_dir = pathlib.Path(output_root) / config.stem
        print(f"=== {command} {name} -> {out_dir}")
        started = time.perf_counter()
        code = main([command, str(config), "--output-dir", str(out_dir)])
        outcomes.append((name, code, time.perf_counter() - started))
        print()
    print("=== summary")
    for name, code, wall in outcomes:
        print(f"{name}: exit {code} wall_time_s={wall:.3f}")
    return max((code for _name, code, _wall in outcomes), key=SEVERITY.get, default=0)


if __name__ == "__main__":
    raise SystemExit(run_all(sys.argv[1] if len(sys.argv) > 1 else "out"))
