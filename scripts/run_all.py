#!/usr/bin/env python3
"""Run every bundled experiment config and summarize the outcomes.

Usage: python3 scripts/run_all.py [output_root]

Every scripts/*.ini runs, in sorted order; each writes its CSV tables
under <output_root>/<config-stem>/ (default: out/). A config with a [sweep]
section runs with the sweep subcommand, every other one with run. The
summary prints each config's exit code and wall time (wall_time_s,
measured around the in-process CLI call) on stdout. The exit codes alone
go to <output_root>/exit_codes.csv (columns config, command, exit_code;
one row per config, sorted by config), so that scripts/compare_outputs.py
checks them along with the tables; wall times never enter the output
root. Exit code: the worst code any run produced, with
dishonest (2) outranking inconclusive (3) outranking honest (0).
"""
from __future__ import annotations

import argparse
import csv
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from evofam.cli import main  # noqa: E402
from evofam.config import parse_config  # noqa: E402

SEVERITY = {0: 0, 3: 1, 2: 2, 1: 3}


def run_all(output_root: str) -> int:
    here = pathlib.Path(__file__).resolve().parent
    root = pathlib.Path(output_root)
    outcomes = []
    for config in sorted(here.glob("*.ini")):
        name = config.name
        command = "sweep" if "sweep" in parse_config(config).sections else "run"
        out_dir = root / config.stem
        print(f"=== {command} {name} -> {out_dir}")
        started = time.perf_counter()
        code = main([command, str(config), "--output-dir", str(out_dir)])
        outcomes.append((name, command, code, time.perf_counter() - started))
        print()
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "exit_codes.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("config", "command", "exit_code"))
        writer.writerows((name, command, code) for name, command, code, _wall in outcomes)
    print("=== summary")
    for name, _command, code, wall in outcomes:
        print(f"{name}: exit {code} wall_time_s={wall:.3f}")
    return max((code for _name, _command, code, _wall in outcomes), key=SEVERITY.get, default=0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_root", nargs="?", default="out")
    raise SystemExit(run_all(parser.parse_args().output_root))
