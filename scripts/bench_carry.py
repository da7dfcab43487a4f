#!/usr/bin/env python3
"""Time the carry's two prefix-sum methods on chunks of (M + 1) x w floats.

Usage: python3 scripts/bench_carry.py [--widths 2,128,...] [--lengths 16,64,...]
                                       [--rounds R] [--number N]

The engine's carry (``evolution._Flow.carry``) takes one prefix sum along
time per chunk: by one ``np.cumsum`` (``np.add.accumulate``) on rows
narrower than ``evolution._LOOP_ROW`` floats, and by one in-place add per
node on wider rows; the running products of the flow are formed the same
way.  Both give bitwise the same sums, so the threshold is a matter of
speed only.  For each (w, M) this prints the median time per call of each
method and the median over rounds of the paired ratio loop / cumsum.  The
rounds interleave the two methods, alternating which goes first, so that a
change in machine load hits both alike.  A ratio above 1 means ``np.cumsum``
wins; the threshold is the smallest width whose ratios fall below 1.
"""
from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import timeit

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from evofam.evolution import _LOOP_ROW, _accumulate_loop, _accumulate_whole  # noqa: E402

METHODS = {"cumsum": _accumulate_whole, "loop": _accumulate_loop}


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def time_pair(w: int, m: int, rounds: int, number: int) -> dict:
    """Per-call times of both methods on one (m + 1) x w chunk, ``rounds``
    interleaved rounds of ``number`` calls each."""
    # zeros stay zeros under repeated prefix sums, so every call does the
    # same work on normal floats
    rows = np.zeros((m + 1, w))
    timers = {name: timeit.Timer(lambda fn=fn: fn(np.add, rows)) for name, fn in METHODS.items()}
    times: dict[str, list[float]] = {name: [] for name in METHODS}
    for r in range(rounds):
        order = list(METHODS) if r % 2 == 0 else list(reversed(METHODS))
        for name in order:
            times[name].append(timers[name].timeit(number) / number)
    ratios = [lp / cs for lp, cs in zip(times["loop"], times["cumsum"])]
    return {"cumsum": statistics.median(times["cumsum"]),
            "loop": statistics.median(times["loop"]),
            "ratio": statistics.median(ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--widths", type=_ints, default=_ints("2,128,256,384,512,1024"))
    parser.add_argument("--lengths", type=_ints, default=_ints("16,64,256"))
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}; engine threshold _LOOP_ROW = {_LOOP_ROW}")
    print(f"{'w':>6} {'M':>6} {'cumsum_us':>10} {'loop_us':>10} {'loop/cumsum':>12}")
    for w in args.widths:
        for m in args.lengths:
            t = time_pair(w, m, args.rounds, args.number)
            print(f"{w:>6} {m:>6} {1e6 * t['cumsum']:>10.2f} {1e6 * t['loop']:>10.2f} "
                  f"{t['ratio']:>12.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
