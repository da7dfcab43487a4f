#!/usr/bin/env python3
"""Trace the memory peak of each phase of a row pass, in (M+1) d arrays.

Usage: python3 scripts/pass_peak.py [--widths 128,512] [--lengths 512,128] [--rows 3]

Before it runs, the engine's row pass (``evolution._right_rows``) charges
its working set against the table cap (``evolution._pass_bytes``): on the
one-step path ``_PASS_ROWS`` arrays of (M+1) d floats from a start state,
``_PER_NODE_PASS_ROWS`` from a per-node source, each plus one B block of
about ``_BLOCK_FLOATS`` floats; on the direct path ``_DIRECT_PASS_ROWS``
arrays.  This prints, per path, gain form and (d, M), the traced peak of
each phase above what was held before the pass began, in units of (M+1) d
floats (stdlib ``tracemalloc``):

    steps   the one-step factors (``_step_factors``)
    flow    their running products (``_Flow``)
    row0    row 0's carry
    B       a B call into a new array (``_b_rows`` on one block)
    Bback   B on several blocks, each written back into the rows it read
    kicks   the next row's kicks into another buffer (``_Flow.kicks``)
    kinpl   the next row's kicks formed in place in the B row
    carry   the next row's carry
    caller  the caller between two rows (``iterate_right``'s end-row copy)
    other   the rest of the pass: row checks, defects, the direct path's sums

then ``peak``, the largest of them, and ``charge``, what the guard charges
the pass, in the same units.  The paths are ``one-step`` (trapezoid,
``iterate_right``), ``midpoint`` (the direct path, ``iterate_right``),
``direct`` (the trapezoid's direct reference, ``iterate_right`` forced
onto it) and ``per-node`` (a source at every node, whose caller holds
each row while the pass makes the next, as the Laplace check does).
Every source is ones, made inside the count, as the Laplace check's is,
since a pass owns a per-node source.
The gains are a dense matrix and a factor pair, each with a decaying flow.
Besides the arrays, a peak holds lattice vectors and numpy's fixed
iterator buffers (up to about 197 KB), which weigh on small shapes only.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import pathlib
import sys
import tracemalloc
from unittest import mock

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from evofam import evolution  # noqa: E402
from evofam.coefficients import SeparableCoefficient, TimeProfile  # noqa: E402
from evofam.evolution import TimeGrid, iterate_right, loss_gain_model  # noqa: E402
from evofam.state_space import abstract_grid  # noqa: E402

PHASES = ("steps", "flow", "row0", "B", "Bback", "kicks", "kinpl", "carry", "caller", "other")
PATHS = ("one-step", "midpoint", "direct", "per-node")
GAINS = ("dense", "pair")


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


class PhasePeaks:
    """Per phase, the largest traced peak above ``base`` over its spans.

    Phases nest: entering one closes the current span of the phase it
    interrupts, which goes on when the inner one leaves."""

    def __init__(self):
        self.base = 0
        self.peaks = dict.fromkeys(PHASES, 0)
        self.stack = ["other"]

    def start(self) -> None:
        """Count from here, above what is traced now."""
        self.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def close_span(self) -> None:
        name = self.stack[-1]
        self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1] - self.base)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def phase(self, name: str):
        self.close_span()
        self.stack.append(name)
        try:
            yield
        finally:
            self.close_span()
            self.stack.pop()


@contextlib.contextmanager
def traced_phases(peaks: PhasePeaks, direct: bool):
    """Book the engine's calls to their phases in ``peaks`` while the block
    runs; with ``direct``, ``iterate_right``'s pass takes the direct path."""

    def tag(name_of):
        def wrap(original):
            @functools.wraps(original)
            def call(*args, **kwargs):
                with peaks.phase(name_of(*args, **kwargs)):
                    return original(*args, **kwargs)
            return call
        return wrap

    def rows(original):
        def gen(*args, **kwargs):
            items = original(*args, **kwargs, direct=direct)
            del args, kwargs  # a per-node source is the pass's own
            for row in items:
                with peaks.phase("caller"):
                    yield row
                # so that the pass can drop the row, as its caller does
                del row
        return gen

    flow = evolution._Flow
    wrappers = [
        (evolution, "_step_factors", tag(lambda *a: "steps")),
        (flow, "__init__", tag(lambda *a: "flow")),
        (flow, "carry", tag(lambda self, out, framed=False: "carry" if framed else "row0")),
        (flow, "kicks", tag(lambda self, b_row, dt, ends=None, out=None, blocks=None:
                            "kicks" if out is not None else "kinpl")),
        (evolution, "_b_rows", tag(lambda model, kicked, n, taus, states, blocks=None:
                                   "Bback" if blocks and len(blocks) > 1 else "B")),
        (evolution, "_right_rows", rows),
    ]
    with contextlib.ExitStack() as stack:
        for obj, attr, wrapper in wrappers:
            stack.enter_context(mock.patch.object(obj, attr, wrapper(getattr(obj, attr))))
        yield


def build_model(gain: str, d: int):
    """A decaying flow with a gain of ``gain`` form on d unit-weight nodes."""
    grid = abstract_grid(np.ones(d))
    loss = SeparableCoefficient(TimeProfile(kind="constant", c0=1.0), np.linspace(0.5, 1.5, d))
    k = np.full((d, d), 0.3 / d) if gain == "dense" else (np.full(d, 0.3 / d), np.ones(d))
    return loss_gain_model(gain, grid, loss, TimeProfile(kind="constant", c0=1.0), k, np.ones(d))


def run_pass(model, tg: TimeGrid, path: str, rows: int) -> None:
    """Rows 0..rows of one pass: row-less ``iterate_right`` from a start
    state; from a per-node source, a caller that holds each row while the
    pass makes the next, as the Laplace check does, and stops before the
    last row's B row."""
    d, m = model.grid.size, tg.n_steps
    if path != "per-node":
        iterate_right(model, tg, np.ones(d), rows, keep_rows=False)
        return
    row = None
    for _n, row in zip(range(rows + 1),
                       evolution._right_rows(model, tg, np.ones((m + 1, d)), rows, [])):
        pass
    del row


def measure(path: str, gain: str, d: int, m: int, rows: int) -> dict[str, float]:
    """Phase peaks of one pass, and the guard's charge, in arrays of
    (M+1) d floats."""
    model = build_model(gain, d)
    tg = TimeGrid(0.0, 1.0, 1.0 / m, "midpoint" if path == "midpoint" else "trapezoid")
    run_pass(model, tg, path, rows)  # warm: the dense gain folds its weights once
    peaks = PhasePeaks()
    tracemalloc.start()
    try:
        with traced_phases(peaks, direct=path == "direct"):
            peaks.start()
            run_pass(model, tg, path, rows)
            peaks.close_span()
    finally:
        tracemalloc.stop()
    unit = (m + 1) * d * 8
    out = {name: value / unit for name, value in peaks.peaks.items()}
    out["peak"] = max(out.values())
    out["charge"] = evolution._pass_bytes(m, d, path == "per-node", path in ("midpoint", "direct")) / unit
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--widths", type=_ints, default=_ints("128,512"))
    parser.add_argument("--lengths", type=_ints, default=_ints("512,128"))
    parser.add_argument("--rows", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}; _PASS_ROWS = {evolution._PASS_ROWS}, "
          f"_DIRECT_PASS_ROWS = {evolution._DIRECT_PASS_ROWS}, "
          f"_PER_NODE_PASS_ROWS = {evolution._PER_NODE_PASS_ROWS}, "
          f"_BLOCK_FLOATS = {evolution._BLOCK_FLOATS}; "
          f"rows 0..{args.rows}; units of (M+1) d floats")
    columns = PHASES + ("peak", "charge")
    print(f"{'path':>8} {'gain':>5} {'d':>5} {'M':>5} "
          + " ".join(f"{name:>6}" for name in columns))
    for d in args.widths:
        for m in args.lengths:
            for path in PATHS:
                for gain in GAINS:
                    p = measure(path, gain, d, m, args.rows)
                    print(f"{path:>8} {gain:>5} {d:>5} {m:>5} "
                          + " ".join(f"{p[name]:>6.2f}" for name in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
