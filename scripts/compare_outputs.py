#!/usr/bin/env python3
"""Compare two output trees of scripts/run_all.py cell by cell.

Usage: python3 scripts/compare_outputs.py A B [--rtol R] [--atol T]

Both trees must hold the same files.  CSV files are compared cell by
cell: a cell that parses as a float on both sides must satisfy
|a - b| <= atol + rtol * |b|, and every other cell must match exactly.
Any other file must be byte-identical.  Prints the worst cell of each
file (largest |a - b| over its allowance) and exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import csv
import math
import pathlib


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_excess(a: str, b: str, rtol: float, atol: float) -> tuple[float, float]:
    """(|a - b| over its allowance, |a - b|); inf for unequal text cells.

    The first entry is 0 only for equal cells.
    """
    if a == b:
        return 0.0, 0.0
    x, y = _float(a), _float(b)
    if x is None or y is None or math.isnan(x) or math.isnan(y):
        return math.inf, math.inf
    diff = abs(x - y)
    allowance = atol + rtol * abs(y)
    if diff == 0.0:
        return 0.0, 0.0
    return (diff / allowance if allowance > 0.0 else math.inf), diff


def compare_csv(path_a: pathlib.Path, path_b: pathlib.Path, rtol: float,
                atol: float) -> tuple[bool, str]:
    """(match, description of the worst cell) for one pair of CSV files."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b):
        return False, f"{len(rows_a)} rows against {len(rows_b)}"
    header = rows_a[0] if rows_a else []
    worst = (0.0, 0.0, None)
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            return False, f"row {r}: {len(row_a)} cells against {len(row_b)}"
        for c, (a, b) in enumerate(zip(row_a, row_b)):
            excess, diff = _cell_excess(a, b, rtol, atol)
            if excess > worst[0]:
                worst = (excess, diff, (r, c, a, b))
    excess, diff, where = worst
    if where is None:
        return True, "identical"
    r, c, a, b = where
    column = header[c] if c < len(header) else str(c)
    rel = diff / abs(_float(b)) if _float(b) else math.inf
    text = (f"worst cell row {r} column {column!r} (row starts {rows_a[r][0]!r}): "
            f"{a} vs {b}, abs {diff:.3g}, rel {rel:.3g}")
    return excess <= 1.0, text


def compare_trees(root_a: pathlib.Path, root_b: pathlib.Path, rtol: float,
                  atol: float) -> int:
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    ok = True
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: MISSING from {root_b if rel in files_a else root_a}")
        ok = False
    for rel in sorted(files_a & files_b):
        path_a, path_b = root_a / rel, root_b / rel
        if path_a.read_bytes() == path_b.read_bytes():
            match, text = True, "identical"
        elif rel.suffix == ".csv":
            match, text = compare_csv(path_a, path_b, rtol, atol)
        else:
            match, text = False, "bytes differ"
        print(f"{rel}: {'ok' if match else 'MISMATCH'}: {text}")
        ok = ok and match
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    return compare_trees(args.a, args.b, args.rtol, args.atol)


if __name__ == "__main__":
    raise SystemExit(main())
