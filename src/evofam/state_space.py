"""Weighted L1 state spaces on finite node sets.

States are coefficient vectors on a fixed quadrature grid (nodes ``x_i``,
weights ``w_i > 0``) carrying the norm ``||u|| = sum_i w_i |u_i|``.  The
weights encode the measure of the underlying continuum space: a uniform
velocity cell width for kinetic densities, ``x*dx`` for mass-weighted
fragment densities, or plain counting weights for abstract test systems.

Norm and mass sums run in ascending node order so results are reproducible
run to run.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import StructureError

GRID_KINDS = ("velocity", "mass", "abstract")

GRID_CSV_HEADER = ["node", "weight"]


def _ascending_sum(values: np.ndarray) -> float:
    """Plain sequential sum of ``values`` in ascending index order."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Quadrature grid: strictly positive weights, one node per coefficient.

    ``kind`` tags the physical interpretation:

    - ``"velocity"``: nodes are velocity cell centers, weights are cell widths;
    - ``"mass"``: nodes are mass cell centers, weights are ``x_i * dx``
      (the norm then measures total mass, not particle number);
    - ``"abstract"``: plain weighted coordinates, no geometry implied.

    Nodes must be strictly increasing for the two physical kinds.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "abstract"

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        weights = _readonly(self.weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.kind not in GRID_KINDS:
            raise StructureError(f"unknown grid kind {self.kind!r}; expected one of {GRID_KINDS}")
        if nodes.ndim != 1 or weights.ndim != 1:
            raise StructureError("grid nodes and weights must be one-dimensional")
        if nodes.size != weights.size:
            raise StructureError(
                f"grid has {nodes.size} nodes but {weights.size} weights"
            )
        if nodes.size == 0:
            raise StructureError("grid must contain at least one node")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise StructureError("grid nodes/weights must be finite")
        if np.any(weights <= 0.0):
            raise StructureError("grid weights must be strictly positive")
        if self.kind in ("velocity", "mass") and np.any(np.diff(nodes) <= 0.0):
            raise StructureError(f"{self.kind} grid nodes must be strictly increasing")
        if self.kind == "mass" and nodes[0] <= 0.0:
            raise StructureError("mass grid nodes must be strictly positive")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def __eq__(self, other) -> bool:  # array fields defeat dataclass eq
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.nodes.shape == other.nodes.shape
            and bool(np.all(self.nodes == other.nodes))
            and bool(np.all(self.weights == other.weights))
        )

    def to_csv(self, path) -> None:
        """Write ``node,weight`` rows (header included, shortest-roundtrip floats)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(GRID_CSV_HEADER)
            for x, w in zip(self.nodes, self.weights):
                writer.writerow([repr(float(x)), repr(float(w))])

    @classmethod
    def from_csv(cls, path, kind: str = "abstract") -> "Grid":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != GRID_CSV_HEADER:
                raise StructureError(
                    f"grid csv {path!s} must start with header 'node,weight'"
                )
            rows = [row for row in reader if row]
        try:
            nodes = np.array([float(r[0]) for r in rows])
            weights = np.array([float(r[1]) for r in rows])
        except (IndexError, ValueError) as exc:
            raise StructureError(f"grid csv {path!s}: malformed row ({exc})") from exc
        return cls(nodes=nodes, weights=weights, kind=kind)


def uniform_velocity_grid(v_min: float, v_max: float, n: int) -> Grid:
    """Midpoint grid on ``[v_min, v_max]`` with ``n`` cells; weights = cell width."""
    if not (v_max > v_min) or n < 1:
        raise StructureError("need v_max > v_min and n >= 1")
    dv = (v_max - v_min) / n
    nodes = v_min + (np.arange(n) + 0.5) * dv
    return Grid(nodes=nodes, weights=np.full(n, dv), kind="velocity")


def uniform_mass_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Midpoint grid on ``[x_min, x_max]``, ``x_min > 0``; weights = ``x_i * dx``."""
    if x_min <= 0.0:
        raise StructureError("mass grid needs x_min > 0")
    if not (x_max > x_min) or n < 1:
        raise StructureError("need x_max > x_min and n >= 1")
    dx = (x_max - x_min) / n
    nodes = x_min + (np.arange(n) + 0.5) * dx
    return Grid(nodes=nodes, weights=nodes * dx, kind="mass")


def abstract_grid(weights, nodes=None) -> Grid:
    """Abstract weighted coordinate space; nodes default to 0..d-1."""
    w = np.asarray(weights, dtype=float)
    x = np.arange(w.size, dtype=float) if nodes is None else np.asarray(nodes, dtype=float)
    return Grid(nodes=x, weights=w, kind="abstract")


@dataclass(frozen=True)
class StateVector:
    """A coefficient vector bound to its grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _readonly(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1:
            raise StructureError("state coefficients must be one-dimensional")
        if coeffs.size != self.grid.size:
            raise StructureError(
                f"state has {coeffs.size} coefficients on a grid of size {self.grid.size}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise StructureError("state coefficients must be finite")

    # Small arithmetic helpers; everything returns fresh vectors.
    def __add__(self, other: "StateVector") -> "StateVector":
        self._check_same_grid(other)
        return StateVector(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "StateVector") -> "StateVector":
        self._check_same_grid(other)
        return StateVector(self.grid, self.coeffs - other.coeffs)

    def scaled(self, factor: float) -> "StateVector":
        return StateVector(self.grid, factor * self.coeffs)

    def _check_same_grid(self, other: "StateVector") -> None:
        if self.grid != other.grid:
            raise StructureError("state vectors live on different grids")


def l1_norm(u: StateVector) -> float:
    """Weighted L1 norm, summed in ascending node order."""
    return _ascending_sum(u.grid.weights * np.abs(u.coeffs))


def mass(u: StateVector) -> float:
    """Signed weighted integral sum(w_i * u_i); equals the norm for u >= 0."""
    return _ascending_sum(u.grid.weights * u.coeffs)


def decompose(u: StateVector) -> tuple[StateVector, StateVector]:
    """Split into positive/negative parts with ``u = pos - neg``, both >= 0.

    Reconstruction is exact coefficient-wise (no cancellation occurs:
    one of the two parts is zero at every node).
    """
    pos = np.maximum(u.coeffs, 0.0)
    neg = np.maximum(-u.coeffs, 0.0)
    return StateVector(u.grid, pos), StateVector(u.grid, neg)


def weighted_norm_array(grid: Grid, coeffs: np.ndarray) -> float:
    """Norm of a raw coefficient array (engine-internal fast path)."""
    return _ascending_sum(grid.weights * np.abs(coeffs))
