"""Weighted L1 state spaces on finite node sets.

States are coefficient vectors on a fixed quadrature grid (nodes ``x_i``,
weights ``w_i > 0``) carrying the norm ``||u|| = sum_i w_i |u_i|``.  The
weights encode the measure of the underlying continuum space: a uniform
velocity cell width for kinetic densities, ``x*dx`` for mass-weighted
fragment densities, or plain counting weights for abstract test systems.

Norms are summed in ascending node order so results are reproducible run
to run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError

GRID_KINDS = ("velocity", "mass", "abstract")


def _readonly(a: np.ndarray) -> np.ndarray:
    """A frozen float copy of ``a``; the caller's own array stays writable."""
    out = np.array(a, dtype=float)
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


def abstract_grid(weights) -> Grid:
    """Abstract weighted coordinate space with nodes 0..d-1."""
    w = np.asarray(weights, dtype=float)
    return Grid(nodes=np.arange(w.size, dtype=float), weights=w, kind="abstract")


def weighted_norm_array(grid: Grid, coeffs: np.ndarray) -> float:
    """Norm of a raw coefficient array (engine-internal fast path), summed
    in ascending node order."""
    terms = grid.weights * np.abs(coeffs)
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0
