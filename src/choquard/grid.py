"""Radial discretization of R^N.

Functions on R^N are represented by their radial profiles sampled on a
strictly increasing set of nodes in (0, rmax].  Integrals use a
product-trapezoid rule: on each cell the profile is interpolated linearly
and the measure r^{N-1} dr is integrated exactly, so fields that are
linear in r are integrated without error on any mesh.  Beyond rmax every
field is extended by zero (Dirichlet tail); at the origin profiles are
extended evenly (flat first cell), matching the smoothness of radial
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import InvalidParameterError

# 2^22 nodes is 32 MiB per array; larger meshes are refused before allocating
MAX_GRID_NODES = 1 << 22
# exponential meshes: r_i + r_0 grows by the factor e^{beta/M} per node, with
# r_0 = rmax/expm1(beta), so the mesh spans rmax/r_0 ~ e^beta in scale
EXPONENTIAL_BETA = 12.0

__all__ = [
    "RadialGrid",
    "RadialField",
    "build_grid",
    "grid_from_nodes",
    "sample",
    "integrate",
    "lp_norm",
    "grad_sq",
    "h1_solve",
    "h1_inner",
    "h1_norm",
    "sphere_area",
    "write_profile_csv",
    "read_profile_csv",
]


def sphere_area(dimension: int) -> float:
    """Surface measure of the unit sphere, 2 pi^{N/2} / Gamma(N/2)."""
    try:
        return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)
    except OverflowError:
        raise InvalidParameterError(f"Gamma(N/2) overflows a float for N={dimension}") from None


def _cell_moments(a: np.ndarray, b: np.ndarray, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments of r^{N-1} against the linear hat weights on cells [a, b].

    Returns (m_left, m_right) with m_left + m_right = (b^N - a^N)/N and
    m_right = int_a^b (r - a)/(b - a) r^{N-1} dr.
    """
    n = dimension
    total = (b**n - a**n) / n
    m_right = ((b ** (n + 1) - a ** (n + 1)) / (n + 1) - a * total) / (b - a)
    return total - m_right, m_right


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Immutable radial mesh with quadrature weights.

    Attributes
    ----------
    dimension : ambient dimension N >= 3.
    rmax : truncation radius; the last node equals rmax.
    nodes : strictly increasing radii in (0, rmax].
    weights : quadrature weights w such that
        integrate(f) = sphere_area * sum(w * f * nodes^{N-1}).
    sphere_area : |S^{N-1}|.
    """

    dimension: int
    rmax: float
    nodes: np.ndarray
    weights: np.ndarray
    sphere_area: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.dimension < 3:
            raise InvalidParameterError("dimension must be >= 3")
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise InvalidParameterError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > 0):
            raise InvalidParameterError("nodes must be strictly increasing and positive")
        if not math.isclose(nodes[-1], self.rmax, rel_tol=1e-12):
            raise InvalidParameterError("last node must equal rmax")
        if not np.all(weights > 0):
            raise InvalidParameterError("quadrature weights must be positive")
        if not math.isclose(self.sphere_area, sphere_area(self.dimension), rel_tol=1e-12):
            raise InvalidParameterError("sphere_area does not match the Gamma formula")

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @cached_property
    def volume_weights(self) -> np.ndarray:
        """weights * nodes^{N-1}; integrate(f) = sphere_area * volume_weights @ f."""
        return self.weights * self.nodes ** (self.dimension - 1)

    @cached_property
    def _stiffness(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell data for the radial Dirichlet form sum m_i (du/dr)_i^2.

        Returns (coef, offdiag): `coef[i] = m_i / dr_i^2` for the interior
        cells between consecutive nodes, and the tail coefficient appended
        last for the ghost cell [rmax, 2 rmax] where fields fall linearly
        to zero.
        """
        n = self.dimension
        r = self.nodes
        dr = np.diff(r)
        m = (r[1:] ** n - r[:-1] ** n) / n
        coef = m / dr**2
        tail_m = ((2.0 * self.rmax) ** n - self.rmax**n) / n
        tail = tail_m / self.rmax**2
        return coef, np.array([tail])

    @cached_property
    def _h1_banded_factor(self) -> np.ndarray:
        """Cholesky factor (upper banded form) of K + diag(volume_weights).

        This is 1/sphere_area times the matrix of the H^1 inner product;
        the angular factor cancels between the two sides of the weak form.
        """
        coef, tail = self._stiffness
        m = self.node_count
        diag = np.zeros(m)
        diag[:-1] += coef
        diag[1:] += coef
        diag[-1] += tail[0]
        diag += self.volume_weights
        ab = np.zeros((2, m))
        ab[0, 1:] = -coef
        ab[1, :] = diag
        return cholesky_banded(ab, lower=False)


@dataclass(frozen=True, eq=False)
class RadialField:
    """Samples of a radial function on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise InvalidParameterError("field length must equal the node count")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("field values must be finite")


def grid_from_nodes(dimension: int, nodes: np.ndarray) -> RadialGrid:
    """Grid over given strictly increasing nodes with moment weights.

    Weights are exact for piecewise-linear profiles; the first cell
    [0, r_1] is assigned wholly to node 1 (even extension at the origin).
    """
    area = sphere_area(dimension)  # refuses an N whose Gamma(N/2) overflows before any r^N
    nodes = np.asarray(nodes, dtype=float)
    edges = np.concatenate(([0.0], nodes))
    m_left, m_right = _cell_moments(edges[:-1], edges[1:], dimension)
    vol = np.zeros(nodes.size)
    vol += m_right
    vol[0] += m_left[0]
    vol[:-1] += m_left[1:]
    weights = vol / nodes ** (dimension - 1)
    return RadialGrid(dimension, float(nodes[-1]), nodes, weights, area)


def build_grid(
    dimension: int,
    rmax: float,
    num_nodes: int,
    scheme: str = "graded",
    gamma: float = 2.0,
) -> RadialGrid:
    """Construct a radial mesh on (0, rmax].

    Parameters
    ----------
    scheme : "graded" (nodes rmax*(i/M)^gamma, uniform for gamma = 1 and
        clustering toward the origin for gamma > 1) or "exponential" (nodes
        rmax*expm1(beta*i/M)/expm1(beta) with beta = EXPONENTIAL_BETA, whose
        spacing near r is about beta/M (r + r_0) at every scale; gamma is
        ignored).
    """
    if dimension < 3:
        raise InvalidParameterError(f"dimension must be >= 3, got {dimension}")
    if not rmax > 0:
        raise InvalidParameterError(f"rmax must be positive, got {rmax}")
    if num_nodes < 16:
        raise InvalidParameterError(f"need at least 16 nodes, got {num_nodes}")
    if num_nodes > MAX_GRID_NODES:
        raise InvalidParameterError(
            f"a mesh of {num_nodes} nodes exceeds the limit of {MAX_GRID_NODES} nodes"
        )
    frac = np.arange(1, num_nodes + 1, dtype=float) / num_nodes
    if scheme == "graded":
        if not gamma > 0:
            raise InvalidParameterError(f"grading exponent must be positive, got {gamma}")
        nodes = rmax * frac**gamma
    elif scheme == "exponential":
        nodes = rmax * np.expm1(EXPONENTIAL_BETA * frac) / math.expm1(EXPONENTIAL_BETA)
    else:
        raise InvalidParameterError(f"unknown scheme {scheme!r}")
    nodes[-1] = rmax
    return grid_from_nodes(dimension, nodes)


def sample(grid: RadialGrid, fn: Callable[[np.ndarray], np.ndarray]) -> RadialField:
    """Sample a callable radial profile on the grid nodes."""
    return RadialField(grid, np.asarray(fn(grid.nodes), dtype=float))


def integrate(f: RadialField) -> float:
    """Integral of f over R^N via the product-trapezoid rule."""
    return float(f.grid.sphere_area * (f.grid.volume_weights @ f.values))


def lp_norm(f: RadialField, t: float) -> float:
    """L^t norm of f, t >= 1."""
    if t < 1:
        raise InvalidParameterError(f"lp_norm needs t >= 1, got {t}")
    g = f.grid
    return float((g.sphere_area * (g.volume_weights @ np.abs(f.values) ** t)) ** (1.0 / t))


def grad_sq(f: RadialField) -> float:
    """Dirichlet integral of f over R^N.

    Radial derivatives are the per-cell difference quotients (centered at
    cell midpoints); the flat first cell contributes nothing and the ghost
    cell [rmax, 2 rmax], on which f falls linearly to zero, supplies the
    Dirichlet tail.  Vanishes only for the zero field.
    """
    g = f.grid
    coef, tail = g._stiffness
    d = np.diff(f.values)
    return float(g.sphere_area * (coef @ d**2 + tail[0] * f.values[-1] ** 2))


def h1_inner(f: RadialField, g: RadialField) -> float:
    """Discrete H^1 inner product int grad f . grad g + f g."""
    gr = f.grid
    coef, tail = gr._stiffness
    df, dg = np.diff(f.values), np.diff(g.values)
    kin = coef @ (df * dg) + tail[0] * f.values[-1] * g.values[-1]
    mass = gr.volume_weights @ (f.values * g.values)
    return float(gr.sphere_area * (kin + mass))


def h1_norm(f: RadialField) -> float:
    return math.sqrt(max(h1_inner(f, f), 0.0))


def h1_solve(rhs: RadialField) -> RadialField:
    """Solve (-Lap + 1) w = rhs on the truncated domain.

    The discrete operator is the symmetric positive definite matrix of the
    H^1 inner product (stiffness plus lumped mass); w falls to zero at the
    ghost node beyond rmax.  The banded Cholesky factor is cached on the
    grid, so repeated solves cost one back-substitution each.
    """
    g = rhs.grid
    b = g.volume_weights * rhs.values
    w = cho_solve_banded((g._h1_banded_factor, False), b)
    return RadialField(g, w)


def write_profile_csv(f: RadialField, path: str | Path) -> None:
    """Serialize a field as CSV with header r,u at full double precision."""
    rows = map("{!r},{!r}\r\n".format, f.grid.nodes.tolist(), f.values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("r,u\r\n" + "".join(rows))


def read_profile_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a profile CSV back as (r, u) arrays."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]
