"""Radial discretization of R^N.

Functions on R^N are represented by their radial profiles sampled on a
strictly increasing set of nodes in (0, rmax].  Integrals use a
product-trapezoid rule: on each cell the profile is interpolated linearly
and the measure r^{N-1} dr is integrated exactly, so fields that are
linear in r are integrated without error on any mesh.  Beyond rmax every
field is extended by zero (Dirichlet tail); at the origin profiles are
extended evenly (flat first cell), matching the smoothness of radial
solutions.

The H^1 primitives take a mesh and nodal arrays, as the solver holds them;
RadialField, a mesh with validated values, is where a field enters or
leaves the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .errors import InvalidParameterError, NumericalFailureError

# 2^22 nodes is 32 MiB per array; larger meshes are refused before allocating
MAX_GRID_NODES = 1 << 22
# exponential meshes: r_i + r_0 grows by the factor e^{beta/M} per node, with
# r_0 = rmax/expm1(beta), so the mesh spans rmax/r_0 ~ e^beta in scale
EXPONENTIAL_BETA = 12.0

__all__ = [
    "RadialGrid",
    "RadialField",
    "build_grid",
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


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Immutable radial mesh: a dimension and its nodes, with the quadrature
    derived from them.

    Attributes
    ----------
    dimension : ambient dimension N >= 3.
    nodes : strictly increasing radii in (0, rmax]; rmax is the last node.
    sphere_area : |S^{N-1}|.
    volume_weights : exact moments of r^{N-1} dr against the linear hat of
        each node, so integrate(f) = sphere_area * volume_weights @ f; the
        first cell [0, r_1] is assigned wholly to node 1 (even extension at
        the origin).
    """

    dimension: int
    nodes: np.ndarray
    sphere_area: float = field(init=False)
    volume_weights: np.ndarray = field(init=False, repr=False)
    # (b^N - a^N)/N on the cells [0, r_1], [r_1, r_2], ..., [r_M, 2 r_M],
    # the last being the ghost cell of the Dirichlet tail
    _shells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.dimension
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if n < 3:
            raise InvalidParameterError("dimension must be >= 3")
        if nodes.ndim != 1 or nodes.size == 0:
            raise InvalidParameterError("nodes must be a non-empty 1-d array")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > 0):
            raise InvalidParameterError("nodes must be strictly increasing and positive")
        # refuses an N whose Gamma(N/2) overflows before any r^N is taken
        object.__setattr__(self, "sphere_area", sphere_area(n))
        edges = np.concatenate(([0.0], nodes, [2.0 * nodes[-1]]))
        # r^N leaves the float range for large N; such a mesh is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            shells = np.diff(edges**n) / n
            # the share of each cell's moment carried by the hat at its right end
            m_right = (np.diff(edges ** (n + 1)) / (n + 1) - edges[:-1] * shells) / np.diff(edges)
            m_left = shells - m_right
        vol = m_right[:-1].copy()
        vol[0] += m_left[0]
        vol[:-1] += m_left[1:-1]
        if not (np.all((vol > 0) & (vol < math.inf)) and 0 < shells[-1] < math.inf):
            raise InvalidParameterError(
                f"r^N leaves the float range on nodes from {nodes[0]:.3g} to {nodes[-1]:.3g} "
                f"in dimension N={n}; the volume weights are not finite and positive"
            )
        object.__setattr__(self, "volume_weights", vol)
        object.__setattr__(self, "_shells", shells)

    @property
    def rmax(self) -> float:
        return float(self.nodes[-1])

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @cached_property
    def key(self) -> tuple:
        """Equal for equal meshes, however they were built: the quadrature is
        a function of the dimension and the nodes."""
        return self.dimension, self.nodes.tobytes()

    @cached_property
    def _stiffness(self) -> tuple[np.ndarray, float]:
        """Cell data for the radial Dirichlet form sum m_i (du/dr)_i^2.

        Returns (coef, tail): `coef[i] = m_i / dr_i^2` for the interior
        cells between consecutive nodes, and the tail coefficient of the
        ghost cell [rmax, 2 rmax] where fields fall linearly to zero.
        """
        coef = self._shells[1:-1] / np.diff(self.nodes) ** 2
        return coef, float(self._shells[-1] / self.rmax**2)

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
        diag[-1] += tail
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
        spacing near r is about beta/M (r + r_0) at every scale; this
        function ignores gamma there, and load_config refuses grid.gamma
        with it).
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
    return RadialGrid(dimension, nodes)


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


def grad_sq(grid: RadialGrid, values: np.ndarray) -> float:
    """Dirichlet integral over R^N of the field with these nodal values.

    Radial derivatives are the per-cell difference quotients (centered at
    cell midpoints); the flat first cell contributes nothing and the ghost
    cell [rmax, 2 rmax], on which the field falls linearly to zero,
    supplies the Dirichlet tail.  Vanishes only for the zero field.
    """
    coef, tail = grid._stiffness
    d = np.diff(values)
    return float(grid.sphere_area * (coef @ d**2 + tail * values[-1] ** 2))


def h1_inner(grid: RadialGrid, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete H^1 inner product int grad f . grad g + f g of nodal values."""
    coef, tail = grid._stiffness
    df, dg = np.diff(f), np.diff(g)
    kin = coef @ (df * dg) + tail * f[-1] * g[-1]
    mass = grid.volume_weights @ (f * g)
    return float(grid.sphere_area * (kin + mass))


def h1_norm(grid: RadialGrid, values: np.ndarray) -> float:
    return math.sqrt(max(h1_inner(grid, values, values), 0.0))


_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)


def h1_solve(grid: RadialGrid, rhs: np.ndarray) -> np.ndarray:
    """Nodal values of w solving (-Lap + 1) w = rhs on the truncated domain.

    The discrete operator is the symmetric positive definite matrix of the
    H^1 inner product (stiffness plus lumped mass); w falls to zero at the
    ghost node beyond rmax.  The banded Cholesky factor is cached on the
    grid, so repeated solves cost one LAPACK back-substitution (pbtrs) each.
    """
    if not np.all(np.isfinite(rhs)):
        raise InvalidParameterError("field values must be finite")
    w, info = _pbtrs(grid._h1_banded_factor, grid.volume_weights * rhs, lower=0, overwrite_b=1)
    if info != 0:
        raise NumericalFailureError(f"banded H^1 solve failed: LAPACK pbtrs info={info}")
    return w


@lru_cache(maxsize=4)
def _row_heads(nodes: bytes) -> tuple[str, ...]:
    """The text of each profile CSV row up to its u value, for one mesh;
    sweep cells build equal meshes apart, so the key is the node bytes."""
    return tuple(map("\r\n{!r},".format, np.frombuffer(nodes).tolist()))


def write_profile_csv(f: RadialField, path: str | Path) -> None:
    """Serialize a field as CSV with header r,u at full double precision."""
    heads = _row_heads(f.grid.nodes.tobytes())
    text = "".join(map(str.__add__, heads, map(repr, f.values.tolist())))
    with open(path, "w", newline="") as fh:
        fh.write("r,u" + text + "\r\n")


def read_profile_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a profile CSV back as (r, u) arrays; ValueError unless its
    header is r,u and every row holds two values."""
    with open(path) as fh:
        if fh.readline() != "r,u\n":
            raise ValueError("profile header is not 'r,u'")
    # loadtxt reads a path faster than an open file; the unpacking counts columns
    r, u = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True)
    return r, u
