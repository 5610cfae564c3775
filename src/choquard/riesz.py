"""Riesz potential I_alpha * f for radial f, and the sharp HLS constant.

The convolution of a radial function with |x|^{alpha-N} reduces to a
one-dimensional integral against the angularly integrated kernel

    k(r, s) = int_{S^{N-1}} |r e_1 - s omega|^{alpha-N} d omega,

for which a closed form exists: elementary for N = 3 and for alpha = 2,
hypergeometric in general.  The reduced kernel is precomputed once per
distinct mesh and alpha and kept for the process; no form of it stores
the M x M matrix.  For alpha = 2 (the Newtonian kernel
|S^{N-1}| max(r, s)^{2-N}) the matrix is rank one in each triangle off a
5-diagonal band, so only the point weights and the band corrections are
stored, O(M) numbers, and an apply costs two cumulative sums.  For other
alpha it is a symmetric hierarchical (HODLR) operator: dense leaves of at
most 64 nodes on the diagonal, and off-diagonal blocks held as low-rank
factors built from kernel rows and columns by adaptive cross
approximation, O(M k log M) numbers for ranks k of 10 to 40.

On the 5-diagonal band the kernel is replaced by its averages over the
quadrature cells, which absorb the integrable singularity at r = s.  A
cell not holding r takes 3 dyadic panels of 8-point Gauss-Legendre toward
its near edge.  The cell around r is split there; with s = (alpha - 1)/2
away from an integer, the 1 - xi connection formula writes
k = P + |r - t|^{alpha-1} Q with P and Q smooth, integrated per side by 12
Gauss-Legendre and 12 Gauss-Jacobi points.  Near an integer s, where that
formula has Gamma poles, each side takes 30 dyadic panels of 6 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaln, hyp2f1, roots_jacobi

from .errors import InvalidParameterError
from .grid import RadialField, RadialGrid, sphere_area

__all__ = [
    "RieszKernel",
    "riesz_normalization",
    "hls_constant",
    "angular_kernel",
    "kernel_for",
    "hls_bilinear",
]

_LOG_BRANCH_TOL = 1e-8
# Within this distance of an integer, s = (alpha - 1)/2 puts the 1 - xi
# connection formula on Gamma poles; the kernel then comes from hyp2f1 at
# xi itself and the diagonal cell from the dyadic rule.
_POLE_GAP = 0.05


def _is_newtonian(alpha: float) -> bool:
    """alpha = 2, where the kernel has the closed form |S^{N-1}| max(r, s)^{2-N}."""
    return abs(alpha - 2.0) < 1e-13


def _check_alpha(dimension: int, alpha: float) -> None:
    if not 0.0 < alpha < dimension:
        raise InvalidParameterError(f"alpha must lie in (0, {dimension}), got {alpha}")


def riesz_normalization(dimension: int, alpha: float) -> float:
    """Normalization A_alpha(N) = Gamma((N-a)/2) / (Gamma(a/2) pi^{N/2} 2^a)."""
    _check_alpha(dimension, alpha)
    n = dimension
    log_val = (
        gammaln((n - alpha) / 2.0)
        - gammaln(alpha / 2.0)
        - (n / 2.0) * math.log(math.pi)
        - alpha * math.log(2.0)
    )
    return float(math.exp(log_val))


def hls_constant(dimension: int, alpha: float) -> float:
    """Sharp constant of the bilinear Hardy-Littlewood-Sobolev inequality
    at the conjugate exponents 2N/(N+alpha)."""
    _check_alpha(dimension, alpha)
    n = dimension
    log_val = (
        ((n - alpha) / 2.0) * math.log(math.pi)
        + gammaln(alpha / 2.0)
        - gammaln((n + alpha) / 2.0)
        - (alpha / n) * (gammaln(n / 2.0) - gammaln(n))
    )
    return float(math.exp(log_val))


def angular_kernel(dimension: int, alpha: float, r, s):
    """Angular integral of |x - y|^{alpha-N} over directions of y.

    At alpha = 2 this is |S^{N-1}| max(r, s)^{2-N} (Newton's theorem).  For
    N = 3 the closed form
        (2 pi / (r s)) ((r+s)^{a-1} - |r-s|^{a-1}) / (a - 1)
    is used, with the logarithmic limit at a = 1, both evaluated through
    2 atanh(min/max) = log((r+s)/|r-s|) without cancellation.  For other
    dimensions

        k(r, s) = c_N (r+s)^{alpha-N} 2F1((N-alpha)/2, (N-1)/2; N-1; xi),
        xi = 4 r s / (r+s)^2,

    which follows from the Euler integral representation of the Gegenbauer
    reduction.  Where xi >= 3/4 and (alpha - 1)/2 is not near an integer,
    the 1 - xi connection formula gives k = P + |r-s|^{alpha-1} Q with P and
    Q hypergeometric at the small argument 1 - xi (_regular_part,
    _singular_factor).  Finite for r != s; diverges on the diagonal when
    alpha <= 1.
    """
    _check_alpha(dimension, alpha)
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(r <= 0) or np.any(s <= 0):
        raise InvalidParameterError("angular_kernel needs positive radii")
    if _is_newtonian(alpha):
        if dimension == 3:
            return 4.0 * math.pi / np.maximum(r, s)
        return sphere_area(dimension) * np.maximum(r, s) ** (2.0 - dimension)
    if dimension == 3:
        # log((r+s)/|r-s|) = 2 atanh(min/max), taken as log1p of a ratio
        # that keeps full precision both for r << s and next to r = s;
        # the power difference is then (r+s)^{a-1} (1 - e^{-(a-1) log}),
        # free of the cancellation of subtracting the two powers.
        with np.errstate(divide="ignore"):
            log_ratio = np.log1p(2.0 * np.minimum(r, s) / np.abs(r - s))
        if abs(alpha - 1.0) < _LOG_BRANCH_TOL:
            return (2.0 * math.pi / (r * s)) * log_ratio
        a = alpha - 1.0
        return (2.0 * math.pi / (r * s)) * (r + s) ** a * -np.expm1(-a * log_ratio) / a
    y = ((r - s) / (r + s)) ** 2  # 1 - xi, computed stably
    # hyp2f1 at xi itself is fast and accurate below xi = 3/4 and up to 100
    # times slower near xi = 1; the split loses digits as 1 - xi nears 1/2
    near = None if _near_pole(alpha) else y <= 0.25
    if near is None or not near.any():
        return _hypergeometric_form(dimension, alpha, r, s, y)
    r, s, y = np.broadcast_arrays(r, s, y)
    far = ~near
    out = np.empty(y.shape)
    out[far] = _hypergeometric_form(dimension, alpha, r[far], s[far], y[far])
    r, s = r[near], s[near]
    singular = np.abs(r - s) ** (alpha - 1.0) * _singular_factor(dimension, alpha, r, s)
    out[near] = _regular_part(dimension, alpha, r, s) + singular
    return out[()]


def _hypergeometric_form(dimension: int, alpha: float, r, s, y):
    """k(r, s) = c_N (r+s)^{alpha-N} 2F1((N-alpha)/2, (N-1)/2; N-1; xi) for
    N >= 4, given y = 1 - xi."""
    n = dimension
    log_c = (
        (n - 1.0) * math.log(2.0)
        + ((n - 1.0) / 2.0) * math.log(math.pi)
        + gammaln((n - 1.0) / 2.0)
        - gammaln(n - 1.0)
    )
    # xi clamped away from 1 so hyp2f1 stays finite; the clamp touches only
    # |r-s| < ~3e-7 max(r,s), which the split takes unless (alpha - 1)/2 is
    # near an integer
    xi = np.minimum(1.0 - np.minimum(y, 1.0), 1.0 - 1e-13)
    return math.exp(log_c) * (r + s) ** (alpha - n) * hyp2f1(
        (n - alpha) / 2.0, (n - 1.0) / 2.0, n - 1.0, xi
    )


def _near_pole(alpha: float) -> bool:
    """(alpha - 1)/2 within _POLE_GAP of an integer, where the Gamma factors
    of the 1 - xi connection formula have poles."""
    s = 0.5 * (alpha - 1.0)
    return abs(s - round(s)) < _POLE_GAP


def _regular_part(dimension: int, alpha: float, r, t):
    """P in k(r, t) = P + |r-t|^{alpha-1} Q, smooth in t across t = r, from
    the 1 - xi connection formula (DLMF 15.8.4; A&S 15.3.6).  With
    s = (alpha-1)/2 away from an integer and y = ((r-t)/(r+t))^2, for N >= 4
        P = 2^{N-1} pi^{(N-1)/2} Gamma(s) / Gamma((N+alpha)/2 - 1)
            (r+t)^{alpha-N} 2F1((N-alpha)/2, (N-1)/2; 1-s; y)."""
    if dimension == 3:
        a = alpha - 1.0
        return (2.0 * math.pi / a) * (r + t) ** a / (r * t)
    n, s = dimension, 0.5 * (alpha - 1.0)
    base = 2.0 ** (n - 1) * math.pi ** ((n - 1) / 2.0)
    gain = base * math.gamma(s) / math.gamma((n + alpha) / 2.0 - 1.0)
    y = ((r - t) / (r + t)) ** 2
    return gain * (r + t) ** (alpha - n) * hyp2f1((n - alpha) / 2.0, (n - 1.0) / 2.0, 1.0 - s, y)


def _singular_factor(dimension: int, alpha: float, r, t):
    """Q in k(r, t) = P + |r-t|^{alpha-1} Q, smooth in t across t = r; for N >= 4
        Q = 2^{N-1} pi^{(N-1)/2} Gamma(-s) / Gamma((N-alpha)/2)
            (r+t)^{1-N} 2F1((N+alpha)/2 - 1, (N-1)/2; 1+s; y)."""
    if dimension == 3:
        return (-2.0 * math.pi / (alpha - 1.0)) / (r * t)
    n, s = dimension, 0.5 * (alpha - 1.0)
    base = 2.0 ** (n - 1) * math.pi ** ((n - 1) / 2.0)
    gain = base * math.gamma(-s) / math.gamma((n - alpha) / 2.0)
    y = ((r - t) / (r + t)) ** 2
    a, b = (n + alpha) / 2.0 - 1.0, (n - 1.0) / 2.0
    return gain * (r + t) ** (1.0 - n) * hyp2f1(a, b, 1.0 + s, y)


def _panel_rule(levels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights on [0, 1] of `levels` dyadic panels refined toward
    0, the last one reaching it, each with `order`-point Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    outer = np.concatenate((2.0 ** -np.arange(levels), [0.0]))
    lo_frac, hi_frac = outer[1:], outer[:-1]
    mid = 0.5 * (lo_frac + hi_frac)
    half = 0.5 * (hi_frac - lo_frac)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


# Cells that do not hold r: the kernel's peak sits some half a cell or more
# beyond the near edge, and 3 panels of 8 points reach 1e-15.
_OUTSIDE_RULE = _panel_rule(3, 8)
# The diagonal cell at (alpha - 1)/2 near an integer: 30 panels of 6 points
# per side, the last one over the singular sliver.
_DYADIC_RULE = _panel_rule(30, 6)
# The diagonal cell otherwise: Gauss-Legendre for P, Gauss-Jacobi with the
# weight x^{alpha-1} for Q, 12 points each per side.
_SPLIT_ORDER = 12
_SMOOTH_RULE = _panel_rule(1, _SPLIT_ORDER)
_BANDWIDTH = 2
_OFFSETS = range(-_BANDWIDTH, _BANDWIDTH + 1)
# rows per block of a cell-average pass: each side evaluates rows x at most
# 180 kernel points, 12 MiB per array at this size
_BAND_BLOCK_ROWS = 8192


def _side_integral(f, r, near, far, rule, power: float = 0.0) -> np.ndarray:
    """Integral of |t - near|^power f(r, t) over t between near and far, by a
    rule on [0, 1] whose points are fractions of the way from near to far
    and whose weights carry the factor x^power.  Rows of zero width give 0."""
    frac, wts = rule
    width = np.abs(far - near)
    out = np.zeros_like(r)
    rows = width > 0
    t = near[rows, None] + (far - near)[rows, None] * frac
    out[rows] = width[rows] ** (1.0 + power) * (f(r[rows, None], t) @ wts)
    return out


def _diagonal_average(dimension: int, alpha: float, r, a, b) -> np.ndarray:
    """Average of k(r, .) over the cell [a, b] around r, integrated on each
    side of r toward the integrable |r-t|^{alpha-1} singularity."""
    if _near_pole(alpha):
        kernel = partial(angular_kernel, dimension, alpha)
        total = sum(_side_integral(kernel, r, r, edge, _DYADIC_RULE) for edge in (a, b))
        return total / (b - a)
    # roots_jacobi(n, 0, beta) carries the weight (1 + x)^beta on [-1, 1]
    nodes, weights = roots_jacobi(_SPLIT_ORDER, 0.0, alpha - 1.0)
    singular = (0.5 * (1.0 + nodes), 0.5**alpha * weights)
    regular = partial(_regular_part, dimension, alpha)
    factor = partial(_singular_factor, dimension, alpha)
    total = sum(
        _side_integral(regular, r, r, edge, _SMOOTH_RULE)
        + _side_integral(factor, r, r, edge, singular, alpha - 1.0)
        for edge in (a, b)
    )
    return total / (b - a)


def _outside_average(dimension: int, alpha: float, r, near, far) -> np.ndarray:
    """Average of k(r, .) over a cell not holding r, with `near` its edge
    toward r."""
    kernel = partial(angular_kernel, dimension, alpha)
    return _side_integral(kernel, r, near, far, _OUTSIDE_RULE) / np.abs(far - near)


def _in_blocks(average, *columns: np.ndarray) -> np.ndarray:
    """average(*columns) taken _BAND_BLOCK_ROWS rows at a time."""
    out = np.empty_like(columns[0])
    for lo in range(0, out.size, _BAND_BLOCK_ROWS):
        rows = slice(lo, lo + _BAND_BLOCK_ROWS)
        out[rows] = average(*(c[rows] for c in columns))
    return out


def _band_rows(m: int, off: int) -> np.ndarray:
    """Rows i of an m x m matrix whose column i + off exists."""
    return np.arange(max(0, -off), min(m, m - off))


def _band_averages(grid: RadialGrid, alpha: float) -> np.ndarray:
    """Cell averages of k(r_i, .) over the quadrature cell of node i + off:
    row off + 2 holds offset off = -2..2, column i holds node i, and
    entries whose node i + off is off the mesh are zero.

    Point values of the singular kernel next to the diagonal would cost an
    order of accuracy; averages restore the composite rule's second order.
    """
    r = grid.nodes
    m = r.size
    # Node j's quadrature cell runs between the midpoints to its neighbors.
    edges_lo = np.empty_like(r)
    edges_hi = np.empty_like(r)
    edges_lo[0] = 0.5 * r[0]
    edges_lo[1:] = 0.5 * (r[:-1] + r[1:])
    edges_hi[:-1] = edges_lo[1:]
    edges_hi[-1] = r[-1]

    band = np.zeros((len(_OFFSETS), m))
    for row, off in enumerate(_OFFSETS):
        idx_i = _band_rows(m, off)
        idx_j = idx_i + off
        lo, hi = edges_lo[idx_j], edges_hi[idx_j]
        if off == 0:
            average = partial(_diagonal_average, grid.dimension, alpha)
            band[row, idx_i] = _in_blocks(average, r[idx_i], lo, hi)
        else:
            # node i lies left of a cell with off > 0, right of one with off < 0
            near, far = (lo, hi) if off > 0 else (hi, lo)
            average = partial(_outside_average, grid.dimension, alpha)
            band[row, idx_i] = _in_blocks(average, r[idx_i], near, far)
    return band


def _check_entries(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise InvalidParameterError("kernel matrix has non-finite or non-positive entries")


def _band_apply(y: np.ndarray, corrections: np.ndarray, x: np.ndarray) -> None:
    """Add the band corrections times x to y in place: row off + 2 of
    corrections holds the entry (i, i + off) at column i, off = -2..2."""
    m = x.size
    for row, off in enumerate(_OFFSETS):
        lo, hi = max(0, -off), min(m, m - off)
        y[lo:hi] += corrections[row, lo:hi] * x[lo + off : hi + off]


def _band_corrections(grid: RadialGrid, alpha: float, stored) -> np.ndarray:
    """(5, M) corrections that turn an operator's own entries on the band
    into the symmetrised cell averages, in the form _band_apply reads.

    stored(off, i, j) gives the operator's entries (i, j) for index arrays
    on the diagonal at offset off.
    """
    m = grid.node_count
    band = _band_averages(grid, alpha)
    corrections = np.zeros_like(band)
    for row, off in enumerate(_OFFSETS):
        idx_i = _band_rows(m, off)
        idx_j = idx_i + off
        # band[-off] at column j is the transposed entry (j, i)
        sym = 0.5 * (band[row, idx_i] + band[-1 - row, idx_j])
        _check_entries(sym)
        corrections[row, idx_i] = sym - stored(off, idx_i, idx_j)
    return corrections


@dataclass(frozen=True, eq=False)
class NewtonianOperator:
    """The alpha = 2 reduced kernel in O(M) numbers.

    weights holds the point values w_j = k(r_j, r_j); off the band the
    entry (i, j) is w[max(i, j)], since k depends on max(r, s) alone.  band
    holds the corrections against those point values on the 5-diagonal
    band, in the (5, M) form _band_apply reads.
    """

    weights: np.ndarray
    band: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of the stored weights and band."""
        return self.weights.nbytes + self.band.nbytes

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The reduced kernel times x, by two cumulative sums."""
        w = self.weights
        y = w * np.cumsum(x)  # columns j <= i
        y[:-1] += np.cumsum((w * x)[::-1])[::-1][1:]  # columns j > i
        _band_apply(y, self.band, x)
        return y


def _newtonian_operator(grid: RadialGrid) -> NewtonianOperator:
    """The alpha = 2 reduced kernel from its point weights and band."""
    r = grid.nodes
    w = angular_kernel(grid.dimension, 2.0, r, r)
    _check_entries(w)
    corrections = _band_corrections(grid, 2.0, lambda off, i, j: w[np.maximum(i, j)])
    return NewtonianOperator(w, corrections)


# Dense diagonal leaves hold at most this many nodes.
_LEAF_NODES = 64
# ACA stops once the newest cross is below this fraction of the running
# approximation; the QR + SVD recompression then drops singular values
# below _RECOMPRESS_TOL of the largest.  A tighter ACA tolerance chases
# the rounding noise of the kernel formula into ranks of several hundred.
_ACA_TOL = 1e-14
_RECOMPRESS_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class HodlrOperator:
    """Symmetric hierarchical (HODLR) form of the reduced kernel for alpha != 2.

    The mesh is padded with zeros to leaf * 2^L nodes and split in halves L
    times.  leaves[b] is the dense block of point values on leaf b, with a
    zero diagonal.  factors[l] has shape (2^l, 2, n, k) for the blocks
    split at depth l, n = padded / 2^(l+1): the block (left half, right
    half) of pair b is factors[l][b, 0] @ factors[l][b, 1].T, and the
    block (right, left) is its transpose.  band holds the corrections
    that turn those point values into the symmetrised cell averages on
    the 5-diagonal band, in the (5, M) form _band_apply reads.
    """

    leaves: np.ndarray
    factors: tuple[np.ndarray, ...]
    band: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of the stored leaves, factors and band."""
        return self.leaves.nbytes + self.band.nbytes + sum(f.nbytes for f in self.factors)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The reduced kernel times x: one batched product for the leaves,
        and per tree level one for the coefficients and one to expand them."""
        m = x.size
        count, leaf, _ = self.leaves.shape
        xp = np.zeros(count * leaf)
        xp[:m] = x
        y = np.matmul(self.leaves, xp.reshape(count, leaf, 1)).ravel()
        for f in self.factors:
            coeffs = np.matmul(xp.reshape(f.shape[0], 2, 1, -1), f)
            # each half receives its factor times the other half's coefficients
            y += np.matmul(f, coeffs[:, ::-1].swapaxes(2, 3)).ravel()
        y = y[:m]
        _band_apply(y, self.band, x)
        return y


def _aca(row_of, col_of, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive cross approximation with partial pivoting (Bebendorf 2000):
    factors U, V with U @ V.T matching the rows x cols block whose row i
    is row_of(i) and column j is col_of(j)."""
    # crosses are stored as rows, in buffers that double when full
    u_mat = np.zeros((16, rows))
    v_mat = np.zeros((16, cols))
    free = np.ones(rows, dtype=bool)
    norm2 = 0.0
    rank = 0
    i = 0
    while rank < min(rows, cols) and free.any():
        free[i] = False
        row = row_of(i) - u_mat[:rank, i] @ v_mat[:rank]
        j = int(np.argmax(np.abs(row)))
        if row[j] == 0.0:
            i = int(np.argmax(free))
            continue
        v = row / row[j]
        u = col_of(j) - v_mat[:rank, j] @ u_mat[:rank]
        cross2 = (u @ u) * (v @ v)
        norm2 += cross2 + 2.0 * float((u_mat[:rank] @ u) @ (v_mat[:rank] @ v))
        if rank == u_mat.shape[0]:
            u_mat = np.concatenate((u_mat, np.zeros_like(u_mat)))
            v_mat = np.concatenate((v_mat, np.zeros_like(v_mat)))
        u_mat[rank], v_mat[rank] = u, v
        rank += 1
        if cross2 <= _ACA_TOL**2 * norm2:
            break
        i = int(np.argmax(np.where(free, np.abs(u), -1.0)))
    return u_mat[:rank].T, v_mat[:rank].T


def _recompress(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest factors of u @ v.T up to _RECOMPRESS_TOL, by QR and SVD."""
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    w, sigma, zt = np.linalg.svd(ru @ rv.T)
    keep = int(np.count_nonzero(sigma > _RECOMPRESS_TOL * sigma[0]))
    return qu @ (w[:, :keep] * sigma[:keep]), qv @ zt[:keep].T


def _hodlr_operator(grid: RadialGrid, alpha: float) -> HodlrOperator:
    """The alpha != 2 reduced kernel, built from kernel rows and columns
    without forming the M x M matrix.

    Its entries are those of the dense kernel: point values k(r_i, r_j)
    off the 5-diagonal band, symmetrised cell averages on it.  Each
    off-diagonal block is compressed with its column j scaled by
    r_j^(N - alpha), which undoes the r^(alpha - N) growth of k toward the
    origin, so that the compression error is small against every entry
    and not only against the largest.
    """
    n = grid.dimension
    r = grid.nodes
    m = r.size
    depth = max(0, math.ceil(math.log2(m / _LEAF_NODES)))
    leaf = -(-m // (1 << depth))
    padded = leaf << depth
    scale = r ** (n - alpha)

    def kernel(ri, rj):
        values = angular_kernel(n, alpha, ri, rj)
        _check_entries(values)
        return values

    leaves = np.zeros((1 << depth, leaf, leaf))
    for b, lo in enumerate(range(0, m, leaf)):
        idx = np.arange(lo, min(lo + leaf, m))
        off_diag = idx[:, None] != idx[None, :]
        ri, rj = np.broadcast_arrays(r[idx, None], r[None, idx])
        leaves[b, : idx.size, : idx.size][off_diag] = kernel(ri[off_diag], rj[off_diag])

    factors = []
    for level in range(depth):
        size = padded >> (level + 1)
        blocks = []
        for lo in range(0, padded, 2 * size):
            rows = np.arange(lo, min(lo + size, m))
            cols = np.arange(lo + size, min(lo + 2 * size, m))
            if cols.size == 0:
                blocks.append((np.zeros((0, 0)), np.zeros((0, 0))))
                continue
            u, v = _aca(
                lambda i: kernel(r[rows[i]], r[cols]) * scale[cols],
                lambda j: kernel(r[rows], r[cols[j]]) * scale[cols[j]],
                rows.size,
                cols.size,
            )
            u, v = _recompress(u, v)
            blocks.append((u, v / scale[cols, None]))
        rank = max(u.shape[1] for u, _ in blocks)
        f = np.zeros((len(blocks), 2, size, rank))
        for b, (u, v) in enumerate(blocks):
            f[b, 0, : u.shape[0], : u.shape[1]] = u
            f[b, 1, : v.shape[0], : v.shape[1]] = v
        factors.append(f)

    # the leaves hold point values off the diagonal and zero on it
    corrections = _band_corrections(
        grid, alpha, lambda off, i, j: kernel(r[i], r[j]) if off else 0.0
    )
    return HodlrOperator(leaves, tuple(factors), corrections)


@dataclass(frozen=True, eq=False)
class RieszKernel:
    """Angularly reduced kernel for one mesh and alpha: a HodlrOperator, or
    at alpha = 2 the O(M) NewtonianOperator."""

    alpha: float
    dimension: int
    grid: RadialGrid
    reduced_kernel: NewtonianOperator | HodlrOperator

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """(I_alpha * f) sampled on the nodes, including the normalization."""
        g = self.grid
        norm = riesz_normalization(self.dimension, self.alpha)
        return norm * self.reduced_kernel.apply(values * g.volume_weights)

    def bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """Double integral of u(x) v(y) |x-y|^{alpha-N} (no normalization)."""
        g = self.grid
        uw = u * g.volume_weights
        vw = v * g.volume_weights
        return float(g.sphere_area * (uw @ self.reduced_kernel.apply(vw)))


# Largest mesh for an alpha != 2 kernel.  Its HODLR operator is about 15 MB
# at 8192 nodes and builds in seconds, but no computation here needs more
# nodes; the alpha = 2 operator is O(M) and bounded by the grid's own limit.
MAX_KERNEL_NODES = 8192
_kernel_cache: dict[tuple, RieszKernel] = {}


def kernel_for(grid: RadialGrid, alpha: float) -> RieszKernel:
    """Reduced kernel for one mesh and exponent, built on first use and
    shared by every equal mesh.  Refused first: for alpha != 2 a mesh of
    more than MAX_KERNEL_NODES nodes, and an alpha so small (below about
    2^-54) that alpha - 1 rounds to -1, where the band quadrature's Jacobi
    weight (1 + x)^{alpha-1} is not integrable."""
    _check_alpha(grid.dimension, alpha)
    if alpha - 1.0 == -1.0:
        raise InvalidParameterError(
            f"alpha={alpha} is too small for a Riesz kernel: alpha - 1 rounds to -1"
        )
    newtonian = _is_newtonian(alpha)
    m = grid.node_count
    if not newtonian and m > MAX_KERNEL_NODES:
        raise InvalidParameterError(
            f"a Riesz kernel with alpha != 2 on {m} nodes is refused; the limit is "
            f"{MAX_KERNEL_NODES} nodes"
        )
    key = (grid.key, alpha)
    if key not in _kernel_cache:
        data = _newtonian_operator(grid) if newtonian else _hodlr_operator(grid, alpha)
        _kernel_cache[key] = RieszKernel(alpha, grid.dimension, grid, data)
    return _kernel_cache[key]


def hls_bilinear(u: RadialField, v: RadialField, alpha: float) -> float:
    """Bilinear HLS form int int u(x) v(y) / |x-y|^{N-alpha} dx dy; the two
    fields may sit on separately built but equal meshes."""
    if u.grid.key != v.grid.key:
        raise InvalidParameterError("hls_bilinear needs fields on equal meshes")
    return kernel_for(u.grid, alpha).bilinear(u.values, v.values)
