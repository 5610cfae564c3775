"""Riesz potential I_alpha * f for radial f, and the sharp HLS constant.

The convolution of a radial function with |x|^{alpha-N} reduces to a
one-dimensional integral against the angularly integrated kernel

    k(r, s) = int_{S^{N-1}} |r e_1 - s omega|^{alpha-N} d omega,

which is hypergeometric, and elementary at alpha = 2.  The reduced kernel
is precomputed once per distinct mesh and alpha and kept for the process;
no form of it stores the M x M matrix.  For alpha = 2 (the Newtonian kernel
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
its near edge.  The cell around r is split there.  On each side the 1 - xi
connection formula, uniform in s = (alpha - 1)/2 = m + eps across the
integers, leaves a smooth part for 12 Gauss-Legendre points and a smooth
factor of the weight (1 - x^{2 eps})/eps, -2 log x at eps = 0, for 12
points of that weight's Gauss rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gamma, gammaln, hyp2f1, polygamma, rgamma

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
    """Angular integral of |x - y|^{alpha-N} over directions of y,

        k(r, s) = c_N (r+s)^{alpha-N} 2F1((N-alpha)/2, (N-1)/2; N-1; xi),
        xi = 4 r s / (r+s)^2

    (Euler integral of the Gegenbauer reduction), and |S^{N-1}|
    max(r, s)^{2-N} at alpha = 2.  scipy's hyp2f1 takes xi < 3/4; where
    y = 1 - xi <= 1/4, k = P + Q (y^eps - 1)/eps (_connection_parts), the
    logarithmic form at eps = 0.  Finite at r = s only when alpha > 1.
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
    n, b = dimension, 0.5 * (dimension - 1.0)
    total, y = np.broadcast_arrays(r + s, ((r - s) / (r + s)) ** 2)  # y = 1 - xi, computed stably
    near = y <= 0.25
    c_n = 2.0 ** (n - 1) * math.pi**b * math.exp(gammaln(b) - gammaln(n - 1.0))
    xi = np.where(near, 0.0, 1.0 - y)
    out = np.asarray(c_n * total ** (alpha - n) * hyp2f1(0.5 * (n - alpha), b, n - 1.0, xi))
    if near.any():
        regular, factor = _connection_parts(n, alpha, total[near], y[near])
        with np.errstate(divide="ignore", invalid="ignore"):  # y = 0 where r = s
            term = factor * _expm1_ratio(_split_exponent(alpha)[1], np.log(y[near]))
        out[near] = regular + np.where(factor == 0.0, 0.0, term)
    return out[()]


def _split_exponent(alpha: float) -> tuple[int, float]:
    """s = (alpha - 1)/2 as m + eps, with integer m >= 0 and -1/2 < eps <= 1/2."""
    m = max(0, math.ceil(alpha / 2.0 - 1.0))
    return m, 0.5 * (alpha - 1.0 - 2 * m)


def _expm1_ratio(eps: float, z):
    """(e^{eps z} - 1)/eps, which is z at eps = 0."""
    return z if eps == 0.0 else np.expm1(eps * z) / eps


@lru_cache(maxsize=None)
def _connection_series(dimension: int, alpha: float) -> np.ndarray:
    """Coefficients of P and of Q / y^m as power series in y = 1 - xi.

    With b = (N-1)/2 and s = m + eps, DLMF 15.8.4 gives
    k (r+t)^{N-alpha} / (2^{N-1} pi^b) = F(s) + y^s F(-s), where
    F(s) = Gamma(N-1) Gamma(s) / (Gamma(b) Gamma(b+s)) 2F1(b-s, b; 1-s; y).
    The poles 1/eps of term m + k of F(s) and term k of F(-s) cancel in
    closed form (Forrey 1997): the log of their Gamma ratio is eps times a
    Taylor series in eps.  At eps = 0 this is A&S 15.3.10-12."""
    n, b = dimension, 0.5 * (dimension - 1.0)
    m, eps = _split_exponent(alpha)
    s = m + eps
    base = 2.0 ** (n - 1) * math.pi**b
    k = np.arange(400.0)
    # -eps times the y^{m+k} coefficients of y^s F(-s)
    terms = (-1) ** m * base / np.sinc(eps) * rgamma(b - s) * rgamma(1.0 + s) * np.cumprod(
        np.append(1.0, (b + k[:-1]) * (b + s + k[:-1]) / ((k[:-1] + 1.0) * (1.0 + s + k[:-1])))
    )
    size = np.abs(terms) * 0.25**k
    keep = np.flatnonzero(size > 1e-18 * size.max())[-1] + 1  # terms that matter at y = 1/4
    k, terms = k[:keep], terms[:keep]
    # (log Gamma(x + e) - log Gamma(x))/e by its Taylor series in e
    x = np.stack((k + 1.0, b + k, m + k + 1.0, b + m + k))
    e = eps * np.array([[-1.0], [-1.0], [1.0], [1.0]])
    j = np.arange(60)[:, None, None]
    slope = [1.0, -1.0, 1.0, -1.0] @ np.sum(polygamma(j, x) * e**j * rgamma(j + 2.0), axis=0)
    head = [base * gamma(s) * rgamma(b + s)] if m else []  # terms n < m of F(s)
    for i in range(m - 1):
        head.append(head[-1] * (b - s + i) * (b + i) / ((1.0 - s + i) * (i + 1.0)))
    regular = np.concatenate((head, terms * _expm1_ratio(eps, slope)))
    return np.column_stack((regular, np.pad(-terms, (0, m))))


def _connection_parts(dimension: int, alpha: float, total, y) -> tuple[np.ndarray, np.ndarray]:
    """P and Q in k(r, t) = P + Q (y^eps - 1)/eps, given r + t and
    y = ((r-t)/(r+t))^2 <= 1/4: P, and Q / y^m, are smooth across t = r."""
    m, _ = _split_exponent(alpha)
    coefficients = _connection_series(dimension, alpha)
    top = np.max(y, initial=0.0)  # the terms that matter at the largest y
    size = np.abs(coefficients).max(axis=1) * top ** np.arange(len(coefficients))
    coefficients = coefficients[: np.flatnonzero(size >= 1e-18 * size.max())[-1] + 1]
    regular, factor = (np.full(y.shape, c) for c in coefficients[-1])
    for a, b in coefficients[-2::-1].tolist():  # Horner
        regular *= y
        regular += a
        factor *= y
        factor += b
    scale = total ** (alpha - dimension)
    return scale * regular, scale * y**m * factor


@lru_cache(maxsize=None)
def _singular_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0, 1] for the weight (1 - x^{2 eps})/eps, -2 log x at
    eps = 0, by Gautschi's modified Chebyshev algorithm (Orthogonal
    Polynomials, 2004, sec. 2.1.7) and Golub-Welsch.  The modified moments
    are against the Jacobi polynomials 2F1(-k, k + 2 eps + 1; 2 eps + 1; x)
    of x^{2 eps}: 2/(2 eps + 1) at k = 0, 2/((2 eps + k)(k + 1)) after.
    Each factor 2 eps + j is formed from alpha, keeping its digits as
    alpha -> 0."""
    m, _ = _split_exponent(alpha)
    n = _SPLIT_ORDER
    k = np.arange(1.0, 2 * n)

    def shifted(j):  # 2 eps + j
        return alpha + (j - 1.0 - 2 * m)

    # the basis's monic recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}
    even, beta = shifted(2 * k), shifted(0)
    a = np.append(shifted(1) / shifted(2), 0.5 + 0.5 * beta**2 / (even * shifted(2 * k + 2)))
    b = np.append(0.0, (k * shifted(k)) ** 2 / (even**2 * shifted(2 * k + 1) * shifted(2 * k - 1)))
    # moments against the monic basis: R_k leads with (-1)^k (2 eps + k + 1)_k / (2 eps + 1)_k
    lead = [math.prod(-shifted(j + i + 1) / shifted(i + 1) for i in range(j)) for j in range(2 * n)]
    sigma = np.append(2.0 / shifted(1), 2.0 / (shifted(k) * (k + 1.0))) / lead
    diag, off = [a[0] + sigma[1] / sigma[0]], [sigma[0]]
    previous = np.zeros_like(sigma)
    for j in range(1, n):  # entries j .. 2n - j - 1 of each row are the ones read
        nxt = np.roll(sigma, -1) - (diag[j - 1] - a) * sigma - off[j - 1] * previous
        nxt += b * np.roll(sigma, 1)
        diag.append(a[j] + nxt[j + 1] / nxt[j] - sigma[j] / sigma[j - 1])
        off.append(nxt[j] / sigma[j - 1])
        previous, sigma = sigma, nxt
    nodes, vectors = eigh_tridiagonal(np.array(diag), np.sqrt(off[1:]))
    return nodes, off[0] * vectors[0] ** 2


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
# The diagonal cell: per side, Gauss-Legendre for the smooth part and
# _singular_rule for the singular one, 12 points each.
_SPLIT_ORDER = 12
_SMOOTH_RULE = _panel_rule(1, _SPLIT_ORDER)
_BANDWIDTH = 2
_OFFSETS = range(-_BANDWIDTH, _BANDWIDTH + 1)
# rows per block of a cell-average pass: at most 24 kernel points a row, so
# each temporary array stays near 200 KB
_BAND_BLOCK_ROWS = 1024


def _side_integral(f, r, near, far) -> np.ndarray:
    """Integral of f(r, t) over t between near and far, by _OUTSIDE_RULE in
    the fraction of the way from near to far; rows of zero width give 0."""
    frac, wts = _OUTSIDE_RULE
    width = np.abs(far - near)
    out = np.zeros_like(r)
    rows = width > 0
    t = near[rows, None] + (far - near)[rows, None] * frac
    out[rows] = width[rows] * (f(r[rows, None], t) @ wts)
    return out


def _split_side(dimension: int, alpha: float, r, edge) -> np.ndarray:
    """Integral of k(r, t) over t between r and an edge within y <= 1/4.
    With t = r + (edge - r) x and lam = |edge - r|/(r + t),
        k = P + Q (lam^{2 eps} - 1)/eps - Q lam^{2 eps} (1 - x^{2 eps})/eps:
    smooth in x, and smooth times the weight of _singular_rule."""
    _, eps = _split_exponent(alpha)
    width = np.abs(edge - r)
    out = np.zeros_like(r)
    rows = width > 0
    r, step, width = r[rows, None], (edge - r)[rows, None], width[rows, None]

    def parts(x):
        total = 2.0 * r + step * x  # r + t
        log_lam = np.log(width / total)
        return _connection_parts(dimension, alpha, total, np.exp(2.0 * log_lam) * x**2), log_lam

    (regular, factor), log_lam = parts(_SMOOTH_RULE[0])
    smooth = (regular + factor * _expm1_ratio(eps, 2.0 * log_lam)) @ _SMOOTH_RULE[1]
    nodes, weights = _singular_rule(alpha)
    (_, factor), log_lam = parts(nodes)
    out[rows] = width[:, 0] * (smooth - (factor * np.exp(2.0 * eps * log_lam)) @ weights)
    return out


def _diagonal_integral(dimension: int, alpha: float, r, a, b) -> np.ndarray:
    """Integral of k(r, .) over the cell [a, b] around r, split at r.  P and Q
    have a pole at y = 1 (t = 0) of order growing with N, so the split sides
    stop at y = 1/9: a >= r/2, and the cell beyond 2r takes _OUTSIDE_RULE."""
    mid = np.minimum(b, 2.0 * r)
    split = _split_side(dimension, alpha, r, a) + _split_side(dimension, alpha, r, mid)
    return split + _side_integral(partial(angular_kernel, dimension, alpha), r, mid, b)


def _in_blocks(average, *columns: np.ndarray) -> np.ndarray:
    """average(*columns) taken _BAND_BLOCK_ROWS rows at a time."""
    out = np.empty_like(columns[0])
    for lo in range(0, out.size, _BAND_BLOCK_ROWS):
        rows = slice(lo, lo + _BAND_BLOCK_ROWS)
        out[rows] = average(*(c[rows] for c in columns))
    return out


def _band_averages(grid: RadialGrid, alpha: float) -> np.ndarray:
    """Cell averages of k(r_i, .) over the quadrature cell of node i + off:
    row off + 2 holds offset off = -2..2, column i node i, and entries whose
    node i + off is off the mesh are zero.  Point values of the singular
    kernel next to the diagonal would cost the composite rule an order."""
    r = grid.nodes
    m = r.size
    # Node j's quadrature cell runs between the midpoints to its neighbors.
    edges = np.concatenate(([0.5 * r[0]], 0.5 * (r[:-1] + r[1:]), [r[-1]]))
    diagonal = partial(_diagonal_integral, grid.dimension, alpha)
    outside = partial(_side_integral, partial(angular_kernel, grid.dimension, alpha))
    band = np.zeros((len(_OFFSETS), m))
    for row, off in enumerate(_OFFSETS):
        idx_i = np.arange(max(0, -off), min(m, m - off))  # rows whose column i + off exists
        lo, hi = edges[idx_i + off], edges[idx_i + off + 1]
        # node i lies left of a cell with off > 0, right of one with off < 0
        near, far = (lo, hi) if off >= 0 else (hi, lo)
        integral = diagonal if off == 0 else outside
        band[row, idx_i] = _in_blocks(integral, r[idx_i], near, far) / (hi - lo)
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
        idx_i = np.arange(max(0, -off), min(m, m - off))  # rows whose column i + off exists
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

    @cached_property
    def normalization(self) -> float:
        """A_alpha(N), the factor of the Riesz potential."""
        return riesz_normalization(self.dimension, self.alpha)

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """(I_alpha * f) sampled on the nodes, including the normalization."""
        return self.normalization * self.reduced_kernel.apply(values * self.grid.volume_weights)

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
    2^-54) that alpha - 1 rounds to -1, where s = (alpha - 1)/2 has lost
    alpha."""
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
