"""Independent reference computations used to freeze expected values.

Everything here is deliberately implemented by a different route than the
package: Gamma-function closed forms, brute-force theta quadrature,
collocation on the radial ODE system, and dense scans.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_bvp
from scipy.special import gammaln, roots_legendre


def gamma_sobolev_constant(dimension: int) -> float:
    """S = N(N-2) pi (Gamma(N/2)/Gamma(N))^{2/N}."""
    n = dimension
    return n * (n - 2) * math.pi * math.exp((2.0 / n) * (gammaln(n / 2) - gammaln(n)))


def gamma_riesz_normalization(dimension: int, alpha: float) -> float:
    n = dimension
    return math.exp(
        gammaln((n - alpha) / 2) - gammaln(alpha / 2)
        - (n / 2) * math.log(math.pi) - alpha * math.log(2.0)
    )


def gamma_hls_constant(dimension: int, alpha: float) -> float:
    n = dimension
    return math.exp(
        ((n - alpha) / 2) * math.log(math.pi) + gammaln(alpha / 2)
        - gammaln((n + alpha) / 2) - (alpha / n) * (gammaln(n / 2) - gammaln(n))
    )


def gamma_lower_constant(dimension: int, alpha: float) -> float:
    """S_1 = (A_alpha C_alpha)^{-N/(N+alpha)}.

    Follows from the extremal profile (1+r^2)^{-N/2}: its lower-critical
    power is exactly the HLS extremal, so the nonlocal integral saturates
    the HLS bound, and the mass integral equals the norm factor.
    """
    prod = gamma_riesz_normalization(dimension, alpha) * gamma_hls_constant(dimension, alpha)
    return prod ** (-dimension / (dimension + alpha))


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights; order 20000 takes seconds to compute."""
    return roots_legendre(order)


def theta_kernel_oracle(dimension: int, alpha: float, r: float, s: float, order: int = 20000) -> float:
    """Dense Gauss-Legendre quadrature of the angular kernel integral."""
    x, w = _legendre_rule(order)
    theta = (x + 1.0) * math.pi / 2.0
    integrand = np.sin(theta) ** (dimension - 2) * (
        r * r + s * s - 2.0 * r * s * np.cos(theta)
    ) ** ((alpha - dimension) / 2.0)
    surf = 2.0 * math.pi ** ((dimension - 1) / 2.0) / math.gamma((dimension - 1) / 2.0)
    return surf * (math.pi / 2.0) * float(w @ integrand)


def pekar_bvp_oracle(R: float = 35.0, r0: float = 1e-6, mesh: int = 3000, tol: float = 1e-9):
    """Collocation solution of the radial system for N=3, alpha=2, p=2, q=3.

    Variables v = r u and psi = r Phi with Phi the Newtonian potential of
    u^2 satisfy v'' = v - psi v / r - v^2 / r and psi'' = -v^2 / r, with
    regularity conditions at the origin and decay conditions at R.
    Returns a callable u(r).
    """

    def rhs(r, y):
        v, dv, psi, dpsi = y
        return np.vstack([dv, v - psi * v / r - v**2 / r, dpsi, -(v**2) / r])

    def bc(ya, yb):
        return np.array([ya[0] - r0 * ya[1], ya[2] - r0 * ya[3], yb[1] + yb[0], yb[3]])

    r = np.geomspace(r0, R, mesh)
    u_seed = 1.1 * np.exp(-((r / 2.2) ** 2))
    mass = 4 * math.pi * np.trapezoid(u_seed**2 * r**2, r)
    phi = mass / (4 * math.pi * np.sqrt(r**2 + 2.0))
    y0 = np.vstack(
        [r * u_seed, u_seed * (1.0 - 2 * r**2 / 2.2**2), r * phi, phi * (1 - r**2 / (r**2 + 2.0))]
    )
    sol = solve_bvp(rhs, bc, r, y0, tol=tol, max_nodes=120000)
    if sol.sol(1.0)[0] < 0.1:
        raise RuntimeError("BVP oracle collapsed to the trivial solution")

    def u_of(r_eval: np.ndarray) -> np.ndarray:
        rc = np.clip(np.asarray(r_eval, dtype=float), sol.x[0], sol.x[-1])
        return sol.sol(rc)[0] / rc

    return u_of


def dense_fiber_max(bd, params, span: float = 64.0, points: int = 4001) -> tuple[float, float]:
    """Maximum of the fiber energy by dense log scan plus golden refinement.

    Independent of the root-finding projection: returns (tau_max, value).
    """
    from choquard.functionals import fiber_energy_of

    taus = np.geomspace(1.0 / span, span, points)
    vals = np.array([fiber_energy_of(bd, t, params) for t in taus])
    k = int(np.argmax(vals))
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, points - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    fc = fd = None
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = fiber_energy_of(bd, c, params)
    fd = fiber_energy_of(bd, d, params)
    for _ in range(200):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fiber_energy_of(bd, c, params)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fiber_energy_of(bd, d, params)
        if b - a < 1e-14 * b:
            break
    t_best = 0.5 * (a + b)
    return t_best, fiber_energy_of(bd, t_best, params)


def dense_kernel_matrix(grid, alpha: float) -> np.ndarray:
    """Dense M x M reduced Riesz kernel: point values of the angular kernel
    off the 5-diagonal band, the package's cell averages on it, symmetrised.

    The reference for the compressed operators, which must hold the same
    entries without forming this matrix.
    """
    from choquard import riesz

    r = grid.nodes
    m = r.size
    s_mat = np.broadcast_to(r[None, :], (m, m)).copy()
    s_mat[np.diag_indices(m)] *= 1.0 + 1e-6  # dummy values, replaced below
    k = riesz.angular_kernel(grid.dimension, alpha, r[:, None], s_mat)
    band = riesz._band_averages(grid, alpha)
    for row, off in enumerate(range(-2, 3)):
        idx_i = np.arange(max(0, -off), min(m, m - off))
        k[idx_i, idx_i + off] = band[row, idx_i]
    return 0.5 * (k + k.T)


def cell_average_mp(dimension: int, alpha: float, r: float, a: float, b: float) -> float:
    """Average of the angular kernel k(r, t) over t in the cell [a, b], by mpmath.

    The kernel is taken in its hypergeometric form for every N,

        k = c_N (r+t)^{alpha-N} 2F1((N-alpha)/2, (N-1)/2; N-1; xi),

    not the package's closed forms or connection formula.  The integral
    runs in the offset x = t - r, with 1 - xi = (x/(2r+x))^2 formed from x
    and xi then taken at enough extra digits that it never rounds to 1
    (a naive 30-digit quadrature in t returns inf at N=4, alpha <= 1).  A
    cell holding r is split there, and each side of width w is integrated
    in v with x = w v^m, m alpha >= 1, which leaves no unbounded factor at
    v = 0 for tanh-sinh to truncate.
    """
    import mpmath as mp

    digits = 16
    with mp.workdps(digits):
        n, al = mp.mpf(dimension), mp.mpf(alpha)
        r, a, b = mp.mpf(r), mp.mpf(a), mp.mpf(b)
        c_n = 2 ** (n - 1) * mp.pi ** ((n - 1) / 2) * mp.gamma((n - 1) / 2) / mp.gamma(n - 1)

        def kernel(x):
            one_minus_xi = (x / (2 * r + x)) ** 2
            with mp.workdps(digits + 3 + max(0, int(-mp.log10(one_minus_xi)))):
                xi = 1 - one_minus_xi
                f = mp.hyp2f1((n - al) / 2, (n - 1) / 2, n - 1, xi)
                return c_n * (2 * r + x) ** (al - n) * f

        if not a <= r <= b:
            return float(mp.quad(kernel, [a - r, b - r], method="gauss-legendre") / (b - a))
        m = max(1, math.ceil(1.0 / alpha))

        def side(w):
            if w == 0:
                return 0
            return mp.quad(lambda v: kernel(w * v**m) * m * abs(w) * v ** (m - 1), [0, 1])

        return float((side(a - r) + side(b - r)) / (b - a))


def random_positive_field(grid, rng: np.random.Generator):
    """Sum of a few positive Gaussian humps, decaying well inside rmax."""
    from choquard.grid import RadialField

    r = grid.nodes
    vals = 0.05 * np.exp(-(r**2))
    for _ in range(3):
        w = rng.uniform(0.1, 1.5)
        c = rng.uniform(0.0, 3.0)
        s = rng.uniform(0.4, 2.0)
        vals = vals + w * np.exp(-((r - c) ** 2) / (2 * s**2))
    return RadialField(grid, vals)
