"""Energy functional, Pohozaev/Nehari functionals, and the dilation fiber.

Everything is driven by the four integrals of a field u:

    kinetic  = int |grad u|^2        mass  = int |u|^2
    nonlocal = int (I_a * |u|^p)|u|^p  local = int |u|^q

The energy is J = kinetic/2 + mass/2 - mu nonlocal/(2p) - lambda local/q.
Dilating u(x) -> u(x/tau) rescales the four integrals by exact powers of
tau, so the fiber energy phi(tau) and the projection onto the zero set of
the Pohozaev functional are algebra on breakdowns, free of interpolation.

integrals, residual_of and dilate act on nodal arrays of one mesh, which
integrals reads from its kernel; breakdown and reduced_energy take the
RadialField a caller holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFieldError, InvalidParameterError, parse_value, require_keys
from .grid import RadialField, RadialGrid, grad_sq, h1_norm, h1_solve
from .riesz import RieszKernel, kernel_for

__all__ = [
    "Params",
    "EnergyBreakdown",
    "integrals",
    "residual_of",
    "breakdown",
    "energy_of",
    "pohozaev_of",
    "pohozaev_gate",
    "nehari_of",
    "dilate",
    "scale_breakdown",
    "fiber_energy_of",
    "project_tau",
    "reduced_energy",
]

POHOZAEV_TOL = 1e-5  # |P| / (kinetic + mass) a converged solve may leave


@dataclass(frozen=True)
class Params:
    """Problem data for -Lap u + u = mu (I_a*|u|^p)|u|^{p-2}u + lam |u|^{q-2}u.

    p must lie in the HLS-admissible closed interval [(N+a)/N, (N+a)/(N-2)]
    and q in (2, 2N/(N-2)].  lam = 0 is admitted so that the pure nonlocal
    problem can be driven to its critical exponent.
    """

    N: int
    alpha: float
    p: float
    q: float
    mu: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.N < 3:
            raise InvalidParameterError(f"N must be >= 3, got {self.N}")
        if not 0.0 < self.alpha < self.N:
            raise InvalidParameterError(f"alpha must lie in (0, N), got {self.alpha}")
        tol = 1e-12
        if not self.p_lower - tol <= self.p <= self.p_upper + tol:
            raise InvalidParameterError(
                f"p={self.p} outside [{self.p_lower}, {self.p_upper}] for N={self.N}, alpha={self.alpha}"
            )
        if not 2.0 < self.q <= self.q_upper + tol:
            raise InvalidParameterError(f"q={self.q} outside (2, {self.q_upper}] for N={self.N}")
        if not 0.0 < self.mu < np.inf:
            raise InvalidParameterError(f"mu must be positive and finite, got {self.mu}")
        if not 0.0 <= self.lam < np.inf:
            raise InvalidParameterError(f"lambda must be nonnegative and finite, got {self.lam}")

    @property
    def p_lower(self) -> float:
        return (self.N + self.alpha) / self.N

    @property
    def p_upper(self) -> float:
        return (self.N + self.alpha) / (self.N - 2)

    @property
    def q_upper(self) -> float:
        return 2.0 * self.N / (self.N - 2)

    def with_(self, **kwargs) -> "Params":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """The params section of configs and reports; lam is keyed "lambda"."""
        return {
            "N": self.N, "alpha": self.alpha, "p": self.p,
            "q": self.q, "mu": self.mu, "lambda": self.lam,
        }

    @classmethod
    def from_dict(cls, section) -> "Params":
        """Inverse of to_dict, every key required.

        Raises ConfigError for a malformed section and InvalidParameterError
        for values outside the admissible ranges.
        """
        keys = ("N", "alpha", "p", "q", "mu", "lambda")
        section = require_keys(section, set(keys), set(keys), "params")
        n = parse_value(int, section["N"], "params.N")
        alpha, p, q, mu, lam = (parse_value(float, section[k], f"params.{k}") for k in keys[1:])
        return cls(N=n, alpha=alpha, p=p, q=q, mu=mu, lam=lam)


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    mass: float
    nonlocal_term: float
    local_term: float

    def __post_init__(self):
        for name in ("kinetic", "mass", "nonlocal_term", "local_term"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be nonnegative")

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.kinetic, self.mass, self.nonlocal_term, self.local_term)


def integrals(
    values: np.ndarray, params: Params, kern: RieszKernel
) -> tuple[EnergyBreakdown, np.ndarray]:
    """The four integrals of the field with these nodal values on the
    kernel's mesh, and the potential I_a*|u|^p they share with the
    Euler-Lagrange right-hand side, for one kernel product.
    """
    grid = kern.grid
    vw = grid.sphere_area * grid.volume_weights
    f = np.abs(values) ** params.p
    potential = kern.convolve(f)
    a = grad_sq(grid, values)
    b = float(vw @ values**2)
    c = float(vw @ (potential * f))
    d = float(vw @ np.abs(values) ** params.q)
    return EnergyBreakdown(a, b, max(c, 0.0), d), potential


def residual_of(
    values: np.ndarray, potential: np.ndarray, grid: RadialGrid, params: Params
) -> tuple[np.ndarray, float]:
    """Nodal values of the H^1-Riesz representative of J'(u), and its H^1 norm.

    g = u - (-Lap + 1)^{-1} [mu (I_a*|u|^p)|u|^{p-2}u + lam |u|^{q-2}u],
    so <g, w>_{H^1} = <J'(u), w> holds exactly in the discretization;
    potential is the one integrals returns for the same values.
    """
    rhs = params.mu * potential * odd_power(values, params.p - 1.0)
    rhs += params.lam * odd_power(values, params.q - 1.0)
    g = values - h1_solve(grid, rhs)
    return g, h1_norm(grid, g)


def breakdown(u: RadialField, params: Params) -> EnergyBreakdown:
    """The four integrals of u at the given parameters."""
    g = u.grid
    if g.dimension != params.N:
        raise InvalidParameterError("grid dimension does not match params.N")
    return integrals(u.values, params, kernel_for(g, params.alpha))[0]


def energy_of(bd: EnergyBreakdown, params: Params) -> float:
    a, b, c, d = bd.astuple()
    return 0.5 * (a + b) - params.mu * c / (2.0 * params.p) - params.lam * d / params.q


def pohozaev_of(bd: EnergyBreakdown, params: Params) -> float:
    a, b, c, d = bd.astuple()
    n = params.N
    return (
        0.5 * (n - 2) * a
        + 0.5 * n * b
        - params.mu * (n + params.alpha) * c / (2.0 * params.p)
        - params.lam * n * d / params.q
    )


def pohozaev_gate(bd: EnergyBreakdown, params: Params) -> tuple[float, float, bool]:
    """|P|, its bound POHOZAEV_TOL (kinetic + mass), and whether it holds."""
    defect, bound = abs(pohozaev_of(bd, params)), POHOZAEV_TOL * (bd.kinetic + bd.mass)
    return defect, bound, defect <= bound


def nehari_of(bd: EnergyBreakdown, params: Params) -> float:
    a, b, c, d = bd.astuple()
    return a + b - params.mu * c - params.lam * d


def odd_power(u: np.ndarray, exponent: float) -> np.ndarray:
    """sign(u) |u|^exponent, stable at u = 0 for positive exponents.

    Writing |u|^{p-2} u this way avoids 0^{negative} * 0 = nan where
    dilation has zeroed the tail and p < 2.
    """
    return np.sign(u) * np.abs(u) ** exponent


def dilate(grid: RadialGrid, values: np.ndarray, tau: float) -> np.ndarray:
    """Nodal values of u(x/tau) on the same grid; tau = 0 gives zeros.

    Values needed left of the first node use the even extension; values
    beyond rmax are zero.
    """
    if tau < 0:
        raise InvalidParameterError(f"dilation parameter must be >= 0, got {tau}")
    if tau == 0.0:
        return np.zeros_like(values)
    if tau == 1.0:
        return values
    r = grid.nodes
    return np.interp(r / tau, r, values, left=values[0], right=0.0)


def scale_breakdown(bd: EnergyBreakdown, tau: float, params: Params) -> EnergyBreakdown:
    """Exact transform of the four integrals under u -> u(x/tau)."""
    if tau < 0:
        raise InvalidParameterError(f"dilation parameter must be >= 0, got {tau}")
    n = params.N
    return EnergyBreakdown(
        bd.kinetic * tau ** (n - 2),
        bd.mass * tau**n,
        bd.nonlocal_term * tau ** (n + params.alpha),
        bd.local_term * tau**n,
    )


def fiber_energy_of(bd: EnergyBreakdown, tau: float, params: Params) -> float:
    return energy_of(scale_breakdown(bd, tau, params), params)


def _fiber_slope_and_derivative(bd: EnergyBreakdown, params: Params):
    """The reduced slope phi'(tau) / tau^{N-3} = lead + quad t^2 - top t^{2+alpha},
    which changes sign exactly once on (0, inf), and its derivative."""
    a, b, c, d = bd.astuple()
    n, al = params.N, params.alpha
    lead = 0.5 * (n - 2) * a
    quad = n * (0.5 * b - params.lam * d / params.q)
    top = params.mu * (n + al) * c / (2.0 * params.p)

    def slope(t: float) -> float:
        return lead + quad * t**2 - top * t ** (2.0 + al)

    def derivative(t: float) -> float:
        return 2.0 * quad * t - (2.0 + al) * top * t ** (1.0 + al)

    return slope, derivative


def _bracketed_root(f, df, lo: float, hi: float, rtol: float) -> float:
    """The root of f in [lo, hi], f(lo) > 0 > f(hi), to relative tolerance
    rtol: Newton steps while they stay inside the shrinking bracket,
    bisection otherwise."""
    t = 0.5 * (lo + hi)
    for _ in range(200):
        value = f(t)
        if value == 0.0:
            return t
        if value > 0.0:
            lo = t
        else:
            hi = t
        slope = df(t)
        step = t - value / slope if slope != 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - t) <= rtol * step or hi - lo <= rtol * step:
            return step
        t = step
    return t


def project_tau(bd: EnergyBreakdown, params: Params) -> float:
    """Unique tau > 0 with P(u_tau) = 0, by bracketed root finding.

    Requires positive kinetic and nonlocal terms; the fiber energy then has
    a single interior maximum, so the reduced slope changes sign exactly
    once and the bracket [0, t_hi] found by doubling is valid.
    """
    if bd.kinetic <= 0 or bd.nonlocal_term <= 0:
        raise DegenerateFieldError(
            "Pohozaev projection needs positive kinetic and nonlocal terms"
        )
    slope, derivative = _fiber_slope_and_derivative(bd, params)
    hi = 1.0
    for _ in range(200):
        if slope(hi) < 0:
            break
        hi *= 2.0
    else:
        raise DegenerateFieldError("failed to bracket the fiber maximum")
    return float(_bracketed_root(slope, derivative, 0.0, hi, rtol=1e-13))


def reduced_energy(u: RadialField, params: Params) -> float:
    """max_{tau >= 0} J(u_tau) = J at the Pohozaev projection of u.

    Invariant under dilations of u up to interpolation error.
    """
    bd = breakdown(u, params)
    return fiber_energy_of(bd, project_tau(bd, params), params)
