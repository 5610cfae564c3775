"""Test-function families, sharp constants, asymptotics, and thresholds.

The concentration family is the cutoff Sobolev bubble

    u_eps = phi * U_eps,   U_eps = (N(N-2) eps^2)^{(N-2)/4} / (eps^2 + r^2)^{(N-2)/2},

with phi a polynomial bump equal to 1 on B_1 and 0 outside B_2; the
lower-critical family is the dilated extremal v_delta built from
V = A (1 + r^2)^{-N/2}.  Their four energy integrals, fitted against
dyadic parameter sweeps, reproduce the classical expansion orders, and
their fiber maxima give computable upper bounds for the critical least
energy levels.  Margins of those bounds against the sharp-constant
thresholds decide when a critical ground state exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CaseMismatchError,
    InvalidParameterError,
    NonMonotoneMarginError,
)
from .functionals import Params, breakdown, reduced_energy
from .grid import RadialField, RadialGrid, build_grid, grad_sq, lp_norm

__all__ = [
    "SharpConstants",
    "talenti",
    "cutoff_bubble",
    "pekar_extremal",
    "sharp_constants",
    "AsymptoticTable",
    "asymptotic_suite",
    "MarginRow",
    "MarginReport",
    "classify_margins",
    "threshold_check",
    "SearchResult",
    "critical_parameter_search",
    "THRESHOLD_CASES",
    "UPPER_CORNER",
    "critical_case",
]

THRESHOLD_CASES = ("upper-critical-p", "lower-critical-p", "critical-q", "doubly-critical")
# p and q both upper-critical: no threshold lemma covers this corner
UPPER_CORNER = "upper-critical-p-and-q"
# exponent distance treated as "at" a critical value by threshold_check
CASE_TOL = 1e-9
# critical_parameter_search: margins sampled across the bracket before
# bisecting, and the bracket width, relative to its upper end, that stops it
SEARCH_SAMPLES = 5
SEARCH_TOL = 0.05


@dataclass(frozen=True)
class SharpConstants:
    """Bundle of the constants entering the energy thresholds.

    The identity S_alpha = S / (A_alpha C_alpha)^{1/p_upper} holds by
    construction; A_alpha, C_alpha and S_1 = (A_alpha C_alpha)^{-N/(N+alpha)}
    are Gamma-formula values, while S is measured from the cutoff bubbles on
    internal grids.
    """

    N: int
    alpha: float
    S: float
    S_alpha: float
    S_1: float
    A_alpha: float
    C_alpha: float

    def to_dict(self) -> dict:
        p_upper = (self.N + self.alpha) / (self.N - 2)
        consistent = math.isclose(
            self.S_alpha * (self.A_alpha * self.C_alpha) ** (1.0 / p_upper),
            self.S,
            rel_tol=1e-10,
        )
        return {
            "N": self.N,
            "alpha": self.alpha,
            "S": self.S,
            "S_alpha": self.S_alpha,
            "S_1": self.S_1,
            "A_alpha": self.A_alpha,
            "C_alpha": self.C_alpha,
            "S_alpha_consistency": consistent,
        }


def _talenti_values(r: np.ndarray, epsilon: float, dimension: int) -> np.ndarray:
    n = dimension
    amp = (n * (n - 2) * epsilon**2) ** ((n - 2) / 4.0)
    return amp / (epsilon**2 + r**2) ** ((n - 2) / 2.0)


def _cutoff_values(r: np.ndarray) -> np.ndarray:
    # polynomial bump: 1 on [0,1], cubic smoothstep down to 0 on [1,2]
    x = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - (3.0 * x**2 - 2.0 * x**3)


def talenti(grid: RadialGrid, epsilon: float) -> RadialField:
    """Sobolev extremal profile at concentration scale epsilon."""
    if not epsilon > 0:
        raise InvalidParameterError("epsilon must be positive")
    return RadialField(grid, _talenti_values(grid.nodes, epsilon, grid.dimension))


def cutoff_bubble(grid: RadialGrid, epsilon: float) -> RadialField:
    """Cutoff bubble phi * U_eps; needs rmax >= 2 to contain the support."""
    if not epsilon > 0:
        raise InvalidParameterError("epsilon must be positive")
    if grid.rmax < 2.0:
        raise InvalidParameterError("cutoff_bubble needs rmax >= 2")
    r = grid.nodes
    return RadialField(grid, _cutoff_values(r) * _talenti_values(r, epsilon, grid.dimension))


def _lower_critical_breakdown(grid: RadialGrid, alpha: float):
    """Integrals of V = (1+r^2)^{-N/2} at the lower-critical p, and that p."""
    n = grid.dimension
    p_low = (n + alpha) / n
    q_mid = 0.5 * (2.0 + 2.0 * n / (n - 2.0))  # any admissible q; unused
    v = RadialField(grid, (1.0 + grid.nodes**2) ** (-n / 2.0))
    return breakdown(v, Params(N=n, alpha=alpha, p=p_low, q=q_mid)), p_low


def pekar_extremal(grid: RadialGrid, delta: float, alpha: float) -> RadialField:
    """Dilated lower-critical extremal v_delta = delta^{N/2} V(delta x).

    V = A (1+r^2)^{-N/2} with A chosen on the grid so that the nonlocal
    integral of V at the lower-critical exponent equals one.  Sampled from
    the closed form, not resampled.
    """
    if not delta > 0:
        raise InvalidParameterError("delta must be positive")
    bd, p_low = _lower_critical_breakdown(grid, alpha)
    amp = bd.nonlocal_term ** (-1.0 / (2.0 * p_low))
    n = grid.dimension
    vals = delta ** (n / 2.0) * amp * (1.0 + (delta * grid.nodes) ** 2) ** (-n / 2.0)
    return RadialField(grid, vals)


def _bubble_quotient(grid: RadialGrid, epsilon: float) -> float:
    n = grid.dimension
    u = cutoff_bubble(grid, epsilon)
    return grad_sq(u) / lp_norm(u, 2.0 * n / (n - 2.0)) ** 2


@lru_cache(maxsize=None)
def _sobolev_constant(dimension: int) -> float:
    """Best Sobolev constant from the cutoff-bubble quotient.

    Richardson in the concentration scale removes the O(eps^{N-2}) cutoff
    deficit, Richardson over two grids removes the O(h^2) quadrature bias.
    """
    grid_a = build_grid(dimension, 4.0, 1536, scheme="graded")
    grid_b = build_grid(dimension, 4.0, 3072, scheme="graded")
    eps0 = 2.0**-7 if dimension == 3 else 2.0**-5
    fac = 2.0 ** (dimension - 2)

    def eps_extrapolated(grid: RadialGrid) -> float:
        return (fac * _bubble_quotient(grid, eps0 / 2) - _bubble_quotient(grid, eps0)) / (fac - 1.0)

    return (4.0 * eps_extrapolated(grid_b) - eps_extrapolated(grid_a)) / 3.0


@lru_cache(maxsize=None)
def sharp_constants(dimension: int, alpha: float) -> SharpConstants:
    """All threshold constants for one (N, alpha); memoized."""
    from .riesz import hls_constant, riesz_normalization

    a_alpha = riesz_normalization(dimension, alpha)
    c_alpha = hls_constant(dimension, alpha)
    s = _sobolev_constant(dimension)
    # the lower-critical extremal (1+r^2)^{-N/2} saturates sharp HLS (Lieb 1983)
    s_1 = (a_alpha * c_alpha) ** (-dimension / (dimension + alpha))
    p_upper = (dimension + alpha) / (dimension - 2)
    s_alpha = s / (a_alpha * c_alpha) ** (1.0 / p_upper)
    return SharpConstants(dimension, alpha, s, s_alpha, s_1, a_alpha, c_alpha)


# ---------------------------------------------------------------------------
# asymptotic expansions of the bubble integrals


def local_term_case(dimension: int, q: float) -> tuple[str, float, bool]:
    """Expected decay of int |u_eps|^q: (case label, order, log factor)."""
    n = dimension
    prod = (n - 2) * q
    if prod > n:
        return ">N", n - prod / 2.0, False
    if prod == n:
        return "=N", n - prod / 2.0, True
    return "<N", prod / 2.0, False


def nonlocal_core_dominated(dimension: int, alpha: float, p: float) -> bool:
    """True when the bubble core drives the nonlocal integral, making the
    lower-bound exponent N + alpha - (N-2) p the actual decay order."""
    return p > (dimension + alpha) / (2.0 * (dimension - 2.0))


@dataclass(frozen=True)
class AsymptoticTable:
    eps: list[float]
    kinetic: list[float]
    mass: list[float]
    nonlocal_term: list[float]
    local_term: list[float]
    resolved: list[bool]
    fits: dict

    def rows(self) -> list[tuple]:
        return list(zip(self.eps, self.kinetic, self.mass, self.nonlocal_term, self.local_term))


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y ~ K x^slope."""
    return float(np.polyfit(np.log(x), np.log(np.abs(y)), 1)[0])


def _grid_resolves(grid: RadialGrid, eps: float) -> bool:
    """Node spacing at radius eps must be at most eps/4."""
    spacing = np.diff(grid.nodes, prepend=0.0)
    idx = min(int(np.searchsorted(grid.nodes, eps)), spacing.size - 1)
    return bool(spacing[idx] <= eps / 4.0)


def asymptotic_suite(
    dimension: int,
    alpha: float,
    p: float,
    q: float,
    eps_list: list[float],
    num_nodes: int = 2048,
    fine_nodes: int = 1 << 17,
) -> AsymptoticTable:
    """Bubble integrals over a dyadic eps sweep with fitted decay orders.

    The local integrals (kinetic, mass, q-term) are quadrature only and
    evaluated on a dedicated fine mesh so that deep concentration scales
    stay resolved; the nonlocal term uses the coarser kernel mesh.  The
    kinetic deficit S^{N/2} - a(eps) is fitted through successive
    differences, which cancels the limit without needing S.  Under-resolved
    eps values are flagged and excluded from fits rather than silently
    used.
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if eps_arr.size < 4:
        raise InvalidParameterError("need at least 4 eps values for stable fits")
    ratios = eps_arr[:-1] / eps_arr[1:]
    if not np.allclose(ratios, 2.0, rtol=1e-12):
        raise InvalidParameterError("eps list must be dyadic (successive halving)")
    kernel_grid = build_grid(dimension, 4.0, num_nodes, scheme="graded")
    fine_grid = build_grid(dimension, 4.0, fine_nodes, scheme="graded")
    params = Params(N=dimension, alpha=alpha, p=p, q=q)
    vw = fine_grid.sphere_area * fine_grid.volume_weights

    resolved = []
    table = {"a": [], "b": [], "c": [], "d": []}
    for eps in eps_arr:
        resolved.append(_grid_resolves(fine_grid, eps) and _grid_resolves(kernel_grid, eps))
        u_fine = cutoff_bubble(fine_grid, eps)
        table["a"].append(grad_sq(u_fine))
        table["b"].append(float(vw @ u_fine.values**2))
        table["d"].append(float(vw @ np.abs(u_fine.values) ** q))
        table["c"].append(breakdown(cutoff_bubble(kernel_grid, eps), params).nonlocal_term)

    ok = np.asarray(resolved)
    eps_ok = eps_arr[ok]
    if eps_ok.size < 3:
        raise InvalidParameterError("fewer than 3 resolved eps values; refine the grid")

    fits: dict[str, dict] = {}

    # kinetic: a(eps) = S^{N/2} + O(eps^{N-2}); fit the dyadic differences
    a_ok = np.asarray(table["a"])[ok]
    diffs = np.abs(np.diff(a_ok))
    slope = _loglog_slope(eps_ok[:-1], diffs)
    fits["kinetic_deficit"] = {"fitted": slope, "expected": float(dimension - 2)}

    # mass: eps^2 for N >= 5, eps^2 |ln eps| for N = 4, eps for N = 3
    b_ok = np.asarray(table["b"])[ok]
    if dimension == 4:
        slope = _loglog_slope(eps_ok, b_ok / np.abs(np.log(eps_ok)))
        expected = 2.0
    else:
        slope = _loglog_slope(eps_ok, b_ok)
        expected = 1.0 if dimension == 3 else 2.0
    fits["mass"] = {"fitted": slope, "expected": expected, "log_factor": dimension == 4}

    # local term: three cases in (N-2) q versus N
    case, expected, has_log = local_term_case(dimension, q)
    d_ok = np.asarray(table["d"])[ok]
    y = d_ok / np.abs(np.log(eps_ok)) if has_log else d_ok
    slope = _loglog_slope(eps_ok, y)
    fits["local"] = {"fitted": slope, "expected": expected, "case": case, "log_factor": has_log}

    # nonlocal term: the lower-bound exponent is attained only in the
    # core-dominated regime; otherwise it is a one-sided bound
    c_ok = np.asarray(table["c"])[ok]
    bound_exp = dimension + alpha - (dimension - 2.0) * p
    tight = nonlocal_core_dominated(dimension, alpha, p)
    slope = _loglog_slope(eps_ok, c_ok) if abs(bound_exp) > 1e-12 else 0.0
    fits["nonlocal"] = {
        "fitted": slope,
        "bound_exponent": bound_exp,
        "tight": tight,
        # decay no faster than the bound (10% slack); equality when tight
        "bound_satisfied": slope <= bound_exp + 0.1 * max(abs(bound_exp), 1.0),
    }

    return AsymptoticTable(
        eps=list(map(float, eps_arr)),
        kinetic=table["a"],
        mass=table["b"],
        nonlocal_term=table["c"],
        local_term=table["d"],
        resolved=resolved,
        fits=fits,
    )


# ---------------------------------------------------------------------------
# energy-threshold inequalities


@dataclass(frozen=True)
class MarginRow:
    family_parameter: float
    sup_level: float
    margin: float


@dataclass(frozen=True)
class MarginReport:
    case: str
    params: Params
    thresholds: dict
    families: dict
    inconclusive: bool
    positive_margin_found: bool

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "params": self.params.to_dict(),
            "thresholds": {
                k: (v if math.isfinite(v) else None) for k, v in self.thresholds.items()
            },
            "families": {
                name: [
                    {"parameter": row.family_parameter, "sup": row.sup_level, "margin": row.margin}
                    for row in rows
                ]
                for name, rows in self.families.items()
            },
            "inconclusive": self.inconclusive,
            "positive_margin_found": self.positive_margin_found,
        }


def threshold_value(case: str, params: Params, constants: SharpConstants) -> dict:
    """The lemma threshold(s) applicable to the case, from constants only."""
    n, al = params.N, params.alpha
    upper = (
        (2.0 + al)
        / (2.0 * (n + al))
        * params.mu ** (-(n - 2.0) / (2.0 + al))
        * constants.S_alpha ** ((n + al) / (2.0 + al))
    )
    lower = (
        al / (2.0 * (n + al)) * params.mu ** (-n / al) * constants.S_1 ** ((n + al) / al)
    )
    sobolev = (
        constants.S ** (n / 2.0) * params.lam ** (-(n - 2.0) / 2.0) / n
        if params.lam > 0
        else math.inf
    )
    if case == "upper-critical-p":
        return {"upper_critical": upper}
    if case == "lower-critical-p":
        return {"lower_critical": lower}
    if case == "critical-q":
        return {"sobolev": sobolev}
    return {"lower_critical": lower, "sobolev": sobolev}


def critical_case(params: Params, tol: float) -> str | None:
    """The critical case of params, counting an exponent within tol of its
    critical value as critical.

    One of THRESHOLD_CASES, UPPER_CORNER when p and q are both
    upper-critical, or None when both are subcritical.
    """
    at_p_upper = abs(params.p - params.p_upper) <= tol
    at_p_lower = abs(params.p - params.p_lower) <= tol
    at_q_upper = abs(params.q - params.q_upper) <= tol
    if at_p_lower and at_q_upper:
        return "doubly-critical"
    if at_p_upper:
        return UPPER_CORNER if at_q_upper else "upper-critical-p"
    if at_p_lower:
        return "lower-critical-p"
    if at_q_upper:
        return "critical-q"
    return None


def classify_margins(margins: list[float], threshold: float) -> dict:
    """Verdict on a margin sequence; near-zero margins are inconclusive."""
    tol = 1e-9 * max(abs(threshold), 1.0)
    inconclusive = any(abs(m) <= tol for m in margins)
    positive = any(m > tol for m in margins)
    return {
        "inconclusive": inconclusive,
        "positive_margin_found": positive and not inconclusive,
    }


def threshold_check(
    params: Params,
    case: str,
    family_values: list[float],
    constants: SharpConstants | None = None,
    num_nodes: int = 2048,
) -> MarginReport:
    """Margins of the critical-level upper bounds against the thresholds.

    For each family parameter the fiber maximum sup_tau J(test_tau) is
    computed through the Pohozaev projection, and the margin is threshold
    minus sup.  A positive margin certifies the strict level inequality of
    the corresponding existence lemma.
    """
    if case not in THRESHOLD_CASES:
        raise CaseMismatchError(f"unknown threshold case {case!r}")
    if critical_case(params, CASE_TOL) != case:
        raise CaseMismatchError(
            f"params (p={params.p}, q={params.q}) do not sit at the critical "
            f"exponents of case {case!r}"
        )
    if not family_values:
        raise InvalidParameterError("need at least one family parameter")
    if constants is None:
        constants = sharp_constants(params.N, params.alpha)
    thresholds = threshold_value(case, params, constants)

    families: dict[str, list[MarginRow]] = {}
    if case in ("lower-critical-p", "doubly-critical"):
        grid = build_grid(params.N, 30.0, num_nodes, scheme="graded")
        rows = []
        for delta in family_values:
            sup = reduced_energy(pekar_extremal(grid, delta, params.alpha), params)
            rows.append(MarginRow(delta, sup, thresholds["lower_critical"] - sup))
        families["pekar"] = rows
    if case != "lower-critical-p":
        key = "upper_critical" if case == "upper-critical-p" else "sobolev"
        grid = build_grid(params.N, 4.0, num_nodes, scheme="graded")
        rows = []
        for eps in family_values:
            sup = reduced_energy(cutoff_bubble(grid, eps), params)
            rows.append(MarginRow(eps, sup, thresholds[key] - sup))
        families["bubble"] = rows

    verdicts = {
        name: classify_margins([row.margin for row in rows], max(thresholds.values()))
        for name, rows in families.items()
    }
    return MarginReport(
        case=case,
        params=params,
        thresholds=thresholds,
        families=families,
        inconclusive=any(v["inconclusive"] for v in verdicts.values()),
        positive_margin_found=all(v["positive_margin_found"] for v in verdicts.values()),
    )


@dataclass(frozen=True)
class SearchResult:
    value: float
    bracket: tuple[float, float]
    bracket_width: float
    margin_samples: list


def critical_parameter_search(
    params: Params,
    knob: str,
    case: str,
    family_values: list[float],
    bracket: tuple[float, float] = (1.0, 1e6),
    constants: SharpConstants | None = None,
    num_nodes: int = 1024,
) -> SearchResult:
    """Smallest knob value with a positive threshold margin, by bisection.

    The margin is first sampled across the bracket; failure of monotonicity
    raises NonMonotoneMarginError with the samples attached.  A positive
    margin already at the lower end returns a degenerate bracket at zero
    (the inequality holds for every positive knob value we can test).
    """
    if knob not in ("lambda", "mu"):
        raise InvalidParameterError(f"search knob must be 'lambda' or 'mu', got {knob!r}")
    lo, hi = bracket
    if not (0 < lo < hi):
        raise InvalidParameterError(f"invalid bracket {bracket}")
    if constants is None:
        constants = sharp_constants(params.N, params.alpha)

    def margin_at(value: float) -> float:
        trial = params.with_(lam=value) if knob == "lambda" else params.with_(mu=value)
        report = threshold_check(trial, case, family_values, constants, num_nodes)
        return max(row.margin for rows in report.families.values() for row in rows)

    sample_points = np.geomspace(lo, hi, SEARCH_SAMPLES)
    samples = [(float(v), margin_at(float(v))) for v in sample_points]
    slack = 1e-9 * max(1.0, *(abs(m) for _, m in samples))
    if any(b < a - slack for (_, a), (_, b) in zip(samples, samples[1:])):
        raise NonMonotoneMarginError("margins are not monotone in the knob", samples)

    if samples[0][1] > 0:
        return SearchResult(0.0, (0.0, lo), lo, samples)
    if samples[-1][1] <= 0:
        raise InvalidParameterError(
            f"margin still nonpositive at the top of the bracket {bracket}"
        )

    lo_n, hi_p = lo, hi
    for _, (v, m) in enumerate(samples):
        if m <= 0:
            lo_n = max(lo_n, v)
        else:
            hi_p = min(hi_p, v)
    while hi_p - lo_n > SEARCH_TOL * hi_p:
        mid = math.sqrt(lo_n * hi_p)
        if margin_at(mid) > 0:
            hi_p = mid
        else:
            lo_n = mid
    return SearchResult(hi_p, (lo_n, hi_p), hi_p - lo_n, samples)
