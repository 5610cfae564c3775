"""Test-function families, sharp constants, asymptotics, and thresholds.

The concentration family is the cutoff Sobolev bubble

    u_eps = phi * U_eps,   U_eps = (N(N-2) eps^2)^{(N-2)/4} / (eps^2 + r^2)^{(N-2)/2},

with phi a polynomial bump equal to 1 on B_1 and 0 outside B_2; the
lower-critical family is the dilated extremal v_delta built from
V = A (1 + r^2)^{-N/2}.  Their four energy integrals, fitted against
dyadic parameter sweeps, reproduce the classical expansion orders, and
their fiber maxima give computable upper bounds for the critical least
energy levels.  Margins of those bounds against the sharp-constant
thresholds decide when a critical ground state exists.  The sharp
constants are Gamma-function closed forms, and every integral is taken
by functionals.py; the expansion orders take all four integrals of each
bubble on one exponential mesh (grid.build_grid), which resolves every
concentration scale down to its origin spacing.
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
from .functionals import Params, breakdown, fiber_energy_of, project_tau
from .grid import RadialField, RadialGrid, build_grid
from .riesz import hls_constant, riesz_normalization

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

    Every field is a Gamma-formula value: A_alpha, C_alpha, the Sobolev
    constant S = N(N-2) pi (Gamma(N/2)/Gamma(N))^{2/N} (Aubin-Talenti),
    S_1 = (A_alpha C_alpha)^{-N/(N+alpha)} (Lieb), and
    S_alpha = S / (A_alpha C_alpha)^{1/p_upper}.
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


def _pekar_family(grid: RadialGrid, deltas: list[float], alpha: float) -> list[RadialField]:
    """v_delta for each delta, all normalized by one breakdown of V."""
    if not all(delta > 0 for delta in deltas):
        raise InvalidParameterError("delta must be positive")
    n = grid.dimension
    p_low = (n + alpha) / n
    q_mid = 0.5 * (2.0 + 2.0 * n / (n - 2.0))  # any admissible q; unused
    v = RadialField(grid, (1.0 + grid.nodes**2) ** (-n / 2.0))
    bd = breakdown(v, Params(N=n, alpha=alpha, p=p_low, q=q_mid))
    amp = bd.nonlocal_term ** (-1.0 / (2.0 * p_low))
    return [
        RadialField(grid, delta ** (n / 2.0) * amp * (1.0 + (delta * grid.nodes) ** 2) ** (-n / 2))
        for delta in deltas
    ]


def pekar_extremal(grid: RadialGrid, delta: float, alpha: float) -> RadialField:
    """Dilated lower-critical extremal v_delta = delta^{N/2} V(delta x).

    V = A (1+r^2)^{-N/2} with A chosen on the grid so that the nonlocal
    integral of V at the lower-critical exponent equals one.  Sampled from
    the closed form, not resampled.
    """
    return _pekar_family(grid, [delta], alpha)[0]


@lru_cache(maxsize=None)
def sharp_constants(dimension: int, alpha: float) -> SharpConstants:
    """All threshold constants for one (N, alpha); memoized."""
    n = dimension
    if n < 3:
        raise InvalidParameterError(f"N must be >= 3, got {n}")
    a_alpha = riesz_normalization(n, alpha)
    c_alpha = hls_constant(n, alpha)
    # the bubble (1+r^2)^{-(N-2)/2} attains S (Talenti 1976)
    try:
        s = n * (n - 2) * math.pi * (math.gamma(n / 2.0) / math.gamma(n)) ** (2.0 / n)
    except OverflowError:
        raise InvalidParameterError(f"Gamma(N) overflows a float for N={n}") from None
    # the lower-critical extremal (1+r^2)^{-N/2} saturates sharp HLS (Lieb 1983)
    s_1 = (a_alpha * c_alpha) ** (-n / (n + alpha))
    p_upper = (n + alpha) / (n - 2)
    s_alpha = s / (a_alpha * c_alpha) ** (1.0 / p_upper)
    return SharpConstants(n, alpha, s, s_alpha, s_1, a_alpha, c_alpha)


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
) -> AsymptoticTable:
    """Bubble integrals over a dyadic eps sweep with fitted decay orders.

    All four integrals come from one breakdown per eps on a single
    exponential mesh, whose relative spacing is the same at every scale,
    so deep concentration scales stay resolved at kernel mesh sizes.  The
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
    grid = build_grid(dimension, 4.0, num_nodes, scheme="exponential")
    params = Params(N=dimension, alpha=alpha, p=p, q=q)

    resolved = [_grid_resolves(grid, eps) for eps in eps_arr]
    rows = [breakdown(cutoff_bubble(grid, eps), params).astuple() for eps in eps_arr]
    table = dict(zip("abcd", map(list, zip(*rows))))

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
            "thresholds": self.thresholds,
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


def threshold_value(case: str, params: Params) -> dict:
    """The lemma threshold(s) applicable to the case, from the sharp constants;
    the Sobolev one is infinite at lambda = 0, and any other that leaves the
    float range raises InvalidParameterError."""
    n, al, mu, lam = params.N, params.alpha, params.mu, params.lam
    constants = sharp_constants(n, al)
    values = {}
    try:
        if case == "upper-critical-p":
            values["upper_critical"] = (
                (2.0 + al)
                / (2.0 * (n + al))
                * mu ** (-(n - 2.0) / (2.0 + al))
                * constants.S_alpha ** ((n + al) / (2.0 + al))
            )
        if case in ("lower-critical-p", "doubly-critical"):
            values["lower_critical"] = (
                al / (2.0 * (n + al)) * mu ** (-n / al) * constants.S_1 ** ((n + al) / al)
            )
        if case in ("critical-q", "doubly-critical"):
            values["sobolev"] = (
                constants.S ** (n / 2.0) * lam ** (-(n - 2.0) / 2.0) / n if lam > 0 else math.inf
            )
        if any(not math.isfinite(v) for k, v in values.items() if k != "sobolev" or lam > 0):
            raise OverflowError
    except OverflowError:
        raise InvalidParameterError(
            f"the {case} threshold leaves the float range at mu={mu}, lambda={lam}"
        ) from None
    return values


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


def _family_integrals(params: Params, case: str, family_values: list, num_nodes: int) -> dict:
    """Step one of threshold_check: the breakdowns of each family's test
    functions, keyed by family.  They read neither mu nor lambda, so one
    call serves every knob value of critical_parameter_search."""
    actual = critical_case(params, CASE_TOL)
    if case != actual or actual not in THRESHOLD_CASES:
        at = f"case {actual!r}, not {case!r}" if actual in THRESHOLD_CASES else "no threshold case"
        raise CaseMismatchError(
            f"params (p={params.p}, q={params.q}) sit at {at}: p_lower = {params.p_lower}, "
            f"p_upper = {params.p_upper}, q_upper = {params.q_upper}, and no lemma covers "
            "p_upper with q_upper"
        )
    if not family_values:
        raise InvalidParameterError("need at least one family parameter")
    if params.lam == 0.0 and case in ("critical-q", "doubly-critical"):
        raise InvalidParameterError(
            f"case {case!r} needs lambda > 0: the Sobolev threshold does not exist at 0"
        )

    families = {}
    if case in ("lower-critical-p", "doubly-critical"):
        grid = build_grid(params.N, 30.0, num_nodes, scheme="graded")
        pekar = _pekar_family(grid, family_values, params.alpha)
        families["pekar"] = [breakdown(v, params) for v in pekar]
    if case != "lower-critical-p":
        grid = build_grid(params.N, 4.0, num_nodes, scheme="graded")
        families["bubble"] = [breakdown(cutoff_bubble(grid, e), params) for e in family_values]
    return families


def _margin_report(params: Params, case: str, family_values: list, families: dict) -> MarginReport:
    """Step two: the margins of the families' fiber maxima at params' mu and lambda."""
    thresholds = threshold_value(case, params)
    bubble_key = "upper_critical" if case == "upper-critical-p" else "sobolev"
    rows = {}
    for name, bds in families.items():
        threshold = thresholds["lower_critical" if name == "pekar" else bubble_key]
        sups = [fiber_energy_of(bd, project_tau(bd, params), params) for bd in bds]
        rows[name] = [MarginRow(v, sup, threshold - sup) for v, sup in zip(family_values, sups)]

    top = max(thresholds.values())
    verdicts = [classify_margins([row.margin for row in fam], top) for fam in rows.values()]
    return MarginReport(
        case=case,
        params=params,
        thresholds=thresholds,
        families=rows,
        inconclusive=any(v["inconclusive"] for v in verdicts),
        positive_margin_found=all(v["positive_margin_found"] for v in verdicts),
    )


def threshold_check(
    params: Params,
    case: str,
    family_values: list[float],
    num_nodes: int = 2048,
) -> MarginReport:
    """Margins of the critical-level upper bounds against the thresholds.

    For each family parameter the fiber maximum sup_tau J(test_tau) is
    computed through the Pohozaev projection, and the margin is threshold
    minus sup.  A positive margin certifies the strict level inequality of
    the corresponding existence lemma.  case must be critical_case(params, CASE_TOL).
    """
    families = _family_integrals(params, case, family_values, num_nodes)
    return _margin_report(params, case, family_values, families)


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
    num_nodes: int = 1024,
) -> SearchResult:
    """Smallest knob value with a positive threshold margin, by bisection.

    The margin is first sampled across the bracket; failure of monotonicity
    raises NonMonotoneMarginError with the samples attached.  A positive
    margin already at the lower end returns a degenerate bracket at zero
    (the inequality holds for every positive knob value we can test).  The
    family integrals are taken once; a knob value costs only its margins.
    """
    if knob not in ("lambda", "mu"):
        raise InvalidParameterError(f"search knob must be 'lambda' or 'mu', got {knob!r}")
    lo, hi = bracket
    if not (0 < lo < hi):
        raise InvalidParameterError(f"invalid bracket {bracket}")

    field = "lam" if knob == "lambda" else "mu"
    families = _family_integrals(params.with_(**{field: lo}), case, family_values, num_nodes)

    def margin_at(value: float) -> float:
        report = _margin_report(params.with_(**{field: value}), case, family_values, families)
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
    for v, m in samples:
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
