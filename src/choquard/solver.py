"""Ground states by projected descent on the Pohozaev manifold, then an
inexact Newton polish of the Euler-Lagrange residual.

Phase 1 takes preconditioned gradient steps u <- u - eta g, where g is the
H^1 representative of J'(u), replaces u by |u|, and dilates back onto
{P = 0}.  The reduced energy is monotone under Armijo backtracking.

Phase 2 solves g(u) = 0 by inexact Newton-Krylov: each step solves
(I - A^{-1} J''(u)) delta = g with A = -Lap + 1 by one GMRES cycle to an
Eisenstat-Walker forcing tolerance, and accepts u - t delta once ||g||_{H^1}
falls by the factor 1 - 1e-4 t over at most eight halvings of t.  Where no
trial is accepted (for p < 2, |u|^{p-2} blows up on the tail) it takes a
descent step on 1/2 ||g||^2 instead.  At convergence the iterate is an
unconstrained critical point, so the Pohozaev and Nehari identities hold
to tolerance.

An iteration is one accepted step in phase 1 and one kernel product in
phase 2, where a Newton step costs its Krylov applies plus its trials.
A phase-1 iteration costs one product per backtracking trial plus one
for the accepted, dilated iterate, so max_iter bounds products only in
phase 2.

A continuation driver walks an exponent toward its critical value by
geometric gap halving, and a detector classifies the resulting sequences
as converged, vanishing, or concentrating.  The first step runs both
phases from the default guess.  Each later step is predicted and then
corrected by phase 2 alone, from the prediction projected onto {P = 0}.
The prediction is the previous profile at step 1 and the secant
|2 u_{n-1} - u_{n-2}| after that: the schedule is even in log(gap), so
linear extrapolation in the step index needs no ratio of gaps.  Newton is
not trusted below p = 2, where |u|^{p-2} blows up on the tail, so a step
with p < 2 at it or at its predecessor runs both phases from the previous
profile, as does a corrected step that ends above tol_residual.  The
criterion 8 continuations at N=4, alpha=1, M=2048, rmax 12 spend 246
kernel products at lambda=1 and 231 at lambda=0, against 370 and 1124
when every step runs both phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DegenerateFieldError, InvalidParameterError, NumericalFailureError
from .functionals import (
    EnergyBreakdown,
    Params,
    dilate,
    energy_of,
    fiber_energy_of,
    integrals,
    nehari_of,
    odd_power,
    pohozaev_gate,
    pohozaev_of,
    project_tau,
    residual_of,
)
from .grid import RadialField, RadialGrid, h1_norm, h1_solve, sample
from .riesz import kernel_for

__all__ = [
    "SolveOptions", "SolveReport", "default_initial_guess", "ground_state",
    "continue_exponent", "detect_dichotomy", "half_mass_radius",
]

CONTINUATION_TARGETS = ("p-upper", "p-lower", "q-upper", "double")

# Projected descent: first trial step and Armijo backtracking factor.
STEP = 1.0
BACKTRACK = 0.5
# Newton polish: Eisenstat-Walker forcing range, Krylov dimension cap,
# halvings of the Newton step and its sufficient decrease of ||g||.
NEWTON_FORCING_MAX = 0.1
NEWTON_FORCING_MIN = 1e-4
KRYLOV_MAX = 60
NEWTON_HALVINGS = 8
NEWTON_DECREASE = 1e-4

# Dichotomy cutoffs: H^1 collapse below 1e-3 of the initial norm means
# vanishing; a tenfold sup-norm rise with a threefold half-mass shrink
# means concentration.  The shrink factor is weaker than the growth factor
# because in low dimensions the bubble mass spreads logarithmically, so
# the half-mass radius lags the sup-norm blow-up.
VANISHING_FACTOR = 1e-3
CONCENTRATION_GROWTH = 10.0
CONCENTRATION_SHRINK = 3.0


@dataclass(frozen=True)
class SolveOptions:
    tol_residual: float = 1e-6
    max_iter: int = 2000

    def __post_init__(self):
        for name in ("tol_residual", "max_iter"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a number, not a boolean")
        if not isinstance(self.max_iter, (int, np.integer)):
            raise TypeError(f"max_iter must be an integer, not {self.max_iter!r}")
        if not 0.0 < self.tol_residual < math.inf:
            raise InvalidParameterError("tol_residual must be positive and finite")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.  J, P, nehari, linf and the half-mass radius
    derive from the profile, its params and its breakdown."""

    profile: RadialField
    params: Params
    breakdown: EnergyBreakdown
    residual_norm: float
    iterations: int
    status: str

    @cached_property
    def J(self) -> float:
        return energy_of(self.breakdown, self.params)

    @cached_property
    def P(self) -> float:
        return pohozaev_of(self.breakdown, self.params)

    @cached_property
    def nehari(self) -> float:
        return nehari_of(self.breakdown, self.params)

    @cached_property
    def linf(self) -> float:
        return float(np.max(np.abs(self.profile.values)))

    @cached_property
    def half_mass_radius(self) -> float:
        return half_mass_radius(self.profile)

    def to_dict(self, profile_csv_path: str | None = None) -> dict:
        g = self.profile.grid
        d = {
            "params": self.params.to_dict(),
            "grid": {"rmax": g.rmax, "M": g.node_count},
            "J": self.J,
            "P": self.P,
            "nehari": self.nehari,
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "linf": self.linf,
            "half_mass_radius": self.half_mass_radius,
            "status": self.status,
            "breakdown": {
                "kinetic": self.breakdown.kinetic,
                "mass": self.breakdown.mass,
                "nonlocal": self.breakdown.nonlocal_term,
                "local": self.breakdown.local_term,
            },
        }
        if profile_csv_path is not None:
            d["profile_csv_path"] = profile_csv_path
        return d


def half_mass_radius(u: RadialField) -> float:
    """Radius of the ball holding half of int u^2."""
    g = u.grid
    cell = g.volume_weights * u.values**2
    cum = np.cumsum(cell)
    total = cum[-1]
    if total <= 0:
        return 0.0
    idx = int(np.searchsorted(cum, 0.5 * total))
    if idx == 0:
        return float(g.nodes[0] * 0.5 * total / cum[0])
    prev = cum[idx - 1]
    frac = (0.5 * total - prev) / (cum[idx] - prev)
    return float(g.nodes[idx - 1] + frac * (g.nodes[idx] - g.nodes[idx - 1]))


def default_initial_guess(grid: RadialGrid) -> RadialField:
    """Gaussian profile; positive with nondegenerate breakdown."""
    return sample(grid, lambda r: np.exp(-(r**2)))


def _jacobian(u, potential, params: Params, kern):
    """The action v -> (I - A^{-1} J''(u)) v of the derivative of g at u,
    with A = -Lap + 1.  It is self-adjoint in H^1, so applied to g it gives
    the H^1 gradient of 1/2 ||g||_{H^1}^2.

    Each application costs one kernel product and one H^1 solve.  For
    p < 2 the pointwise factor |u|^{p-2} blows up on the zero set; there
    the subgradient 0 is used (the zero set carries no mass for the
    positive profiles this phase sees, and the line search guards descent).
    """
    p, q, mu, lam = params.p, params.q, params.mu, params.lam
    up1 = odd_power(u, p - 1.0)
    with np.errstate(divide="ignore"):
        hess = np.where(u != 0.0, np.abs(u) ** (p - 2.0), 0.0)
    local = mu * (p - 1.0) * potential * hess + lam * (q - 1.0) * np.abs(u) ** (q - 2.0)

    def apply(v: np.ndarray) -> np.ndarray:
        dng = mu * p * kern.convolve(up1 * v) * up1 + local * v
        return v - h1_solve(kern.grid, dng)

    return apply


_lartg = get_lapack_funcs("lartg", dtype=np.float64)


def gmres(matvec, b: np.ndarray, rtol: float, restart: int) -> tuple[np.ndarray, int]:
    """One restart cycle of GMRES for A x = b from x = 0, as (x, 0), where
    matvec applies A (Saad & Schultz 1986).

    The operations and their order are those of scipy.sparse.linalg.gmres
    (scipy 1.17) with atol=0, maxiter=1 and no preconditioner, so x agrees
    with it to the bit: Arnoldi by modified Gram-Schmidt, LAPACK Givens
    rotations, and a stop once the rotated residual is at most rtol ||b||
    or the Krylov space breaks down.  scipy then applies A once more to
    form b - A x for its info flag; this cycle does not, so matvec runs
    once per Krylov vector.
    """
    n = len(b)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return np.zeros(n), 0
    ptol = bnrm2 * min(1.0, float(rtol) * float(bnrm2) / bnrm2)
    eps = np.finfo(float).eps
    restart = min(restart, n)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))  # row col is column col of the Hessenberg matrix
    givens = np.zeros((restart, 2))
    v[0] = b
    tmp = np.linalg.norm(v[0])
    v[0] *= 1 / tmp
    S = np.zeros(restart + 1)
    S[0] = tmp
    for col in range(restart):
        w = matvec(v[col])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            tmp = np.dot(v[k], w)
            h[col, k] = tmp
            w -= tmp * v[k]
        h1 = np.linalg.norm(w)
        h[col, col + 1] = h1
        v[col + 1] = w
        breakdown = h1 <= eps * h0
        if breakdown:
            h[col, col + 1] = 0
        else:
            v[col + 1] *= 1 / h1
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, mag = _lartg(h[col, col], h[col, col + 1])
        givens[col] = c, s
        h[col, col], h[col, col + 1] = mag, 0
        tmp = -s * S[col]
        S[col], S[col + 1] = c * S[col], tmp
        if np.abs(tmp) <= ptol or breakdown:
            break
    if h[col, col] == 0:
        S[col] = 0
    y = S[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x = np.zeros(n)
    x += y @ v[: col + 1]
    return x, 0


@dataclass(frozen=True)
class _Iterate:
    """An evaluated iterate: values, integrals, potential, residual g and its H^1 norm."""

    values: np.ndarray
    breakdown: EnergyBreakdown
    potential: np.ndarray
    g: np.ndarray
    residual: float


class _CountedKernel:
    """The kernel of one solve and its mesh, counting the products it makes."""

    def __init__(self, kern):
        self.kern, self.grid, self.products = kern, kern.grid, 0

    def convolve(self, values: np.ndarray) -> np.ndarray:
        self.products += 1
        return self.kern.convolve(values)


def _evaluate(values, params: Params, kern) -> _Iterate:
    """The iterate at these nodal values, for one kernel product."""
    bd, potential = integrals(values, params, kern)
    return _Iterate(values, bd, potential, *residual_of(values, potential, kern.grid, params))


def _note(trace, phase, iteration, it: _Iterate, params: Params, kern) -> None:
    if trace is not None:
        J = energy_of(it.breakdown, params)
        trace.append({"phase": phase, "iteration": iteration, "J": J,
                      "residual": it.residual, "products": kern.products})


def _descend(it: _Iterate, params: Params, kern, opts: SolveOptions, trace):
    """Phase 1, projected descent on the manifold, as (iterate, iterations);
    stops inside the critical point's basin or at the resampling floor."""
    switch = max(opts.tol_residual, 1e-4 * h1_norm(kern.grid, it.values))
    eta, iterations = STEP, 0
    best_residual, since_progress = it.residual, 0
    while iterations < opts.max_iter and it.residual > switch and since_progress <= 40:
        iterations += 1
        if not math.isfinite(it.residual):
            raise NumericalFailureError(
                "non-finite residual", {"iteration": iterations, "step": eta}
            )
        J_cur = energy_of(it.breakdown, params)
        for _ in range(40):
            trial = np.abs(it.values - eta * it.g)
            if not np.all(np.isfinite(trial)):
                raise NumericalFailureError(
                    "non-finite iterate", {"iteration": iterations, "step": eta}
                )
            bd, _ = integrals(trial, params, kern)
            if bd.kinetic > 0 and bd.nonlocal_term > 0:
                tau = project_tau(bd, params)
                if fiber_energy_of(bd, tau, params) <= J_cur - 1e-4 * eta * it.residual**2:
                    break
            eta *= BACKTRACK
        else:
            break  # stagnated below representable step sizes
        it = _evaluate(dilate(kern.grid, trial, tau), params, kern)
        eta = min(eta / math.sqrt(BACKTRACK), 64.0 * STEP)
        if it.residual < 0.99 * best_residual:
            best_residual, since_progress = it.residual, 0
        else:
            since_progress += 1
        _note(trace, "projected", iterations, it, params, kern)
    return it, iterations


def _polish(it: _Iterate, iterations, params: Params, kern, opts: SolveOptions, trace):
    """Phase 2, inexact Newton on g(u) = 0, as (iterate, iterations); each
    kernel product is one iteration."""
    offset = kern.products - iterations  # iterations = kern.products - offset
    limit = opts.max_iter + offset

    def search(direction, tries, decrease):
        """The first trial u - t direction, t = 1, 1/2, ..., whose residual is
        below (1 - decrease t) times the current one; None if none is in budget."""
        for k in range(min(tries, limit - kern.products)):  # one product per trial
            t = 0.5**k
            trial = it.values - t * direction
            if not np.all(np.isfinite(trial)):
                raise NumericalFailureError(
                    "non-finite iterate", {"iteration": kern.products - offset + 1, "step": t}
                )
            step = _evaluate(trial, params, kern)
            if step.residual < (1.0 - decrease * t) * it.residual:
                return step
        return None

    prev_residual = None
    while kern.products < limit and it.residual > opts.tol_residual:
        jac = _jacobian(it.values, it.potential, params, kern)
        room = limit - kern.products
        step = None
        if room >= 2:
            # Eisenstat-Walker forcing, choice 2
            forcing = NEWTON_FORCING_MAX
            if prev_residual is not None:
                ew = 0.9 * (it.residual / prev_residual) ** 2
                forcing = min(forcing, max(NEWTON_FORCING_MIN, ew))
            # one restart cycle, one product per Krylov vector; the budget
            # keeps one trial residual after it
            delta, _ = gmres(jac, it.g, rtol=forcing, restart=min(KRYLOV_MAX, room - 1))
            if np.all(np.isfinite(delta)):
                step = search(delta, NEWTON_HALVINGS + 1, NEWTON_DECREASE)
        if step is None and kern.products < limit:
            # descent on 1/2 ||g||^2 along its H^1 gradient, needed where
            # |u|^{p-2} spoils the Newton step (p < 2)
            step = search(jac(it.g), 50, 0.0)
        if step is None:
            break
        prev_residual, it = it.residual, step
        _note(trace, "polish", kern.products - offset, it, params, kern)
    return it, kern.products - offset


def ground_state(
    params: Params, init: RadialField, opts: SolveOptions, trace: list | None = None
) -> SolveReport:
    """Minimize J over the Pohozaev manifold starting from init.

    Runs projected descent (gradient step, |u|, dilation back onto
    {P = 0}) until the residual is small, then polishes by inexact Newton
    on the residual g, whose zeros are the unconstrained critical points;
    this removes the interpolation-noise floor of per-step resampling.
    The status is "converged" when the residual is at tolerance and
    pohozaev_gate passes; otherwise the dichotomy rule's "vanishing" or
    "concentrating", else "pohozaev_defect" for a residual at tolerance,
    "max_iter" for one above it after max_iter iterations, and "stalled"
    for one above it when the solve stopped earlier (a line search or the
    descent ran out of steps).  Raises DegenerateFieldError for a zero (or
    kinetically degenerate) initial field and NumericalFailureError on
    non-finite iterates.  When a list is passed as trace, one record per
    accepted step of either phase is appended: its phase ("projected" or
    "polish"), iteration, J, residual, and products, the kernel products
    this solve has made so far.
    """
    return _solve(params, init, opts, trace, descend=True)


def _solve(params: Params, init: RadialField, opts: SolveOptions, trace, descend: bool):
    """ground_state's body; descend=False skips phase 1, so Newton starts
    from init projected onto {P = 0} and iterations counts polish products."""
    grid = init.grid
    if grid.dimension != params.N:
        raise InvalidParameterError("grid dimension does not match params.N")
    if not np.any(init.values != 0.0):
        raise DegenerateFieldError("initial field is identically zero")
    kern = _CountedKernel(kernel_for(grid, params.alpha))
    u = np.abs(init.values)
    bd, _ = integrals(u, params, kern)
    if bd.kinetic <= 0 or bd.nonlocal_term <= 0:
        raise DegenerateFieldError("initial field has degenerate kinetic or nonlocal term")
    first = dilate(kern.grid, u, project_tau(bd, params))
    it, iterations = _evaluate(first, params, kern), 0
    if descend:
        it, iterations = _descend(it, params, kern, opts, trace)
    if it.breakdown.kinetic > 0 and it.breakdown.nonlocal_term > 0:
        it, iterations = _polish(it, iterations, params, kern, opts, trace)
    profile, bd = RadialField(grid, it.values), it.breakdown
    at_tol = it.residual <= opts.tol_residual
    if at_tol and pohozaev_gate(bd, params)[2]:
        status = "converged"
    else:
        status = _dichotomy(RadialField(grid, first), profile) or (
            "pohozaev_defect" if at_tol
            else "max_iter" if iterations >= opts.max_iter
            else "stalled"
        )
    return SolveReport(profile, params, bd, it.residual, iterations, status)


def _schedule(start: Params, target: str, steps: int) -> list[Params]:
    """Exponents halving the gap to the target's critical value; the target
    is one of CONTINUATION_TARGETS (see check_continuation)."""
    p0, q0 = start.p, start.q
    p_lo, p_hi, q_hi = start.p_lower, start.p_upper, start.q_upper
    if not (p_lo < p0 < p_hi and 2.0 < q0 < q_hi):
        raise InvalidParameterError("continuation must start strictly subcritical")
    out = []
    for n in range(steps + 1):
        f = 0.5**n
        if target == "p-upper":
            out.append(start.with_(p=p_hi - (p_hi - p0) * f))
        elif target == "p-lower":
            out.append(start.with_(p=p_lo + (p0 - p_lo) * f))
        elif target == "q-upper":
            out.append(start.with_(q=q_hi - (q_hi - q0) * f))
        else:
            # "double": the doubly-critical family carries one gap for both exponents
            a0 = p0 - p_lo
            if abs(a0 - (q_hi - q0)) > 1e-9:
                raise InvalidParameterError(
                    "double continuation needs matching gaps: "
                    f"p - p_lower = {a0} but q_upper - q = {q_hi - q0}"
                )
            out.append(start.with_(p=p_lo + a0 * f, q=q_hi - a0 * f))
    return out


def check_continuation(target: str, steps: int) -> None:
    """Refuse a target outside CONTINUATION_TARGETS or a negative step count."""
    if target not in CONTINUATION_TARGETS:
        raise InvalidParameterError(f"unknown continuation target {target!r}")
    if steps < 0:
        raise InvalidParameterError("steps must be >= 0")


def continue_exponent(
    start: Params, target: str, steps: int, opts: SolveOptions, grid: RadialGrid
) -> list[SolveReport]:
    """Solve along a geometric schedule of exponents approaching criticality.

    Returns steps + 1 reports, the first at the start parameters from the
    default initial guess.  A later step whose exponent p and its
    predecessor's are both at least 2 is predicted and corrected: Newton
    alone, from the previous profile at step 1 and from the secant
    extrapolation |2 u_{n-1} - u_{n-2}| after that.  Every other step, and
    a corrected one that ends above tol_residual, is solved by ground_state
    from the previous profile.
    """
    check_continuation(target, steps)
    schedule = _schedule(start, target, steps)
    reports: list[SolveReport] = []
    current = default_initial_guess(grid)
    for n, params_n in enumerate(schedule):
        try:
            if n and min(params_n.p, schedule[n - 1].p) >= 2.0:
                prediction = current if n == 1 else RadialField(
                    grid, 2.0 * current.values - reports[-2].profile.values
                )
                report = _correct(params_n, prediction, current, opts)
            else:
                report = ground_state(params_n, current, opts)
        except (DegenerateFieldError, NumericalFailureError) as exc:
            raise NumericalFailureError(
                f"continuation failed at schedule index {n} "
                f"(p={params_n.p}, q={params_n.q}): {exc}",
                {"schedule_index": n, "p": params_n.p, "q": params_n.q},
            ) from exc
        reports.append(report)
        current = report.profile
    return reports


def _correct(params: Params, prediction: RadialField, previous: RadialField, opts: SolveOptions):
    """The Newton corrector from the prediction; a corrector that misses
    tolerance, or meets a non-finite iterate, gives way once to
    ground_state from previous."""
    try:
        report = _solve(params, prediction, opts, None, descend=False)
        if report.residual_norm <= opts.tol_residual:
            return report
    except NumericalFailureError:
        pass
    return ground_state(params, previous, opts)


def detect_dichotomy(reports: list[SolveReport]) -> str:
    """Classify a continuation sequence: "vanishing" or "concentrating" when
    the dichotomy rule fires between its endpoints, else "max_iter" when any
    step ended max_iter or stalled, else "converged"."""
    if not reports:
        raise InvalidParameterError("detect_dichotomy needs a nonempty report list")
    verdict = _dichotomy(reports[0].profile, reports[-1].profile)
    if verdict is None and any(rep.status in ("max_iter", "stalled") for rep in reports):
        verdict = "max_iter"
    return verdict or "converged"


def _dichotomy(first: RadialField, last: RadialField) -> str | None:
    """The dichotomy rule: "vanishing" when the H^1 norm of last collapsed
    relative to first, "concentrating" when its sup norm blew up while its
    half-mass radius shrank, None otherwise."""
    if h1_norm(last.grid, last.values) < VANISHING_FACTOR * h1_norm(first.grid, first.values):
        return "vanishing"
    if (
        np.max(np.abs(last.values)) > CONCENTRATION_GROWTH * np.max(np.abs(first.values))
        and half_mass_radius(last) < half_mass_radius(first) / CONCENTRATION_SHRINK
    ):
        return "concentrating"
    return None
