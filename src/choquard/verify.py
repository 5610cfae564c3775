"""Post-hoc checks of the variational identities on computed profiles.

Every check is a pure function returning a CheckResult; a verification
report is their conjunction.  Checks compare measured quantities against
explicit bounds so failures are diagnosable from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .extremals import UPPER_CORNER, critical_case, sharp_constants, threshold_value
from .functionals import EnergyBreakdown, Params, fiber_energy_of, pohozaev_of, project_tau
from .grid import RadialField, lp_norm
from .solver import POHOZAEV_TOL, SolveReport

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_pohozaev_identity",
    "check_mountain_pass_consistency",
    "check_radial_decay_bound",
    "check_positivity_monotonicity",
    "check_level_window",
    "run_verification",
]

RIPPLE_TOL = 1e-8  # relative tolerance for "radially nonincreasing"
CRITICAL_GAP = 1e-2  # exponent distance treated as "at" a critical value
RESIDUAL_TOL = 1e-6  # residual a converged solve must reach for the weak-solution check
MOUNTAIN_PASS_TOL = 1e-6  # relative gap between J and the maximum of its fiber


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        def _num(x: float):
            return x if math.isfinite(x) else None

        return {
            "checks": [
                {
                    "name": c.name,
                    "measured": _num(c.measured),
                    "bound": _num(c.bound),
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }


def check_pohozaev_identity(bd: EnergyBreakdown, params: Params) -> CheckResult:
    """|P| <= POHOZAEV_TOL (kinetic + mass) for this breakdown; holds at every
    finite-energy solution."""
    scale = bd.kinetic + bd.mass
    p_val = pohozaev_of(bd, params)
    if scale == 0.0:
        return CheckResult("pohozaev_identity", 0.0, 0.0, True, "degenerate zero field")
    bound = POHOZAEV_TOL * scale
    return CheckResult("pohozaev_identity", abs(p_val), bound, abs(p_val) <= bound)


def check_mountain_pass_consistency(report: SolveReport) -> CheckResult:
    """The ground state maximizes its own fiber: J(u) = max_tau J(u_tau).

    The fiber has a single interior maximum, at the Pohozaev projection."""
    if report.status != "converged":
        raise InvalidParameterError("mountain-pass check needs a converged report")
    params = report.params
    bd = report.breakdown
    tau = project_tau(bd, params)
    gap = abs(report.J - fiber_energy_of(bd, tau, params))
    note = f"tau_max={tau:.6g}"
    bound = MOUNTAIN_PASS_TOL * abs(report.J)
    return CheckResult("mountain_pass_consistency", gap, bound, gap <= bound, note)


def _ripple(values: np.ndarray) -> tuple[float, float]:
    """The largest rise between neighbouring nodes, and the most a radially
    nonincreasing profile may rise: RIPPLE_TOL times its peak."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return float(np.max(np.diff(values), initial=-math.inf)), RIPPLE_TOL * max(peak, 1e-300)


def check_radial_decay_bound(u: RadialField) -> CheckResult:
    """|u(r)| <= r^{-N/2} (N / |S^{N-1}|)^{1/2} ||u||_2 at every node.

    Applies to radial nonincreasing profiles only; others are reported as
    inapplicable rather than failing.
    """
    rise, allowed = _ripple(u.values)
    if rise > allowed:
        return CheckResult("radial_decay_bound", 0.0, 1.0, True, "inapplicable: not nonincreasing")
    g = u.grid
    n = g.dimension
    norm = lp_norm(u, 2.0)
    if norm == 0.0:
        return CheckResult("radial_decay_bound", 0.0, 1.0, True, "zero field")
    envelope = g.nodes ** (-n / 2.0) * (n / g.sphere_area) ** 0.5 * norm
    ratio = float(np.max(np.abs(u.values) / envelope))
    return CheckResult("radial_decay_bound", ratio, 1.0 + 1e-10, ratio <= 1.0 + 1e-10)


def check_positivity_monotonicity(u: RadialField) -> CheckResult:
    """min u >= -1e-10 and no increase beyond the ripple tolerance."""
    min_val = float(np.min(u.values))
    rise, allowed = _ripple(u.values)
    ok = min_val >= -1e-10 and rise <= allowed
    return CheckResult("positivity_monotonicity", max(-min_val, rise), allowed, ok)


def check_level_window(report: SolveReport) -> CheckResult:
    """0 < J, and J below the applicable lemma threshold near criticality."""
    params = report.params
    case = critical_case(params, CRITICAL_GAP)
    if case is None:
        return CheckResult("level_window", report.J, math.inf, report.J > 0.0, "subcritical: J > 0 only")
    if case == UPPER_CORNER:
        case = "upper-critical-p"  # no lemma covers the corner; checked as upper-critical p
    bound = min(threshold_value(case, params, sharp_constants(params.N, params.alpha)).values())
    ok = 0.0 < report.J <= bound + 1e-6
    return CheckResult("level_window", report.J, bound, ok, f"case {case}")


def run_verification(report: SolveReport) -> VerificationReport:
    """The full suite on one solve report."""
    u = report.profile
    pohozaev = check_pohozaev_identity(report.breakdown, report.params)
    checks = [
        pohozaev,
        check_positivity_monotonicity(u),
        check_radial_decay_bound(u),
        check_level_window(report),
    ]
    if report.status == "converged":
        checks.append(check_mountain_pass_consistency(report))
    # Pohozaev + Nehari holding together must be witnessed by the solver's
    # weak-solution residual, whatever status the solve ended with.
    scale = report.breakdown.kinetic + report.breakdown.mass
    premises = pohozaev.passed and abs(report.nehari) <= 1e-4 * scale
    implied = report.residual_norm <= RESIDUAL_TOL
    checks.append(
        CheckResult(
            "weak_solution_implication", report.residual_norm, RESIDUAL_TOL, (not premises) or implied
        )
    )
    return VerificationReport(checks)
