import math

import numpy as np
import pytest

from choquard import (
    CaseMismatchError,
    InvalidParameterError,
    Params,
    build_grid,
    grad_sq,
    integrate,
    lp_norm,
    sharp_constants,
    talenti,
    threshold_check,
)
from choquard.extremals import (
    CASE_TOL,
    THRESHOLD_CASES,
    UPPER_CORNER,
    classify_margins,
    critical_case,
    critical_parameter_search,
    cutoff_bubble,
    local_term_case,
    nonlocal_core_dominated,
    pekar_extremal,
    asymptotic_suite,
)
from choquard import functionals
from choquard.functionals import breakdown, integrals, reduced_energy
from choquard.verify import CRITICAL_GAP
from choquard.grid import RadialField

from oracles import (
    gamma_hls_constant,
    gamma_lower_constant,
    gamma_riesz_normalization,
    gamma_sobolev_constant,
)


class TestTalenti:
    def test_peak_value_formula(self):
        g = build_grid(3, 4.0, 1024, scheme="graded")
        for eps in (0.5, 1.0, 2.0):
            u = talenti(g, eps)
            n = 3
            expected_first = (n * (n - 2) * eps**2) ** ((n - 2) / 4) / (
                eps**2 + g.nodes[0] ** 2
            ) ** ((n - 2) / 2)
            assert u.values[0] == pytest.approx(expected_first, rel=1e-14)
            # limit value at the origin
            peak = (n * (n - 2)) ** ((n - 2) / 4) * eps ** (-(n - 2) / 2)
            assert u.values[0] == pytest.approx(peak, rel=1e-6)

    def test_rejects_nonpositive_eps(self):
        g = build_grid(3, 4.0, 64)
        with pytest.raises(InvalidParameterError):
            talenti(g, 0.0)

    def test_dirichlet_energy_scale_invariant(self):
        g = build_grid(3, 12000.0, 400_000, scheme="graded", gamma=3.0)
        vals = [grad_sq(g, talenti(g, eps).values) for eps in (0.5, 1.0, 2.0)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-3)

    def test_sobolev_quotient(self):
        g = build_grid(3, 12000.0, 400_000, scheme="graded", gamma=3.0)
        u = talenti(g, 1.0)
        q = grad_sq(g, u.values) / lp_norm(u, 6.0) ** 2
        assert q == pytest.approx(gamma_sobolev_constant(3), rel=1e-3)


class TestCutoffBubble:
    def test_plateau_and_support(self):
        g = build_grid(3, 4.0, 2048, scheme="graded")
        eps = 0.25
        u = cutoff_bubble(g, eps)
        raw = talenti(g, eps)
        inner = g.nodes <= 1.0
        outer = g.nodes >= 2.0
        assert np.array_equal(u.values[inner], raw.values[inner])
        assert np.all(u.values[outer] == 0.0)

    def test_requires_rmax_two(self):
        g = build_grid(3, 1.5, 64)
        with pytest.raises(InvalidParameterError):
            cutoff_bubble(g, 0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5])
    def test_rejects_nonpositive_eps(self, eps):
        g = build_grid(3, 4.0, 64)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            cutoff_bubble(g, eps)

    @pytest.mark.parametrize("dimension", [3, 4])
    def test_kinetic_deficit_order(self, dimension):
        al = 2.0 if dimension == 3 else 1.0
        eps = [2.0**-k for k in range(4, 11)] if dimension == 3 else [2.0**-k for k in range(2, 8)]
        tab = asymptotic_suite(dimension, al, 2.0, 3.0, eps, num_nodes=512)
        fit = tab.fits["kinetic_deficit"]
        assert fit["fitted"] == pytest.approx(dimension - 2, rel=0.10)

    def test_kinetic_approaches_sobolev_level(self):
        # N = 3 deficit is O(eps): quartering eps quarters the gap
        g = build_grid(3, 4.0, 100_000, scheme="graded")
        s32 = gamma_sobolev_constant(3) ** 1.5
        deficits = [abs(grad_sq(g, cutoff_bubble(g, 2.0**-k).values) - s32) for k in (4, 6, 8)]
        assert deficits[0] > deficits[1] > deficits[2]
        assert 0.15 < deficits[1] / deficits[0] < 0.35
        assert 0.15 < deficits[2] / deficits[1] < 0.35


class TestPekarExtremal:
    def test_normalization(self):
        g = build_grid(3, 30.0, 512, scheme="graded")
        v = pekar_extremal(g, 1.0, 2.0)
        params = Params(N=3, alpha=2.0, p=5.0 / 3.0, q=3.0)
        assert breakdown(v, params).nonlocal_term == pytest.approx(1.0, abs=1e-8)

    def test_mass_invariance_under_dilation(self):
        g = build_grid(3, 30.0, 4096, scheme="graded")
        base = integrate(
            RadialField(g, pekar_extremal(g, 1.0, 2.0).values ** 2)
        )
        for delta in (0.5, 2.0):
            v = pekar_extremal(g, delta, 2.0)
            mass = integrate(RadialField(g, v.values**2))
            assert mass == pytest.approx(base, rel=1e-3)

    def test_rejects_nonpositive_delta(self):
        g = build_grid(3, 30.0, 64)
        with pytest.raises(InvalidParameterError):
            pekar_extremal(g, 0.0, 2.0)

    @pytest.mark.parametrize("n,alpha", [(3, 2.0), (4, 1.0), (4, 2.5)])
    def test_quotient_attains_lower_constant(self, n, alpha):
        g = build_grid(n, 30.0, 1024, scheme="graded")
        p_low = (n + alpha) / n
        v = pekar_extremal(g, 1.0, alpha)
        params = Params(N=n, alpha=alpha, p=p_low, q=3.0 if n == 3 else 2.5)
        bd = breakdown(v, params)
        quotient = bd.mass / bd.nonlocal_term ** (1.0 / p_low)
        assert quotient == pytest.approx(gamma_lower_constant(n, alpha), rel=1e-3)


class TestSharpConstants:
    def test_consistency_identity(self):
        sc = sharp_constants(3, 2.0)
        p_upper = 5.0
        assert sc.S_alpha * (sc.A_alpha * sc.C_alpha) ** (1.0 / p_upper) == pytest.approx(
            sc.S, rel=1e-10
        )
        assert sc.to_dict()["S_alpha_consistency"] is True

    def test_gamma_formula_members(self):
        sc = sharp_constants(3, 2.0)
        assert sc.A_alpha == pytest.approx(gamma_riesz_normalization(3, 2.0), rel=1e-13)
        assert sc.C_alpha == pytest.approx(gamma_hls_constant(3, 2.0), rel=1e-13)
        assert sc.A_alpha * sc.C_alpha == pytest.approx(0.18257, rel=1e-3)

    @pytest.mark.parametrize("dimension", [3, 4, 5])
    def test_sobolev_constant_vs_oracle(self, dimension):
        sc = sharp_constants(dimension, 1.0)
        assert sc.S == pytest.approx(gamma_sobolev_constant(dimension), rel=1e-3)

    @pytest.mark.parametrize("dimension", [3, 4, 5, 6])
    def test_sobolev_constant_closed_form(self, dimension):
        sc = sharp_constants(dimension, 1.0)
        assert sc.S == pytest.approx(gamma_sobolev_constant(dimension), rel=1e-14)

    def test_builds_no_mesh(self, monkeypatch):
        import choquard.extremals as ex

        def refuse(*args, **kwargs):
            raise AssertionError("sharp_constants built a mesh")

        monkeypatch.setattr(ex, "build_grid", refuse)
        monkeypatch.setattr(ex, "RadialGrid", refuse, raising=False)
        ex.sharp_constants.cache_clear()
        # a dimension no other test asks for, so no memo can hide a build
        sc = ex.sharp_constants(7, 1.0)
        assert sc.S == pytest.approx(gamma_sobolev_constant(7), rel=1e-14)

    def test_lower_constant_vs_oracle(self):
        for (n, alpha) in [(3, 2.0), (4, 1.0)]:
            sc = sharp_constants(n, alpha)
            assert sc.S_1 == pytest.approx(gamma_lower_constant(n, alpha), rel=1e-3)

    def test_all_positive(self):
        sc = sharp_constants(4, 2.5)
        for value in (sc.S, sc.S_alpha, sc.S_1, sc.A_alpha, sc.C_alpha):
            assert value > 0


class TestAsymptoticSuite:
    def test_rejects_non_dyadic(self):
        with pytest.raises(InvalidParameterError):
            asymptotic_suite(3, 2.0, 2.0, 3.0, [0.25, 0.2, 0.1, 0.05])

    def test_rejects_short_list(self):
        with pytest.raises(InvalidParameterError):
            asymptotic_suite(3, 2.0, 2.0, 3.0, [0.5, 0.25, 0.125])

    def test_too_few_resolved_rejected(self):
        # at 16 nodes the exponential mesh resolves no eps at all
        with pytest.raises(InvalidParameterError, match="resolved"):
            asymptotic_suite(3, 2.0, 2.0, 3.0, [0.5, 0.25, 0.125, 0.0625], num_nodes=16)

    def test_under_resolved_flagged(self):
        # the exponential mesh's spacing is a fixed fraction of r + r_0, so
        # at M=512 it resolves eps down to about 3e-6 and flags only below
        eps = [2.0**-k for k in range(14, 20)]
        tab = asymptotic_suite(3, 2.0, 2.0, 3.0, eps, num_nodes=512)
        assert not all(tab.resolved)

    def test_builds_one_mesh(self, monkeypatch):
        import choquard.extremals as ex

        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("scheme"))
            return build_grid(*args, **kwargs)

        monkeypatch.setattr(ex, "build_grid", spy)
        asymptotic_suite(3, 2.0, 2.0, 3.0, [2.0**-k for k in range(4, 8)], num_nodes=256)
        assert calls == ["exponential"]

    def test_local_term_cases(self):
        assert local_term_case(3, 4.0) == (">N", 1.0, False)
        assert local_term_case(3, 3.0) == ("=N", 1.5, True)
        assert local_term_case(3, 2.5)[0] == "<N"
        assert local_term_case(3, 2.5)[1] == pytest.approx(1.25)

    def test_mass_order_n3(self):
        eps = [2.0**-k for k in range(4, 11)]
        tab = asymptotic_suite(3, 2.0, 2.0, 3.0, eps, num_nodes=512)
        assert tab.fits["mass"]["fitted"] == pytest.approx(1.0, rel=0.10)

    def test_local_middle_case_with_log(self):
        eps = [2.0**-k for k in range(8, 15)]
        tab = asymptotic_suite(3, 2.0, 2.0, 3.0, eps, num_nodes=512)
        fit = tab.fits["local"]
        assert fit["case"] == "=N"
        assert fit["log_factor"] is True
        assert fit["fitted"] == pytest.approx(1.5, rel=0.10)

    def test_nonlocal_lower_bound_only_when_not_core_dominated(self):
        # at N=3, alpha=2, p=2 the cutoff region dominates: the true decay
        # is slower than the core bound exponent 3 (a one-sided bound)
        assert not nonlocal_core_dominated(3, 2.0, 2.0)
        eps = [2.0**-k for k in range(3, 9)]
        tab = asymptotic_suite(3, 2.0, 2.0, 3.0, eps, num_nodes=1024)
        fit = tab.fits["nonlocal"]
        assert fit["bound_exponent"] == pytest.approx(3.0)
        assert fit["tight"] is False
        assert fit["bound_satisfied"]
        assert fit["fitted"] < 2.5  # genuinely slower decay than the bound

    def test_nonlocal_tight_sample(self):
        assert nonlocal_core_dominated(4, 1.0, 2.2)
        eps = [2.0**-k for k in range(3, 9)]
        tab = asymptotic_suite(4, 1.0, 2.2, 3.0, eps, num_nodes=1024)
        fit = tab.fits["nonlocal"]
        assert fit["fitted"] == pytest.approx(fit["bound_exponent"], rel=0.10)

    def test_nonlocal_upper_critical_converges_upward(self):
        # at p = p_upper the integral rises to (A C)^{N/2} S_alpha^{(N+alpha)/2};
        # the deviation sign at the smallest eps is within quadrature noise,
        # so only the upward trend and the limit value are asserted
        sc = sharp_constants(3, 2.0)
        limit = (sc.A_alpha * sc.C_alpha) ** 1.5 * sc.S_alpha ** 2.5
        eps = [2.0**-k for k in range(2, 6)]
        tab = asymptotic_suite(3, 2.0, 5.0, 3.0, eps, num_nodes=4096)
        vals = np.asarray(tab.nonlocal_term)
        assert np.all(vals < limit * (1 + 2e-4))
        assert np.all(np.diff(vals) > 0)  # increasing toward the limit as eps halves
        assert vals[-1] == pytest.approx(limit, rel=5e-4)


class TestThresholdCheck:
    def test_case_validation(self):
        subcritical = Params(N=3, alpha=2.0, p=2.0, q=3.0)
        with pytest.raises(CaseMismatchError):
            threshold_check(subcritical, "upper-critical-p", [0.25])
        upper = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        with pytest.raises(CaseMismatchError):
            threshold_check(upper, "critical-q", [0.25])
        with pytest.raises(CaseMismatchError):
            threshold_check(upper, "sideways", [0.25])

    def test_empty_family_rejected(self):
        upper = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        with pytest.raises(InvalidParameterError, match="family"):
            threshold_check(upper, "upper-critical-p", [])

    def test_upper_corner_rejected_by_every_case(self):
        # verify's wider tolerance sees the same corner; see test_verify
        corner = Params(N=3, alpha=2.0, p=5.0, q=6.0)
        assert critical_case(corner, CASE_TOL) == UPPER_CORNER
        assert critical_case(corner, CRITICAL_GAP) == UPPER_CORNER
        near = corner.with_(p=4.995, q=5.995)
        assert critical_case(near, CASE_TOL) is None
        assert critical_case(near, CRITICAL_GAP) == UPPER_CORNER
        for case in THRESHOLD_CASES:
            with pytest.raises(CaseMismatchError):
                threshold_check(corner, case, [0.25])

    def test_n4_margins_positive_for_small_eps(self):
        params = Params(N=4, alpha=1.0, p=2.5, q=3.0)
        eps = [2.0**-3, 2.0**-4, 2.0**-5]
        report = threshold_check(params, "upper-critical-p", eps, num_nodes=1024)
        assert all(row.margin > 0 for row in report.families["bubble"])

    def test_n3_lambda_phenomenon(self):
        eps = [2.0**-k for k in range(2, 7)]
        small = threshold_check(
            Params(N=3, alpha=2.0, p=5.0, q=3.0, lam=1.0),
            "upper-critical-p", eps, num_nodes=1024,
        )
        assert all(row.margin < 0 for row in small.families["bubble"])
        large = threshold_check(
            Params(N=3, alpha=2.0, p=5.0, q=3.0, lam=1000.0),
            "upper-critical-p", eps, num_nodes=1024,
        )
        assert any(row.margin > 0 for row in large.families["bubble"])

    def test_lower_critical_case_runs(self):
        params = Params(N=3, alpha=2.0, p=5.0 / 3.0, q=2.5, mu=1.0, lam=1.0)
        report = threshold_check(params, "lower-critical-p", [0.5, 1.0], num_nodes=512)
        assert "pekar" in report.families
        assert report.thresholds["lower_critical"] > 0

    def test_critical_q_case_runs(self):
        params = Params(N=3, alpha=2.0, p=2.5, q=6.0, mu=1.0, lam=1.0)
        report = threshold_check(params, "critical-q", [0.25, 0.125], num_nodes=512)
        assert "bubble" in report.families

    def test_doubly_critical_has_two_families(self):
        params = Params(N=3, alpha=2.0, p=5.0 / 3.0, q=6.0, mu=10.0, lam=10.0)
        report = threshold_check(params, "doubly-critical", [0.5, 0.25], num_nodes=512)
        assert set(report.families) == {"pekar", "bubble"}
        assert set(report.thresholds) == {"lower_critical", "sobolev"}

    def test_pekar_normalized_once_per_mesh(self, monkeypatch):
        params = Params(N=3, alpha=2.0, p=5.0 / 3.0, q=6.0, mu=10.0, lam=10.0)
        deltas = [0.5, 0.25]
        calls = []

        def counted(values, trial, kern):
            calls.append(trial)
            return integrals(values, trial, kern)

        monkeypatch.setattr(functionals, "integrals", counted)
        report = threshold_check(params, "doubly-critical", deltas, num_nodes=512)
        monkeypatch.undo()
        assert len(calls) == 1 + 2 * len(deltas)  # the normalization, then each member
        grid = build_grid(3, 30.0, 512, scheme="graded")
        lower = report.thresholds["lower_critical"]
        for delta, row in zip(deltas, report.families["pekar"]):
            sup = reduced_energy(pekar_extremal(grid, delta, params.alpha), params)
            assert (row.sup_level, row.margin) == (sup, lower - sup)

    def test_classify_margins_inconclusive_on_zero(self):
        verdict = classify_margins([0.5, 0.0, -0.2], threshold=1.0)
        assert verdict["inconclusive"] is True
        verdict2 = classify_margins([0.1, 0.2], threshold=1.0)
        assert verdict2 == {"inconclusive": False, "positive_margin_found": True}


class TestParameterSearch:
    def test_inverted_bracket_rejected(self):
        params = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        with pytest.raises(InvalidParameterError):
            critical_parameter_search(
                params, "lambda", "upper-critical-p", [0.25], bracket=(10.0, 1.0)
            )

    def test_unknown_knob_rejected(self):
        params = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        with pytest.raises(InvalidParameterError):
            critical_parameter_search(params, "sigma", "upper-critical-p", [0.25])

    def test_margin_nonpositive_at_top_rejected(self):
        # lambda_0 lies far above 2 at N=3, p=5 (see the test below)
        params = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        eps = [2.0**-k for k in range(2, 7)]
        with pytest.raises(InvalidParameterError, match="top of the bracket"):
            critical_parameter_search(
                params, "lambda", "upper-critical-p", eps, bracket=(1.0, 2.0), num_nodes=1024
            )

    def test_n3_finds_finite_lambda0(self):
        params = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        eps = [2.0**-k for k in range(2, 7)]
        res = critical_parameter_search(
            params, "lambda", "upper-critical-p", eps, bracket=(1.0, 1e6), num_nodes=1024
        )
        assert res.value > 1.0
        assert res.bracket_width < 0.1 * res.value

    def test_non_monotone_margins_rejected(self, monkeypatch):
        import choquard.extremals as ex

        params = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        wobble = iter([0.5, -1.0, 0.2, -0.5, 0.9])

        def fake_margins(trial, case, family, families):
            margin = next(wobble)
            row = ex.MarginRow(family[0], 0.0, margin)
            return ex.MarginReport(
                case=case, params=trial, thresholds={"upper_critical": 1.0},
                families={"bubble": [row]}, inconclusive=False,
                positive_margin_found=margin > 0,
            )

        monkeypatch.setattr(ex, "_margin_report", fake_margins)
        from choquard.errors import NonMonotoneMarginError

        with pytest.raises(NonMonotoneMarginError) as err:
            ex.critical_parameter_search(
                params, "lambda", "upper-critical-p", [0.25], bracket=(1.0, 100.0)
            )
        assert len(err.value.samples) == 5

    def test_integrals_taken_once_per_family_member(self, monkeypatch):
        # integrals read neither mu nor lambda, so the search takes one
        # breakdown per eps and every sample is threshold_check's margin
        params = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        eps = [2.0**-k for k in range(2, 7)]
        calls = []

        def counted(values, trial, kern):
            calls.append(trial)
            return integrals(values, trial, kern)

        monkeypatch.setattr(functionals, "integrals", counted)
        res = critical_parameter_search(
            params, "lambda", "upper-critical-p", eps, bracket=(1.0, 1e6), num_nodes=1024
        )
        assert len(calls) <= len(eps)
        monkeypatch.undo()
        assert len(res.margin_samples) == 5
        for lam, margin in res.margin_samples:
            report = threshold_check(params.with_(lam=lam), "upper-critical-p", eps, 1024)
            assert margin == max(row.margin for row in report.families["bubble"])

    def test_n4_returns_zero_bracket(self):
        params = Params(N=4, alpha=1.0, p=2.5, q=3.0)
        res = critical_parameter_search(
            params, "lambda", "upper-critical-p", [2.0**-3, 2.0**-4],
            bracket=(1.0, 1e4), num_nodes=1024,
        )
        assert res.value == 0.0
        assert res.bracket == (0.0, 1.0)
