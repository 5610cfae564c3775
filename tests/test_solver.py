import dataclasses
import math

import numpy as np
import pytest

from choquard import (
    DegenerateFieldError,
    InvalidParameterError,
    NumericalFailureError,
    Params,
    RadialField,
    SolveOptions,
    build_grid,
    continue_exponent,
    default_initial_guess,
    detect_dichotomy,
    ground_state,
    half_mass_radius,
    sample,
)
from choquard import solver
from choquard.extremals import talenti
from choquard.functionals import breakdown
from choquard.riesz import RieszKernel
from choquard.solver import SolveReport, _schedule

PEKAR = Params(N=3, alpha=2.0, p=2.0, q=3.0)


def _report_from_field(field, params):
    return SolveReport(field, params, breakdown(field, params), 1.0, 0, "max_iter")


def _trace_counting_products(monkeypatch):
    """A trace that pairs each record with the RieszKernel.convolve calls
    made up to its append, and the running call count."""
    calls = [0]
    convolve = RieszKernel.convolve

    def counted(self, values):
        calls[0] += 1
        return convolve(self, values)

    class Trace(list):
        def append(self, record):
            super().append((record, calls[0]))

    monkeypatch.setattr(RieszKernel, "convolve", counted)
    return Trace(), calls


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tol_residual=0.0),
            dict(max_iter=0),
            dict(max_iter=-1),
            dict(tol_residual=-1e-6),
            dict(tol_residual=math.nan),
            dict(tol_residual=-math.inf),
            dict(tol_residual=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SolveOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(tol_residual=True), dict(max_iter=True)])
    def test_booleans_refused(self, kwargs):
        with pytest.raises(TypeError, match="boolean"):
            SolveOptions(**kwargs)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0])
    def test_non_integral_max_iter_refused(self, max_iter):
        with pytest.raises(TypeError, match="integer"):
            SolveOptions(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        assert SolveOptions(max_iter=np.int64(3)).max_iter == 3


class TestGroundState:
    def test_zero_init_rejected(self, pekar_grid):
        zero = sample(pekar_grid, np.zeros_like)
        with pytest.raises(DegenerateFieldError):
            ground_state(PEKAR, zero, SolveOptions())

    def test_grid_dimension_mismatch_rejected(self):
        init = default_initial_guess(build_grid(4, 30.0, 64))
        with pytest.raises(InvalidParameterError, match="grid dimension"):
            ground_state(PEKAR, init, SolveOptions())

    def test_wraps_no_field_per_kernel_product(self, monkeypatch, pekar_grid):
        # the solve runs on nodal arrays; only the report's profile and, on
        # a solve that did not converge, the projected start become fields
        init = default_initial_guess(pekar_grid)
        built = []
        post_init = RadialField.__post_init__

        def counting(field):
            built.append(field)
            post_init(field)

        monkeypatch.setattr(RadialField, "__post_init__", counting)
        for opts, status in ((SolveOptions(), "converged"), (SolveOptions(max_iter=3), "max_iter")):
            built.clear()
            report = ground_state(PEKAR, init, opts)
            assert report.status == status
            assert len(built) <= 2

    def test_stalled_when_line_search_runs_out(self, monkeypatch):
        # a zero Newton direction and a zero descent direction leave every
        # polish trial at the current residual, so the search runs out long
        # before max_iter
        monkeypatch.setattr(solver, "gmres", lambda op, b, **kwargs: (np.zeros_like(b), 0))
        monkeypatch.setattr(solver, "_jacobian", lambda *args: np.zeros_like)
        grid = build_grid(3, 30.0, 256, scheme="graded")
        opts = SolveOptions(max_iter=2000)
        rep = ground_state(PEKAR, default_initial_guess(grid), opts)
        assert rep.residual_norm > opts.tol_residual
        assert rep.iterations < opts.max_iter
        assert rep.status == "stalled"

    def test_converged_invariants(self, pekar_report):
        rep = pekar_report
        assert rep.status == "converged"
        assert rep.residual_norm <= 1e-6
        scale = rep.breakdown.kinetic + rep.breakdown.mass
        assert abs(rep.P) <= 1e-5 * scale
        assert abs(rep.nehari) <= 1e-4 * scale
        assert rep.J > 0

    def test_positive_and_nonincreasing(self, pekar_report):
        vals = pekar_report.profile.values
        assert vals.min() >= -1e-10
        assert np.max(np.diff(vals)) <= 1e-8 * vals.max()

    def test_monotone_descent_of_projected_phase(self):
        grid = build_grid(3, 30.0, 512, scheme="graded")
        trace: list = []
        ground_state(PEKAR, default_initial_guess(grid), SolveOptions(), trace=trace)
        js = [t["J"] for t in trace if t["phase"] == "projected"]
        assert len(js) >= 3
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(js, js[1:]))

    def test_report_metrics_consistent(self, pekar_report):
        profile = pekar_report.profile
        assert pekar_report.linf == pytest.approx(np.max(np.abs(profile.values)))
        assert pekar_report.half_mass_radius == pytest.approx(
            half_mass_radius(profile), rel=1e-12
        )
        # half the mass really is inside that radius
        g = profile.grid
        inside = g.nodes <= pekar_report.half_mass_radius
        mass_in = float((g.volume_weights * profile.values**2)[inside].sum())
        total = float((g.volume_weights * profile.values**2).sum())
        assert mass_in == pytest.approx(0.5 * total, rel=1e-2)

    def test_matches_bvp_oracle(self, pekar_report, pekar_grid, pekar_oracle):
        diff = np.abs(pekar_report.profile.values - pekar_oracle(pekar_grid.nodes))
        assert diff.max() < 1e-3


class TestNewtonPolish:
    def test_pekar_residual_falls_superlinearly(self, pekar_grid):
        trace: list = []
        rep = ground_state(
            PEKAR, default_initial_guess(pekar_grid), SolveOptions(tol_residual=1e-10), trace=trace
        )
        assert rep.status == "converged"
        start = [t["residual"] for t in trace if t["phase"] == "projected"][-1]
        res = [start] + [t["residual"] for t in trace if t["phase"] == "polish"]
        ratios = [b / a for a, b in zip(res, res[1:])]
        # descent contracts by a fixed factor; Newton's factor itself shrinks
        assert len(ratios) >= 3
        assert all(b < 0.2 * a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-3

    def test_near_critical_warm_start_needs_few_kernel_products(self, monkeypatch):
        grid = build_grid(4, 12.0, 1024, scheme="graded")
        start = Params(N=4, alpha=1.0, p=2.0, q=3.0)
        opts = SolveOptions(max_iter=600)
        warm = continue_exponent(start, "p-upper", 5, opts, grid)[-1].profile
        trace, calls = _trace_counting_products(monkeypatch)
        rep = ground_state(start.with_(p=2.4921875), warm, opts, trace)
        assert rep.residual_norm <= opts.tol_residual
        # a descent-only polish on 1/2 ||g||^2 takes 780 kernel products here
        assert calls[0] <= 780 // 3
        assert trace and all(record["products"] == n for record, n in trace)

    def test_descent_fallback_below_p_two(self, monkeypatch):
        # at p < 2 the Newton step fails where |u|^{p-2} blows up on the
        # tail, and a descent step on 1/2 ||g||^2 takes over
        in_gmres = False
        fallbacks = 0
        gmres, jacobian = solver.gmres, solver._jacobian

        def tracked_gmres(*args, **kwargs):
            nonlocal in_gmres
            in_gmres = True
            try:
                return gmres(*args, **kwargs)
            finally:
                in_gmres = False

        def tracked_jacobian(*args):
            apply = jacobian(*args)

            def tracked(v):
                nonlocal fallbacks
                fallbacks += not in_gmres
                return apply(v)

            return tracked

        monkeypatch.setattr(solver, "gmres", tracked_gmres)
        monkeypatch.setattr(solver, "_jacobian", tracked_jacobian)
        grid = build_grid(3, 30.0, 2048, scheme="graded", gamma=2.0)
        params = Params(N=3, alpha=2.0, p=1.799735, q=4.06809)
        trace, _ = _trace_counting_products(monkeypatch)
        rep = ground_state(params, default_initial_guess(grid), SolveOptions(max_iter=2000), trace)
        assert fallbacks >= 1
        assert rep.status == "converged"
        assert trace and all(record["products"] == n for record, n in trace)
        # reference level from a descent-only polish on 1/2 ||g||^2
        assert rep.J == pytest.approx(7.385169486194032, rel=1e-8)

    def test_pohozaev_defect_labelled(self):
        # at M=512 the residual converges but |P| exceeds its bound by
        # discretization error alone
        grid = build_grid(4, 12.0, 512, scheme="graded")
        params = Params(N=4, alpha=1.0, p=2.0, q=3.0)
        init = sample(grid, lambda r: 4.0 * np.exp(-(r**2)))
        rep = ground_state(params, init, SolveOptions())
        assert rep.residual_norm <= 1e-6
        assert abs(rep.P) > 1e-5 * (rep.breakdown.kinetic + rep.breakdown.mass)
        assert rep.status == "pohozaev_defect"
        assert rep.iterations < SolveOptions().max_iter


class TestSchedule:
    def test_requires_strictly_subcritical_start(self):
        critical = Params(N=3, alpha=2.0, p=5.0, q=3.0)
        with pytest.raises(InvalidParameterError):
            _schedule(critical, "p-upper", 2)

    def test_halving_gaps(self):
        start = Params(N=4, alpha=1.0, p=2.0, q=3.0)
        sched = _schedule(start, "p-upper", 3)
        gaps = [start.p_upper - s.p for s in sched]
        assert gaps == pytest.approx([0.5, 0.25, 0.125, 0.0625])
        sched_q = _schedule(start, "q-upper", 2)
        assert [s.q for s in sched_q] == pytest.approx([3.0, 3.5, 3.75])
        symmetric = Params(N=4, alpha=1.0, p=1.25 + 0.75, q=4.0 - 0.75)
        sched_d = _schedule(symmetric, "double", 1)
        assert sched_d[1].p == pytest.approx(1.25 + 0.375)
        assert sched_d[1].q == pytest.approx(4.0 - 0.375)

    def test_double_target_requires_matching_gaps(self):
        bad = Params(N=3, alpha=2.0, p=2.0, q=3.5)
        with pytest.raises(InvalidParameterError):
            _schedule(bad, "double", 1)
        a0 = 1.0 / 3.0
        good = Params(N=3, alpha=2.0, p=5.0 / 3.0 + a0, q=6.0 - a0)
        sched = _schedule(good, "double", 2)
        assert sched[2].p == pytest.approx(5.0 / 3.0 + a0 / 4)
        assert sched[2].q == pytest.approx(6.0 - a0 / 4)

    def test_lower_critical_continuation_with_p_below_two(self):
        # exponents p < 2 exercise the odd-power right-hand side on fields
        # with exact zeros in the dilated tail
        grid = build_grid(3, 30.0, 1024, scheme="graded")
        start = Params(N=3, alpha=2.0, p=2.2, q=2.8)
        reports = continue_exponent(start, "p-lower", 2, SolveOptions(max_iter=600), grid)
        assert [round(r.params.p, 4) for r in reports] == [2.2, 1.9333, 1.8]
        assert all(r.status == "converged" for r in reports)

    def test_stalled_projection_hands_off_to_polish(self):
        # near-critical q at coarse resolution: the projected phase stalls
        # at its resampling floor but the polish still drives the residual
        # to tolerance (the P-identity stays resolution-limited)
        grid = build_grid(3, 30.0, 1024, scheme="graded")
        params = Params(N=3, alpha=2.0, p=2.0, q=6.0 - 1.0 / 3.0, mu=2.0, lam=2.0)
        rep = ground_state(params, default_initial_guess(grid), SolveOptions(max_iter=3000))
        assert rep.residual_norm <= 1e-6
        assert rep.iterations < 1000

    def test_zero_steps_single_solve(self):
        grid = build_grid(3, 30.0, 1024, scheme="graded")
        start = Params(N=3, alpha=2.0, p=2.0, q=3.0)
        reports = continue_exponent(start, "p-upper", 0, SolveOptions(), grid)
        assert len(reports) == 1
        assert reports[0].params.p == 2.0
        assert reports[0].status == "converged"


class TestContinuation:
    def test_n4_levels_monotone_and_converged(self, n4_continuation):
        reports = n4_continuation.reports
        assert len(reports) == 7
        assert all(r.status == "converged" for r in reports)
        levels = [r.J for r in reports]
        diffs = [abs(b - a) for a, b in zip(levels, levels[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert all(level > 0 for level in levels)

    def test_lam0_linf_grows_monotonically(self, n4_continuation_lam0):
        linfs = [r.linf for r in n4_continuation_lam0.reports]
        tail = linfs[1:]
        assert all(b > a for a, b in zip(tail, tail[1:]))

    def test_lam0_classified_concentrating(self, n4_continuation_lam0):
        assert detect_dichotomy(n4_continuation_lam0.reports) == "concentrating"

    def test_lam1_classified_converged(self, n4_continuation):
        assert detect_dichotomy(n4_continuation.reports) == "converged"

    def test_warm_started_levels_never_jump_up(self, n4_continuation):
        # approaching the upper-critical exponent lowers the level; allow
        # only the 1e-2 c slack of the empirical monotone-trend test
        levels = [r.J for r in n4_continuation.reports]
        for cur, nxt in zip(levels, levels[1:]):
            assert nxt <= cur + 1e-2 * cur


class TestPredictorCorrector:
    N4 = Params(N=4, alpha=1.0, p=2.0, q=3.0)

    @pytest.fixture(scope="class")
    def n4_grid_1024(self):
        return build_grid(4, 12.0, 1024, scheme="graded")

    def test_runs_through_a_traced_ground_state(self, monkeypatch):
        # perfbench/spans.py rebinds ground_state to a wrapper of exactly this
        # signature, so continuation may pass it no other argument
        original = solver.ground_state
        calls = []

        def ground_state(params, init, opts, trace=None):
            calls.append(params.p)
            return original(params, init, opts, trace)

        monkeypatch.setattr(solver, "ground_state", ground_state)
        grid = build_grid(4, 12.0, 512, scheme="graded")
        reports = continue_exponent(self.N4, "p-upper", 3, SolveOptions(max_iter=600), grid)
        assert len(reports) == 4
        assert calls[0] == 2.0

    @pytest.mark.parametrize("miss", ["residual", "raise"])
    def test_corrector_that_misses_falls_back_once(self, monkeypatch, n4_grid_1024, miss):
        opts = SolveOptions(max_iter=600)
        solve, original = solver._solve, solver.ground_state
        missed, cold = [], []

        def corrector_missing_once(params, init, opts, trace, descend):
            report = solve(params, init, opts, trace, descend)
            if not descend and not missed:
                missed.append(params.p)
                if miss == "raise":
                    raise NumericalFailureError("non-finite iterate", {})
                return dataclasses.replace(report, residual_norm=2.0 * opts.tol_residual)
            return report

        def ground_state(params, init, opts, trace=None):
            cold.append(params.p)
            return original(params, init, opts, trace)

        monkeypatch.setattr(solver, "_solve", corrector_missing_once)
        monkeypatch.setattr(solver, "ground_state", ground_state)
        reports = continue_exponent(self.N4, "p-upper", 2, opts, n4_grid_1024)
        assert missed == [2.25]
        assert cold == [2.0, 2.25]  # the first step, then the one fallback
        direct = original(reports[1].params, reports[0].profile, opts)
        assert repr(reports[1].J) == repr(direct.J)
        assert reports[1].iterations == direct.iterations
        assert reports[1].status == direct.status
        assert reports[1].profile.values.tobytes() == direct.profile.values.tobytes()

    def test_chain_below_p_two_runs_two_phase_solves(self, monkeypatch):
        # the gate: with p < 2 on either side a step is solved by
        # ground_state from the previous profile, the same arithmetic and
        # kernel products as a chain of plain two-phase solves
        grid = build_grid(3, 30.0, 1024, scheme="graded")
        start, opts = Params(N=3, alpha=2.0, p=2.2, q=2.8), SolveOptions(max_iter=600)
        _, calls = _trace_counting_products(monkeypatch)
        reports = continue_exponent(start, "p-lower", 2, opts, grid)
        products = calls[0]
        current = default_initial_guess(grid)
        for rep, params in zip(reports, _schedule(start, "p-lower", 2)):
            direct = ground_state(params, current, opts)
            assert repr(rep.J) == repr(direct.J)
            assert rep.iterations == direct.iterations
            assert rep.profile.values.tobytes() == direct.profile.values.tobytes()
            current = direct.profile
        assert calls[0] == 2 * products

    def test_near_critical_chain_needs_few_kernel_products(self, monkeypatch, n4_grid_1024):
        # the two-phase chain makes 575 products here, most of them in
        # projected descent at the last two steps
        _, calls = _trace_counting_products(monkeypatch)
        reports = continue_exponent(
            self.N4.with_(lam=0.0), "p-upper", 4, SolveOptions(max_iter=600), n4_grid_1024
        )
        assert calls[0] <= 300
        assert [r.status for r in reports] == ["converged"] + ["pohozaev_defect"] * 4


def _counting(matvec):
    """matvec and a list holding the number of its calls."""
    calls = [0]

    def counted(v):
        calls[0] += 1
        return matvec(v)

    return counted, calls


def _gmres_against_scipy(matvec, b, rtol, restart):
    """solver.gmres and scipy's one-cycle gmres on the same system, as
    (package x, its matvec calls, scipy x, its matvec calls)."""
    from scipy.sparse.linalg import LinearOperator, gmres

    ours, our_calls = _counting(matvec)
    x, info = solver.gmres(ours, b, rtol=rtol, restart=restart)
    assert info == 0
    theirs, their_calls = _counting(matvec)
    op = LinearOperator((b.size, b.size), matvec=theirs, dtype=float)
    y, _ = gmres(op, b, rtol=rtol, atol=0.0, restart=restart, maxiter=1)
    return x, our_calls[0], y, their_calls[0]


class TestGmres:
    """The package's restart cycle against scipy's, to the bit; it applies
    the operator once per Krylov vector and scipy once more."""

    def test_nonsymmetric_matrix_to_tolerance(self, rng):
        n = 80
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal(n)
        x, ours, y, theirs = _gmres_against_scipy(lambda v: a @ v, b, 1e-8, 60)
        assert np.array_equal(x, y)
        assert 1 <= ours < 60 and theirs == ours + 1
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("rtol", [0.1, 1e-4])
    def test_jacobian_at_pekar_iterate(self, rtol):
        from choquard.riesz import kernel_for

        grid = build_grid(3, 30.0, 256, scheme="graded")
        rep = ground_state(PEKAR, default_initial_guess(grid), SolveOptions(max_iter=5))
        kern = solver._CountedKernel(kernel_for(grid, PEKAR.alpha))
        it = solver._evaluate(rep.profile.values, PEKAR, kern)
        jac = solver._jacobian(it.values, it.potential, PEKAR, kern)
        x, ours, y, theirs = _gmres_against_scipy(jac, it.g, rtol, solver.KRYLOV_MAX)
        assert np.array_equal(x, y)
        assert 1 <= ours < solver.KRYLOV_MAX and theirs == ours + 1

    def test_cycle_that_hits_restart(self, rng):
        n = 80
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal(n)
        x, ours, y, theirs = _gmres_against_scipy(lambda v: a @ v, b, 1e-14, 5)
        assert np.array_equal(x, y)
        assert ours == 5 and theirs == 6

    def test_exact_breakdown(self):
        # I + e1 e0^T + e2 e1^T maps e0 -> e0 + e1 -> ..., so from b = 2 e0
        # the Krylov space is span(e0, e1, e2), computed without rounding
        n = 50
        a = np.eye(n) + np.eye(n, k=-1) * (np.arange(n) < 2)
        b = 2.0 * np.eye(n)[0]
        x, ours, y, theirs = _gmres_against_scipy(lambda v: a @ v, b, 1e-30, 20)
        assert np.array_equal(x, y)
        assert ours == 3 and theirs == 4
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_right_hand_side(self):
        x, ours, y, theirs = _gmres_against_scipy(lambda v: 2.0 * v, np.zeros(16), 0.1, 10)
        assert np.array_equal(x, y) and not np.any(x)
        assert ours == theirs == 0


class TestPolishBudget:
    def test_iterations_and_products_within_max_iter(self, monkeypatch):
        grid = build_grid(3, 30.0, 256, scheme="graded")
        products = [0]
        kernel_for, polish = solver.kernel_for, solver._polish

        def counted_kernel_for(grid, alpha):
            # count on the instance, beneath the solver's own counter
            kern = kernel_for(grid, alpha)
            convolve = type(kern).convolve

            def counted(values):
                products[0] += 1
                return convolve(kern, values)

            object.__setattr__(kern, "convolve", counted)
            return kern

        phases = []

        def counted_polish(it, iterations, *args):
            start = products[0]
            result = polish(it, iterations, *args)
            phases.append((iterations, products[0] - start))
            return result

        monkeypatch.setattr(solver, "kernel_for", counted_kernel_for)
        monkeypatch.setattr(solver, "_polish", counted_polish)
        spent_all = 0
        try:
            for max_iter in range(1, 41):
                phases.clear()
                rep = ground_state(PEKAR, default_initial_guess(grid), SolveOptions(max_iter=max_iter))
                assert rep.iterations <= max_iter
                (descent, polish_products), = phases
                assert polish_products <= max_iter - descent
                spent_all += 0 < polish_products == max_iter - descent
        finally:
            kern = kernel_for(grid, PEKAR.alpha)
            object.__delattr__(kern, "convolve")
        assert spent_all  # some polish ran to the edge of its budget

    def test_newton_step_costs_its_krylov_applies_and_trials(self, monkeypatch):
        # products per polish record = Krylov applies + trial residuals
        counts = {"krylov": 0, "trials": 0}
        gmres, evaluate = solver.gmres, solver._evaluate

        def counted_gmres(matvec, b, **kwargs):
            def counted(v):
                counts["krylov"] += 1
                return matvec(v)

            return gmres(counted, b, **kwargs)

        def counted_evaluate(*args):
            counts["trials"] += 1
            return evaluate(*args)

        class Trace(list):
            def append(self, record):
                super().append({**record, **counts})

        monkeypatch.setattr(solver, "gmres", counted_gmres)
        monkeypatch.setattr(solver, "_evaluate", counted_evaluate)
        grid = build_grid(3, 30.0, 256, scheme="graded")
        opts = SolveOptions(tol_residual=1e-10)
        records = Trace()
        rep = ground_state(PEKAR, default_initial_guess(grid), opts, records)
        assert rep.residual_norm <= opts.tol_residual
        first = next(i for i, r in enumerate(records) if r["phase"] == "polish")
        assert first > 0 and len(records) - first >= 3
        for before, after in zip(records[first - 1:], records[first:]):
            krylov = after["krylov"] - before["krylov"]
            trials = after["trials"] - before["trials"]
            assert krylov >= 1 and trials >= 1
            assert after["products"] - before["products"] == krylov + trials
        assert rep.iterations == records[-1]["products"] - records[first - 1]["products"] + first


class TestDetectDichotomy:
    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            detect_dichotomy([])

    def test_stalled_step_reads_max_iter(self, pekar_report):
        stalled = dataclasses.replace(pekar_report, status="stalled")
        assert detect_dichotomy([pekar_report, stalled]) == "max_iter"

    def test_constant_tail_converged(self, pekar_report):
        assert detect_dichotomy([pekar_report, pekar_report]) == "converged"

    def test_synthetic_bubbles_concentrating(self):
        # N=5 bubbles have core-dominated mass: half-mass radius ~ eps
        grid = build_grid(5, 10.0, 1024, scheme="graded")
        params = Params(N=5, alpha=2.0, p=1.6, q=2.5)
        reports = [
            _report_from_field(talenti(grid, 1.0 / n), params) for n in (1, 2, 3, 4, 6)
        ]
        assert reports[-1].linf > 10 * reports[0].linf
        assert detect_dichotomy(reports) == "concentrating"

    def test_synthetic_shrinking_gaussians_vanishing(self):
        grid = build_grid(3, 15.0, 256, scheme="graded")
        params = Params(N=3, alpha=2.0, p=2.0, q=3.0)
        fields = [
            RadialField(grid, amp * np.exp(-(grid.nodes**2))) for amp in (1.0, 1e-4)
        ]
        reports = [_report_from_field(f, params) for f in fields]
        assert detect_dichotomy(reports) == "vanishing"
