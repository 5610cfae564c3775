import math

import numpy as np
import pytest

from choquard import (
    DegenerateFieldError,
    EnergyBreakdown,
    InvalidParameterError,
    Params,
    RadialField,
    breakdown,
    build_grid,
    dilate,
    h1_inner,
    integrate,
    kernel_for,
    reduced_energy,
    sample,
)
from choquard.functionals import (
    _fiber_slope_and_derivative,
    energy_of,
    fiber_energy_of,
    integrals,
    nehari_of,
    pohozaev_gate,
    pohozaev_of,
    project_tau,
    residual_of,
    scale_breakdown,
)

from oracles import dense_fiber_max, random_positive_field

PEKAR = Params(N=3, alpha=2.0, p=2.0, q=3.0, mu=1.0, lam=1.0)
UNIT_BD = EnergyBreakdown(1.0, 1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(3, 15.0, 256, scheme="graded")


class TestParams:
    def test_derived_exponents(self):
        p = Params(N=3, alpha=2.0, p=2.0, q=3.0)
        assert p.p_lower == pytest.approx(5.0 / 3.0)
        assert p.p_upper == pytest.approx(5.0)
        assert p.q_upper == pytest.approx(6.0)

    def test_critical_endpoints_admitted(self):
        Params(N=3, alpha=2.0, p=5.0, q=6.0)
        Params(N=4, alpha=1.0, p=1.25, q=2.5)
        Params(N=3, alpha=2.0, p=2.0, q=3.0, lam=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=2, alpha=1.0, p=2.0, q=3.0),
            dict(N=3, alpha=0.0, p=2.0, q=3.0),
            dict(N=3, alpha=3.0, p=2.0, q=3.0),
            dict(N=3, alpha=2.0, p=1.0, q=3.0),
            dict(N=3, alpha=2.0, p=5.5, q=3.0),
            dict(N=3, alpha=2.0, p=2.0, q=2.0),
            dict(N=3, alpha=2.0, p=2.0, q=6.5),
            dict(N=3, alpha=2.0, p=2.0, q=3.0, mu=0.0),
            dict(N=3, alpha=2.0, p=2.0, q=3.0, lam=-1.0),
            dict(N=3, alpha=2.0, p=2.0, q=3.0, mu=math.inf),
            dict(N=3, alpha=2.0, p=2.0, q=3.0, lam=math.nan),
            dict(N=3, alpha=2.0, p=2.0, q=3.0, lam=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Params(**kwargs)


class TestBreakdown:
    def test_zero_field(self, small_grid):
        bd = breakdown(sample(small_grid, np.zeros_like), PEKAR)
        assert bd.astuple() == (0.0, 0.0, 0.0, 0.0)

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidParameterError):
            EnergyBreakdown(-1.0, 0.0, 0.0, 0.0)

    def test_grid_dimension_mismatch_rejected(self):
        u = sample(build_grid(4, 15.0, 64), lambda r: np.exp(-(r**2)))
        with pytest.raises(InvalidParameterError, match="grid dimension"):
            breakdown(u, PEKAR)

    def test_pekar_breakdown_matches_oracle_profile(self, pekar_grid, pekar_report, pekar_oracle):
        u_oracle = RadialField(pekar_grid, pekar_oracle(pekar_grid.nodes))
        bd_o = breakdown(u_oracle, PEKAR)
        bd_s = pekar_report.breakdown
        for got, want in zip(bd_s.astuple(), bd_o.astuple()):
            assert got == pytest.approx(want, rel=1e-3)

    def test_equals_solver_breakdown_exactly(self, pekar_report):
        # the solver and breakdown evaluate the integrals through one core
        assert breakdown(pekar_report.profile, PEKAR) == pekar_report.breakdown


class TestEnergyFormulas:
    def test_zero(self, small_grid):
        assert energy_of(breakdown(sample(small_grid, np.zeros_like), PEKAR), PEKAR) == 0.0

    def test_unit_breakdown_energy(self):
        assert energy_of(UNIT_BD, PEKAR) == pytest.approx(5.0 / 12.0, abs=1e-15)

    def test_unit_breakdown_pohozaev(self):
        assert pohozaev_of(UNIT_BD, PEKAR) == pytest.approx(-0.25, abs=1e-15)

    def test_unit_breakdown_nehari(self):
        assert nehari_of(UNIT_BD, PEKAR) == 0.0

    def test_pohozaev_gate(self):
        assert pohozaev_gate(UNIT_BD, PEKAR) == (0.25, 2e-5, False)
        # P = kinetic/2 - nonlocal at N = 3, alpha = 2, p = 2.5
        on_manifold = EnergyBreakdown(2.0, 0.0, 1.0, 0.0)
        assert pohozaev_gate(on_manifold, PEKAR.with_(p=2.5)) == (0.0, 2e-5, True)

    def test_zero_pohozaev_nehari(self, small_grid):
        z = sample(small_grid, np.zeros_like)
        assert pohozaev_of(breakdown(z, PEKAR), PEKAR) == 0.0
        assert nehari_of(breakdown(z, PEKAR), PEKAR) == 0.0

    def test_level_identity(self, rng):
        # J - P/N = kinetic/N + mu alpha nonlocal / (2 N p), exactly
        for _ in range(50):
            a, b, c, d = rng.uniform(0.01, 10.0, size=4)
            bd = EnergyBreakdown(a, b, c, d)
            params = Params(
                N=int(rng.integers(3, 6)),
                alpha=1.0,
                p=1.6,
                q=2.5,
                mu=float(rng.uniform(0.1, 5.0)),
                lam=float(rng.uniform(0.1, 5.0)),
            )
            lhs = energy_of(bd, params) - pohozaev_of(bd, params) / params.N
            rhs = a / params.N + params.mu * params.alpha * c / (2 * params.N * params.p)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_energy_bounded_below_on_manifold(self, small_grid, rng):
        # with P = 0, J = kinetic/N + mu alpha c/(2Np) >= 0
        for _ in range(10):
            u = random_positive_field(small_grid, rng)
            bd = breakdown(u, PEKAR)
            tau = project_tau(bd, PEKAR)
            bd_proj = scale_breakdown(bd, tau, PEKAR)
            J = energy_of(bd_proj, PEKAR)
            assert J >= 0
            assert J == pytest.approx(
                bd_proj.kinetic / 3.0 + 2.0 * bd_proj.nonlocal_term / 12.0, rel=1e-10
            )


class TestYoungInterpolation:
    def test_pointwise_exponent_interpolation(self, small_grid, rng):
        # |u|^p <= w |u|^p_lower + (1-w) |u|^p_upper with the convexity
        # weight w = (p_upper - p)/(p_upper - p_lower), pointwise
        params = PEKAR
        lo, hi = params.p_lower, params.p_upper
        for p in (1.8, 2.0, 3.0, 4.5):
            w = (hi - p) / (hi - lo)
            u = np.abs(random_positive_field(small_grid, rng).values) + 1e-9
            assert np.all(u**p <= w * u**lo + (1 - w) * u**hi + 1e-12)


class TestGradientResidual:
    def test_zero(self, small_grid):
        z = np.zeros(small_grid.node_count)
        _, potential = integrals(z, PEKAR, kernel_for(small_grid, PEKAR.alpha))
        g, _ = residual_of(z, potential, small_grid, PEKAR)
        assert np.all(g == 0.0)

    def test_directional_derivative(self, small_grid, rng):
        params = Params(N=3, alpha=2.0, p=2.2, q=3.4, mu=1.3, lam=0.8)
        u = random_positive_field(small_grid, rng)
        w = random_positive_field(small_grid, rng)
        kern = kernel_for(small_grid, params.alpha)
        _, potential = integrals(u.values, params, kern)
        g, _ = residual_of(u.values, potential, small_grid, params)
        predicted = h1_inner(small_grid, g, w.values)
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            up = RadialField(small_grid, u.values + h * w.values)
            um = RadialField(small_grid, u.values - h * w.values)
            jp = energy_of(breakdown(up, params), params)
            jm = energy_of(breakdown(um, params), params)
            fd = (jp - jm) / (2 * h)
            errs.append(abs(fd - predicted))
        scale = max(abs(predicted), 1.0)
        assert errs[0] < 1e-5 * scale
        assert errs[2] < 1e-6 * scale
        # second order in h: halving the step quarters the error
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]

    def test_small_at_ground_state(self, pekar_report):
        u = pekar_report.profile
        _, potential = integrals(u.values, PEKAR, kernel_for(u.grid, PEKAR.alpha))
        assert residual_of(u.values, potential, u.grid, PEKAR)[1] < 1e-6

    def test_norm_equals_solver_residual_exactly(self, pekar_report):
        u = pekar_report.profile
        _, potential = integrals(u.values, PEKAR, kernel_for(u.grid, PEKAR.alpha))
        assert residual_of(u.values, potential, u.grid, PEKAR)[1] == pekar_report.residual_norm


class TestGroundStateIdentities:
    def test_pohozaev_small(self, pekar_report):
        bd = pekar_report.breakdown
        assert abs(pekar_report.P) < 1e-5 * (bd.kinetic + bd.mass)

    def test_nehari_small(self, pekar_report):
        bd = pekar_report.breakdown
        assert abs(pekar_report.nehari) < 1e-4 * (bd.kinetic + bd.mass)

    def test_gaussian_not_a_solution(self, small_grid):
        u = sample(small_grid, lambda r: np.exp(-(r**2)))
        bd = breakdown(u, PEKAR)
        assert abs(pohozaev_of(bd, PEKAR)) > 1e-2 * (bd.kinetic + bd.mass)


class TestDilate:
    def test_identity(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        assert np.array_equal(dilate(small_grid, u.values, 1.0), u.values)

    def test_zero_dilation(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        assert np.all(dilate(small_grid, u.values, 0.0) == 0.0)

    def test_negative_rejected(self, small_grid, rng):
        with pytest.raises(InvalidParameterError):
            dilate(small_grid, random_positive_field(small_grid, rng).values, -0.5)

    def test_mass_law(self):
        g = build_grid(3, 30.0, 2048, scheme="graded")
        u = np.exp(-(g.nodes**2))
        base = integrate(sample(g, lambda r: np.exp(-(r**2)) ** 2))
        for tau in (0.5, 2.0):
            v = dilate(g, u, tau)
            mass = integrate(RadialField(g, v**2))
            assert mass == pytest.approx(tau**3 * base, rel=1e-4)


class TestFiberEnergy:
    def test_zero_dilation(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        assert fiber_energy_of(breakdown(u, PEKAR), 0.0, PEKAR) == 0.0

    def test_negative_dilation_rejected(self):
        with pytest.raises(InvalidParameterError):
            scale_breakdown(UNIT_BD, -0.5, PEKAR)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_matches_resampled_energy(self, tau):
        g = build_grid(3, 40.0, 4096, scheme="graded")
        u = sample(g, lambda r: np.exp(-(r**2) / 2))
        assert fiber_energy_of(breakdown(u, PEKAR), tau, PEKAR) == pytest.approx(
            energy_of(breakdown(RadialField(g, dilate(g, u.values, tau)), PEKAR), PEKAR),
            rel=2e-4, abs=1e-6,
        )

    def test_negative_for_large_tau(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        assert fiber_energy_of(breakdown(u, PEKAR), 64.0, PEKAR) < 0

    def test_small_tau_kinetic_limit(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        bd = breakdown(u, PEKAR)
        tau = 1e-4
        ratio = fiber_energy_of(bd, tau, PEKAR) / tau ** (PEKAR.N - 2)
        assert ratio == pytest.approx(bd.kinetic / 2.0, rel=1e-6)


class TestProjection:
    def test_unit_breakdown_closed_form(self):
        # phi'(t)=0 reduces to 0.5 + 0.5 t^2 - 1.25 t^4 = 0
        tau = project_tau(UNIT_BD, PEKAR)
        expected = math.sqrt((0.5 + math.sqrt(2.75)) / 2.5)
        assert tau == pytest.approx(expected, rel=1e-12)
        assert tau == pytest.approx(0.929153, abs=1e-6)

    def test_projected_breakdown_has_root_at_one(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        bd = breakdown(u, PEKAR)
        tau = project_tau(bd, PEKAR)
        bd_proj = scale_breakdown(bd, tau, PEKAR)
        assert abs(pohozaev_of(bd_proj, PEKAR)) < 1e-10 * (bd_proj.kinetic + bd_proj.mass)
        assert project_tau(bd_proj, PEKAR) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_inputs_rejected(self, small_grid):
        z = sample(small_grid, np.zeros_like)
        with pytest.raises(DegenerateFieldError):
            project_tau(breakdown(z, PEKAR), PEKAR)
        with pytest.raises(DegenerateFieldError):
            project_tau(EnergyBreakdown(0.0, 1.0, 1.0, 1.0), PEKAR)
        with pytest.raises(DegenerateFieldError):
            project_tau(EnergyBreakdown(1.0, 1.0, 0.0, 1.0), PEKAR)

    def test_dilation_equivariance_exact(self, small_grid, rng):
        u = random_positive_field(small_grid, rng)
        bd = breakdown(u, PEKAR)
        tau0 = project_tau(bd, PEKAR)
        for s in (0.5, 2.0, 3.7):
            scaled = scale_breakdown(bd, s, PEKAR)
            assert project_tau(scaled, PEKAR) == pytest.approx(tau0 / s, rel=1e-10)

    def test_dilation_equivariance_resampled(self, rng):
        g = build_grid(3, 40.0, 2048, scheme="graded")
        u = sample(g, lambda r: np.exp(-(r**2) / 2))
        tau0 = project_tau(breakdown(u, PEKAR), PEKAR)
        for s in (0.5, 2.0):
            dilated = RadialField(g, dilate(g, u.values, s))
            assert project_tau(breakdown(dilated, PEKAR), PEKAR) == pytest.approx(
                tau0 / s, rel=1e-3
            )

    def test_unique_sign_change(self, small_grid, rng):
        for _ in range(40):
            u = random_positive_field(small_grid, rng)
            bd = breakdown(u, PEKAR)
            tau0 = project_tau(bd, PEKAR)
            slope = _fiber_slope_and_derivative(bd, PEKAR)[0]
            ts = np.geomspace(tau0 / 100, tau0 * 100, 1500)
            signs = np.sign([slope(t) for t in ts])
            changes = int(np.sum(np.abs(np.diff(signs)) > 0))
            assert changes == 1


class TestReducedEnergy:
    def test_equals_energy_at_ground_state(self, pekar_report):
        val = reduced_energy(pekar_report.profile, PEKAR)
        assert val == pytest.approx(pekar_report.J, rel=1e-8)

    def test_scale_invariance(self):
        g = build_grid(3, 40.0, 2048, scheme="graded")
        u = sample(g, lambda r: np.exp(-(r**2) / 2))
        base = reduced_energy(u, PEKAR)
        for s in (0.5, 2.0):
            dilated = RadialField(g, dilate(g, u.values, s))
            assert reduced_energy(dilated, PEKAR) == pytest.approx(base, rel=1e-3)

    def test_nonnegative(self, small_grid, rng):
        for _ in range(20):
            u = random_positive_field(small_grid, rng)
            assert reduced_energy(u, PEKAR) >= 0

    def test_matches_dense_scan(self, small_grid, rng):
        for _ in range(5):
            u = random_positive_field(small_grid, rng)
            bd = breakdown(u, PEKAR)
            red = fiber_energy_of(bd, project_tau(bd, PEKAR), PEKAR)
            _, scan = dense_fiber_max(bd, PEKAR)
            assert red == pytest.approx(scan, rel=1e-8)
