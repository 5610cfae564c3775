import numpy as np
import pytest

from choquard import (
    InvalidParameterError,
    Params,
    RadialField,
    build_grid,
    sample,
    sharp_constants,
)
from choquard.cli import _write_report, main
from choquard.extremals import talenti
from choquard.functionals import breakdown
from choquard.solver import SolveReport
from choquard.verify import (
    check_level_window,
    check_mountain_pass_consistency,
    check_pohozaev_identity,
    check_positivity_monotonicity,
    check_radial_decay_bound,
    run_verification,
)

PEKAR = Params(N=3, alpha=2.0, p=2.0, q=3.0)


def _fake_report(field, params, status="converged", residual=1e-7):
    return SolveReport(field, params, breakdown(field, params), residual, 1, status)


class TestPohozaevCheck:
    def test_ground_state_passes(self, pekar_report):
        res = check_pohozaev_identity(pekar_report.profile, PEKAR)
        assert res.passed

    def test_gaussian_fails(self):
        grid = build_grid(3, 15.0, 512, scheme="graded")
        u = sample(grid, lambda r: np.exp(-(r**2)))
        res = check_pohozaev_identity(u, PEKAR)
        assert not res.passed
        assert res.measured > 0.1  # O(0.25)-scale violation

    def test_zero_field_degenerate_pass(self):
        grid = build_grid(3, 15.0, 64)
        res = check_pohozaev_identity(sample(grid, np.zeros_like), PEKAR)
        assert res.passed
        assert "degenerate" in res.note


class TestMountainPassCheck:
    def test_ground_state_passes(self, pekar_report):
        res = check_mountain_pass_consistency(pekar_report)
        assert res.passed

    def test_scan_maximum_location_near_one(self, pekar_report):
        from oracles import dense_fiber_max

        tau_max, _ = dense_fiber_max(pekar_report.breakdown, PEKAR)
        assert abs(tau_max - 1.0) < 1e-4

    @pytest.mark.parametrize("bump", [0.0, 0.1])
    def test_matches_dense_fiber_scan(self, pekar_report, bump):
        from oracles import dense_fiber_max

        grid = pekar_report.profile.grid
        field = RadialField(grid, pekar_report.profile.values + bump * np.exp(-(grid.nodes**2)))
        fake = _fake_report(field, PEKAR)
        tau_max, scan_max = dense_fiber_max(fake.breakdown, PEKAR)
        res = check_mountain_pass_consistency(fake)
        assert res.measured == pytest.approx(abs(fake.J - scan_max), abs=1e-13 * abs(fake.J))
        assert float(res.note.removeprefix("tau_max=")) == pytest.approx(tau_max, rel=1e-5)

    def test_perturbed_profile_fails(self, pekar_report):
        grid = pekar_report.profile.grid
        perturbed = RadialField(
            grid, pekar_report.profile.values + 0.1 * np.exp(-(grid.nodes**2))
        )
        fake = _fake_report(perturbed, PEKAR)
        res = check_mountain_pass_consistency(fake)
        assert not res.passed

    def test_rejects_unconverged(self, pekar_report):
        grid = pekar_report.profile.grid
        fake = _fake_report(pekar_report.profile, PEKAR, status="max_iter")
        with pytest.raises(InvalidParameterError):
            check_mountain_pass_consistency(fake)


class TestDecayBound:
    def test_ground_state_passes(self, pekar_report):
        res = check_radial_decay_bound(pekar_report.profile, 2.0)
        assert res.passed and "inapplicable" not in res.note

    def test_plateau_passes(self):
        grid = build_grid(3, 15.0, 512, scheme="graded")
        plateau = sample(grid, lambda r: 1.0 / (1.0 + np.exp(8.0 * (r - 2.0))))
        res = check_radial_decay_bound(plateau, 2.0)
        assert res.passed

    def test_increasing_profile_inapplicable(self):
        grid = build_grid(3, 15.0, 128)
        rising = sample(grid, lambda r: r)
        res = check_radial_decay_bound(rising, 2.0)
        assert res.passed
        assert "inapplicable" in res.note


class TestPositivityMonotonicity:
    def test_ground_state(self, pekar_report):
        assert check_positivity_monotonicity(pekar_report.profile).passed

    def test_talenti(self):
        grid = build_grid(3, 4.0, 512, scheme="graded")
        assert check_positivity_monotonicity(talenti(grid, 0.5)).passed

    def test_sign_changing_fails(self):
        grid = build_grid(3, 15.0, 128)
        wiggle = sample(grid, lambda r: np.cos(2 * r) * np.exp(-r))
        assert not check_positivity_monotonicity(wiggle).passed


class TestLevelWindow:
    def test_subcritical_positive_level_only(self, pekar_report):
        res = check_level_window(pekar_report)
        assert res.passed
        assert "subcritical" in res.note

    def test_near_critical_endpoint_inside_window(self, n4_continuation):
        sc = sharp_constants(4, 1.0)
        res = check_level_window(n4_continuation.reports[-1], sc)
        assert res.passed
        assert "upper-critical-p" in res.note
        assert 0 < res.measured <= res.bound

    def test_upper_corner_checked_as_upper_critical_p(self):
        grid = build_grid(3, 15.0, 128)
        u = sample(grid, lambda r: np.exp(-(r**2)))
        for p, q in ((5.0, 6.0), (4.995, 5.995)):
            rep = _fake_report(u, Params(N=3, alpha=2.0, p=p, q=q))
            assert check_level_window(rep).note == "case upper-critical-p"

    def test_negative_level_fails(self):
        grid = build_grid(3, 15.0, 128)
        u = sample(grid, lambda r: np.exp(-(r**2)))
        rep = _fake_report(u, PEKAR)
        object.__setattr__(rep, "J", -1.0)
        assert not check_level_window(rep).passed


class TestRunVerification:
    def test_full_suite_on_ground_state(self, pekar_report):
        report = run_verification(pekar_report)
        assert report.overall
        names = {c.name for c in report.checks}
        assert "weak_solution_implication" in names
        doc = report.to_dict()
        assert doc["overall"] is True
        assert all(len(c) == 5 for c in doc["checks"])

    def test_overall_is_conjunction(self, pekar_report):
        report = run_verification(pekar_report)
        assert report.overall == all(c.passed for c in report.checks)

    def test_unconverged_report_is_held_to_its_residual(self, pekar_report, tmp_path, capsys):
        # the profile meets the Pohozaev and Nehari bounds, but the report's
        # own residual says it is no weak solution
        fake = _fake_report(pekar_report.profile, PEKAR, status="max_iter", residual=1e-3)
        assert check_pohozaev_identity(fake.profile, PEKAR).passed
        report = run_verification(fake)
        assert not report.overall
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["weak_solution_implication"]
        _write_report(fake, tmp_path)
        assert main(["verify", "--report", str(tmp_path / "report.json")]) == 2
