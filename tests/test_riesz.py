import math

import mpmath
import numpy as np
import pytest

from choquard import (
    InvalidParameterError,
    build_grid,
    hls_bilinear,
    hls_constant,
    angular_kernel,
    kernel_for,
    lp_norm,
    riesz_normalization,
    sample,
)
from choquard import riesz
from choquard.extremals import pekar_extremal, talenti
from choquard.functionals import Params, breakdown
from choquard.grid import RadialGrid, read_profile_csv, write_profile_csv

import oracles
from oracles import (
    cell_average_mp,
    dense_kernel_matrix,
    gamma_hls_constant,
    random_positive_field,
    singular_gauss_rule_mp,
    theta_kernel_oracle,
)


def materialise(operator, m: int) -> np.ndarray:
    """The operator's matrix, column by column."""
    return np.column_stack([operator.apply(e) for e in np.eye(m)])


class TestNormalization:
    def test_alpha2_n3(self):
        assert riesz_normalization(3, 2.0) == pytest.approx(1.0 / (4 * math.pi), abs=1e-12)

    def test_alpha2_n5(self):
        assert riesz_normalization(5, 2.0) == pytest.approx(1.0 / (8 * math.pi**2), rel=1e-13)

    @pytest.mark.parametrize("dimension", [3, 4, 5])
    def test_positive_over_sweep(self, dimension):
        for alpha in np.arange(0.5, dimension, 0.5):
            assert riesz_normalization(dimension, float(alpha)) > 0

    @pytest.mark.parametrize("dimension, alpha", [(3, 2.0), (4, 1.0), (3, 0.5)])
    def test_computed_once_per_kernel(self, monkeypatch, dimension, alpha):
        calls = []
        normalization = riesz.riesz_normalization

        def counted(*args):
            calls.append(args)
            return normalization(*args)

        monkeypatch.setattr(riesz, "riesz_normalization", counted)
        grid = build_grid(dimension, 9.0, 96)
        kern = kernel_for(grid, alpha)
        values = np.exp(-grid.nodes**2)
        products = [kern.convolve(values) for _ in range(3)]
        assert len(calls) <= 1
        assert kern.normalization == normalization(dimension, alpha)
        expected = normalization(dimension, alpha) * kern.reduced_kernel.apply(
            values * grid.volume_weights
        )
        assert all(np.array_equal(product, expected) for product in products)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 3.0, 5.0])
    def test_range_check(self, alpha):
        with pytest.raises(InvalidParameterError):
            riesz_normalization(3, alpha)


class TestHlsConstant:
    def test_n3_alpha2_closed_form(self):
        expected = (4.0 / 3.0) * (math.sqrt(math.pi) / 4.0) ** (-2.0 / 3.0)
        assert hls_constant(3, 2.0) == pytest.approx(expected, rel=1e-13)
        assert hls_constant(3, 2.0) == pytest.approx(2.2941, rel=1e-4)

    def test_matches_oracle(self):
        for (n, alpha) in [(3, 1.0), (4, 1.0), (5, 2.5)]:
            assert hls_constant(n, alpha) == pytest.approx(
                gamma_hls_constant(n, alpha), rel=1e-13
            )

    def test_positive_sweep(self):
        for alpha in np.arange(0.5, 4.0, 0.5):
            assert hls_constant(4, float(alpha)) > 0

    def test_near_extremality(self):
        # the profile (1+r^2)^{-(N+alpha)/2} attains HLS equality
        for (n, alpha) in [(3, 2.0), (4, 1.0)]:
            g = build_grid(n, 60.0, 1024, scheme="graded")
            f = sample(g, lambda r: (1.0 + r**2) ** (-(n + alpha) / 2.0))
            t = 2.0 * n / (n + alpha)
            ratio = hls_bilinear(f, f, alpha) / lp_norm(f, t) ** 2
            assert ratio >= 0.98 * hls_constant(n, alpha)
            assert ratio <= hls_constant(n, alpha) * (1 + 1e-3)


class TestAngularKernel:
    def test_n3_alpha2_closed_form(self):
        for (r, s) in [(1.0, 2.0), (0.3, 0.1), (5.0, 5.5)]:
            assert angular_kernel(3, 2.0, r, s) == pytest.approx(
                4 * math.pi / max(r, s), rel=1e-13
            )

    def test_symmetry(self):
        assert angular_kernel(4, 1.5, 1.0, 2.0) == pytest.approx(
            angular_kernel(4, 1.5, 2.0, 1.0), rel=1e-14
        )

    def test_matches_theta_quadrature(self):
        val = angular_kernel(5, 2.0, 1.0, 2.0)
        assert val == pytest.approx(theta_kernel_oracle(5, 2.0, 1.0, 2.0), abs=1e-10)

    @pytest.mark.parametrize(
        "n,alpha,r,s",
        [(4, 1.0, 1.0, 1.5), (4, 2.5, 0.5, 0.6), (6, 3.0, 2.0, 2.2), (5, 0.8, 1.0, 1.02),
         (3, 0.5, 1.0, 2.0), (3, 2.7, 0.4, 1.1)],
    )
    def test_generic_dimensions_against_oracle(self, n, alpha, r, s):
        assert angular_kernel(n, alpha, r, s) == pytest.approx(
            theta_kernel_oracle(n, alpha, r, s), rel=1e-9
        )

    def test_theta_oracle_against_mpmath(self):
        # the oracle's hardest case: r near s puts a narrow peak at theta = 0
        n, alpha, r, s = 5, 0.8, 1.0, 1.02
        with mpmath.workdps(40):
            x, y = mpmath.mpf(r), mpmath.mpf(s)
            power = (mpmath.mpf(alpha) - n) / 2

            def integrand(t):
                return mpmath.sin(t) ** (n - 2) * (x * x + y * y - 2 * x * y * mpmath.cos(t)) ** power

            cuts = [0] + [mpmath.pi / 2**k for k in range(40, -1, -1)]
            surf = 2 * mpmath.pi ** (mpmath.mpf(n - 1) / 2) / mpmath.gamma(mpmath.mpf(n - 1) / 2)
            exact = float(surf * mpmath.quad(integrand, cuts))
        assert theta_kernel_oracle(n, alpha, r, s) == pytest.approx(exact, rel=1e-13)

    def test_n3_log_branch(self):
        # alpha = 1 in dimension 3 uses the logarithmic limit
        val = angular_kernel(3, 1.0, 1.0, 2.0)
        assert val == pytest.approx((2 * math.pi / 2.0) * math.log(3.0), rel=1e-12)
        assert val == pytest.approx(theta_kernel_oracle(3, 1.0, 1.0, 2.0), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("r,s", [(1e-6, 20.0), (1e-9, 1.0), (20.0, 1e-6), (1.0, 1.0 + 1e-9)])
    def test_n3_full_precision_far_and_near_diagonal(self, alpha, r, s):
        # the power difference (r+s)^{a-1} - |r-s|^{a-1} cancels for r << s
        with mpmath.workdps(40):
            x, y = mpmath.mpf(r), mpmath.mpf(s)
            if alpha == 1.0:
                diff = mpmath.log((x + y) / abs(x - y))
            else:
                a = mpmath.mpf(alpha) - 1
                diff = ((x + y) ** a - abs(x - y) ** a) / a
            exact = float(2 * mpmath.pi / (x * y) * diff)
        assert angular_kernel(3, alpha, r, s) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize(
        "n,alpha",
        [(4, 2.5), (5, 1.5), (4, 1.1), (4, 0.89), (6, 2.2), (4, 0.3), (6, 5.5), (4, 1.0),
         (4, 1.02), (4, 0.9001), (4, 3.0), (6, 3.0), (6, 3.04)],
    )
    def test_connection_split_against_mpmath(self, n, alpha, rng):
        # (alpha - 1)/2 at 0.75, 0.25, 0.05, -0.055, 0.6, -0.35, 2.25, on the
        # integers 0 and 1 and within 0.05 of them: xi >= 3/4 goes through
        # the connection series, the logarithmic one at an integer, and the
        # rest through hyp2f1
        r = rng.uniform(0.01, 10.0, 40)
        one_minus_xi = np.concatenate((10.0 ** rng.uniform(-14, np.log10(0.25), 30),
                                       rng.uniform(0.25, 1.0, 10)))
        q = np.sqrt(one_minus_xi)
        s = r * (1.0 - q) / (1.0 + q)  # ((r - s)/(r + s))^2 = 1 - xi
        got = angular_kernel(n, alpha, r, s)
        with mpmath.workdps(40):
            half = mpmath.mpf(1) / 2
            c_n = (2 ** (n - 1) * mpmath.pi ** ((n - 1) * half)
                   * mpmath.gamma((n - 1) * half) / mpmath.gamma(n - 1))
            for ri, si, value in zip(r, s, got):
                x, y = mpmath.mpf(ri), mpmath.mpf(si)
                xi = 4 * x * y / (x + y) ** 2
                exact = c_n * (x + y) ** (alpha - n) * mpmath.hyp2f1(
                    (n - alpha) * half, (n - 1) * half, n - 1, xi
                )
                assert value == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("n,alpha", [(4, 2.5), (4, 2.9), (4, 3.0), (5, 1.5), (6, 5.5)])
    def test_finite_on_the_diagonal_above_one(self, n, alpha):
        # at xi = 1, 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
        with mpmath.workdps(30):
            a, b, c = (n - mpmath.mpf(alpha)) / 2, mpmath.mpf(n - 1) / 2, n - 1
            c_n = 2 ** (n - 1) * mpmath.pi**b * mpmath.gamma(b) / mpmath.gamma(c)
            gauss = mpmath.gamma(c) * mpmath.gamma(c - a - b) / mpmath.gamma(c - a)
            exact = float(c_n * 2 ** (alpha - n) * gauss / mpmath.gamma(c - b))
        assert angular_kernel(n, alpha, 1.0, 1.0) == pytest.approx(exact, rel=1e-13)

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(InvalidParameterError):
            angular_kernel(3, 2.0, -1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            angular_kernel(4, 1.0, 1.0, 0.0)


class TestKernelMatrix:
    def test_symmetry_and_positivity(self):
        g = build_grid(4, 10.0, 128, scheme="graded")
        k = materialise(kernel_for(g, 1.5).reduced_kernel, g.node_count)
        assert np.all(np.isfinite(k))
        assert np.all(k > 0)
        assert np.all(np.abs(k - k.T) <= 1e-12 * k)

    def test_cache_reuse(self):
        g = build_grid(3, 10.0, 64)
        assert kernel_for(g, 2.0) is kernel_for(g, 2.0)

    def test_equal_meshes_share_one_kernel(self):
        a, b = build_grid(3, 10.0, 64), build_grid(3, 10.0, 64)
        assert a is not b
        assert kernel_for(a, 2.0) is kernel_for(b, 2.0)

    def test_mesh_read_back_from_profile_shares_kernel(self, tmp_path):
        g = build_grid(3, 30.0, 256)
        path = tmp_path / "profile.csv"
        write_profile_csv(sample(g, lambda r: np.exp(-(r**2))), path)
        nodes, _ = read_profile_csv(path)
        assert kernel_for(RadialGrid(3, nodes), 2.0) is kernel_for(g, 2.0)

    def test_other_mesh_or_alpha_gets_another_kernel(self):
        g = build_grid(3, 10.0, 64)
        assert kernel_for(build_grid(3, 10.0, 65), 2.0) is not kernel_for(g, 2.0)
        assert kernel_for(build_grid(3, 11.0, 64), 2.0) is not kernel_for(g, 2.0)
        assert kernel_for(g, 1.5) is not kernel_for(g, 2.0)

    def test_oversized_mesh_refused_before_building(self, monkeypatch):
        def refuse(grid, alpha):
            raise AssertionError("kernel operator built")

        monkeypatch.setattr(riesz, "_hodlr_operator", refuse)
        with pytest.raises(InvalidParameterError, match="8193 nodes"):
            kernel_for(build_grid(3, 30.0, 8193), 1.5)

    def test_node_limit_admits_8192(self, monkeypatch):
        stand_in = np.ones((1, 1))
        monkeypatch.setattr(riesz, "_kernel_cache", {})
        monkeypatch.setattr(riesz, "_hodlr_operator", lambda grid, alpha: stand_in)
        assert kernel_for(build_grid(3, 30.0, 8192), 1.5).reduced_kernel is stand_in

    def test_band_blocks_match_one_block(self, monkeypatch):
        g = build_grid(3, 30.0, 1000)
        whole = riesz._band_averages(g, 2.0)
        monkeypatch.setattr(riesz, "_BAND_BLOCK_ROWS", 100)
        blocked = riesz._band_averages(g, 2.0)
        assert np.max(np.abs(blocked - whole)) <= 1e-15 * np.max(np.abs(whole))


class TestBandAverages:
    # The diagonal cell takes one rule for every alpha, the logarithmic
    # weight where (alpha - 1)/2 is an integer (3, 1.0), (4, 1.0), (4, 3.0),
    # (6, 3.0) and the same weight family within 0.05 of one (4, 1.02),
    # (4, 0.9).  Measured: diagonal cells within 1.3e-15 of the oracle, and
    # every entry within 1e-14.
    @pytest.mark.parametrize(
        "n,alpha,diagonal_rel",
        [(3, 0.5, 1e-12), (3, 1.0, 1e-12), (3, 1.5, 1e-12), (4, 1.0, 1e-12), (4, 2.5, 1e-12),
         (5, 1.5, 1e-12), (4, 1.02, 1e-12), (4, 0.9, 1e-12), (4, 3.0, 1e-12), (6, 3.0, 1e-12)],
    )
    def test_matches_mpmath_cell_average(self, n, alpha, diagonal_rel):
        g = build_grid(n, 20.0, 512, scheme="graded")
        r = g.nodes
        m = r.size
        lo = np.concatenate(([0.5 * r[0]], 0.5 * (r[:-1] + r[1:])))
        hi = np.concatenate((lo[1:], [r[-1]]))
        band = riesz._band_averages(g, alpha)
        for i in (0, 1, 5, m // 2, m - 1):
            for row, off in enumerate(range(-2, 3)):
                j = i + off
                if not 0 <= j < m:
                    continue
                exact = cell_average_mp(n, alpha, r[i], lo[j], hi[j])
                bound = diagonal_rel if off == 0 else 1e-12
                assert band[row, i] == pytest.approx(exact, rel=bound), (i, off)

    @pytest.mark.parametrize(
        "alpha,limit",
        [(1.0, 300_000), (2.5, 300_000), (0.9, 300_000), (1.02, 300_000), (3.0, 300_000)],
    )
    def test_kernel_points_per_band(self, alpha, limit, monkeypatch):
        # N=4, M=2048: the 4 rows beside the diagonal take 24 points per
        # cell and the diagonal 48, at every alpha.  Points angular_kernel
        # passes on to the connection series count once.
        points = []
        depth = [0]
        for name in ("angular_kernel", "_connection_parts"):
            original = getattr(riesz, name)

            def counted(*args, original=original):
                depth[0] += 1
                try:
                    values = original(*args)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    points.append(np.broadcast(*args[2:]).size)
                return values

            monkeypatch.setattr(riesz, name, counted)
        riesz._band_averages(build_grid(4, 12.0, 2048, scheme="graded"), alpha)
        assert sum(points) <= limit

    @pytest.mark.parametrize("n", [3, 4])
    def test_continuous_across_integer(self, n):
        # s = (alpha - 1)/2 = +-5e-10 against the logarithmic limit at s = 0.
        # Each side moves by the kernel's own alpha-derivative, up to 9e-9
        # here (k carries (r+t)^{alpha-N}); a jump at the integer would
        # also move their mean, which stays within 1e-10 of the limit.
        g = build_grid(n, 12.0, 256, scheme="graded")
        at_integer = riesz._band_averages(g, 1.0)
        below = riesz._band_averages(g, 1.0 - 1e-9)
        above = riesz._band_averages(g, 1.0 + 1e-9)
        for side in (below, above):
            assert np.all(np.abs(side - at_integer) <= 2e-8 * at_integer)
        assert np.all(np.abs(0.5 * (below + above) - at_integer) <= 1e-10 * at_integer)


class TestSingularRule:
    # (alpha - 1)/2 on the integers 0 and 1, 5e-10 from 0, 0.05 from 0 and
    # from 1/2, and alpha down to just above the 2^-54 refusal
    @pytest.mark.parametrize(
        "alpha", [1.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.9, 0.5, 2.0, 2.01, 2.5, 3.0, 5.9, 1e-8, 6e-17]
    )
    def test_matches_mpmath_gauss_rule(self, alpha):
        nodes, weights = riesz._singular_rule(alpha)
        exact_nodes, exact_weights = singular_gauss_rule_mp(alpha, nodes.size)
        order = np.argsort(exact_nodes)
        assert np.max(np.abs(nodes / exact_nodes[order] - 1.0)) <= 1e-13
        assert np.max(np.abs(weights / exact_weights[order] - 1.0)) <= 1e-13


class TestNewtonianOperator:
    def test_large_mesh_builds_without_dense_matrix(self, monkeypatch):
        def refuse(grid, alpha):
            raise AssertionError("kernel operator built")

        monkeypatch.setattr(riesz, "_kernel_cache", {})
        monkeypatch.setattr(riesz, "_hodlr_operator", refuse)
        g = build_grid(3, 30.0, 16384)
        kernel = kernel_for(g, 2.0)
        assert kernel.reduced_kernel.nbytes <= 48 * g.node_count
        assert np.all(np.isfinite(kernel.convolve(np.exp(-g.nodes))))

    @pytest.mark.parametrize("m", [256, 1024])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_dense_matrix(self, n, m, rng):
        g = build_grid(n, 30.0, m)
        dense = dense_kernel_matrix(g, 2.0)
        kernel = kernel_for(g, 2.0)
        norm = riesz_normalization(n, 2.0)
        for x in (rng.random(m), rng.standard_normal(m)):
            expected = norm * (dense @ (x * g.volume_weights))
            got = kernel.convolve(x)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [3, 4])
    def test_entries_on_exponential_mesh(self, n):
        g = build_grid(n, 4.0, 1000, scheme="exponential")
        dense = dense_kernel_matrix(g, 2.0)
        got = materialise(kernel_for(g, 2.0).reduced_kernel, g.node_count)
        assert np.max(np.abs(got - dense) / dense) <= 1e-13

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_closed_form_matches_hypergeometric(self, n):
        half = mpmath.mpf(1) / 2
        with mpmath.workdps(30):
            c_n = (
                2 ** (n - 1) * mpmath.pi ** ((n - 1) * half)
                * mpmath.gamma((n - 1) * half) / mpmath.gamma(n - 1)
            )
            for (r, s) in [(1.0, 2.0), (0.3, 0.1), (5.0, 5.5), (2.0, 2.001), (0.05, 20.0)]:
                r_mp, s_mp = mpmath.mpf(r), mpmath.mpf(s)
                xi = 4 * r_mp * s_mp / (r_mp + s_mp) ** 2
                exact = c_n * (r_mp + s_mp) ** (2 - n) * mpmath.hyp2f1(
                    (n - 2) * half, (n - 1) * half, n - 1, xi
                )
                assert angular_kernel(n, 2.0, r, s) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bilinear_matches_dense(self, n, rng):
        g = build_grid(n, 20.0, 512, scheme="graded")
        u, v = random_positive_field(g, rng), random_positive_field(g, rng)
        dense = dense_kernel_matrix(g, 2.0)
        uw, vw = u.values * g.volume_weights, v.values * g.volume_weights
        expected = g.sphere_area * (uw @ dense @ vw)
        assert hls_bilinear(u, v, 2.0) == pytest.approx(expected, rel=1e-13)


class TestHodlrOperator:
    @pytest.mark.parametrize("m", [63, 777, 1000, 2048])
    @pytest.mark.parametrize("n,alpha", [(4, 1.0), (3, 1.5), (3, 0.5), (3, 2.9), (3, 0.1)])
    def test_matches_dense_oracle(self, n, alpha, m, rng):
        # the kernel spans many orders of magnitude on a graded mesh, so
        # every bound is relative to each entry or node, never to a maximum
        g = build_grid(n, 20.0, m, scheme="graded")
        dense = dense_kernel_matrix(g, alpha)
        kernel = kernel_for(g, alpha)
        got = materialise(kernel.reduced_kernel, m)
        assert np.max(np.abs(got - dense) / dense) <= 1e-10

        norm = riesz_normalization(n, alpha)
        gauss = np.exp(-(g.nodes**2))
        inputs = (gauss, gauss**2.4, talenti(g, 0.01).values, rng.random(m))
        for x in inputs:
            expected = norm * (dense @ (x * g.volume_weights))
            assert np.max(np.abs(kernel.convolve(x) - expected) / expected) <= 1e-10

        u, v = gauss, rng.random(m)
        expected = g.sphere_area * ((u * g.volume_weights) @ dense @ (v * g.volume_weights))
        assert kernel.bilinear(u, v) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,alpha", [(4, 2.5), (5, 1.5)])
    def test_matches_dense_oracle_through_connection_split(self, n, alpha):
        # (alpha - 1)/2 away from an integer: entries near the diagonal come
        # from P + |r-s|^{alpha-1} Q, the rest from hyp2f1
        g = build_grid(n, 20.0, 777, scheme="graded")
        dense = dense_kernel_matrix(g, alpha)
        got = materialise(kernel_for(g, alpha).reduced_kernel, g.node_count)
        assert np.max(np.abs(got - dense) / dense) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 0.5])
    def test_entries_on_geometric_mesh(self, alpha):
        # columns of one block differ by up to 10^11 here; compressing them
        # unscaled costs small columns their relative accuracy
        for g in (
            RadialGrid(3, np.geomspace(1e-6, 20.0, 1000)),
            build_grid(3, 20.0, 1000, scheme="exponential"),
        ):
            dense = dense_kernel_matrix(g, alpha)
            got = materialise(kernel_for(g, alpha).reduced_kernel, g.node_count)
            assert np.max(np.abs(got - dense) / dense) <= 1e-10

    def test_large_mesh_builds_without_dense_matrix(self, monkeypatch):
        def refuse(grid, alpha):
            raise AssertionError("dense kernel matrix built")

        monkeypatch.setattr(riesz, "_kernel_cache", {})
        monkeypatch.setattr(oracles, "dense_kernel_matrix", refuse)
        g = build_grid(3, 30.0, 8192)
        kernel = kernel_for(g, 1.5)
        assert kernel.reduced_kernel.nbytes <= 8 * g.node_count**2 / 20
        assert np.all(np.isfinite(kernel.convolve(np.exp(-g.nodes))))

    @pytest.mark.parametrize(
        "site,bad",
        [("leaf", np.nan), ("cross", -1.0), ("band", np.inf)],
    )
    def test_bad_kernel_values_refused(self, site, bad, monkeypatch):
        # each site is a kernel value only one part of the build samples:
        # a pair inside one leaf, the first row of the top-level
        # low-rank block, and the quadrature points of one band cell
        g = build_grid(3, 10.0, 256, scheme="graded")
        r = g.nodes
        original = riesz.angular_kernel

        def poisoned(dimension, alpha, ri, si):
            values = np.array(original(dimension, alpha, ri, si), dtype=float)
            ri, si = np.broadcast_arrays(ri, si)
            if site == "leaf":
                hit = (ri == r[10]) & (si == r[20])
            elif site == "cross":
                hit = (ri == r[0]) & (si == r[-1])
            else:
                hit = (ri == r[100]) & ~np.isin(si, r)
            values[hit] = bad
            return values

        monkeypatch.setattr(riesz, "_kernel_cache", {})
        monkeypatch.setattr(riesz, "angular_kernel", poisoned)
        with pytest.raises(InvalidParameterError, match="non-finite or non-positive"):
            kernel_for(g, 1.5)


class TestRieszApply:
    def test_zero(self):
        g = build_grid(3, 10.0, 128)
        out = kernel_for(g, 2.0).convolve(np.zeros(g.node_count))
        assert np.all(out == 0.0)

    def test_newtonian_potential(self):
        g = build_grid(3, 20.0, 1024, scheme="graded")
        edges = np.concatenate(([0.0], 0.5 * (g.nodes[:-1] + g.nodes[1:]), [g.rmax]))
        frac = np.clip((1.0 - edges[:-1]) / (edges[1:] - edges[:-1]), 0.0, 1.0)
        pot = kernel_for(g, 2.0).convolve(frac)
        exact = np.where(g.nodes <= 1, (3 - g.nodes**2) / 6.0, 1.0 / (3.0 * g.nodes))
        assert np.max(np.abs(pot - exact) / exact) < 2e-4

    def test_normalized_extremal_integral(self):
        g = build_grid(3, 30.0, 512, scheme="graded")
        v = pekar_extremal(g, 1.0, 2.0)
        params = Params(N=3, alpha=2.0, p=(3 + 2) / 3, q=3.0)
        assert breakdown(v, params).nonlocal_term == pytest.approx(1.0, abs=1e-8)

    def test_newtonian_consistency(self, rng):
        # -Lap (I_2 * f) = f for smooth compactly supported f, to scheme
        # order.  The 1/r potential does not vanish at rmax, so the
        # Dirichlet truncation injects a boundary error that is screened
        # exponentially by the +1 term; compare in the interior.
        from choquard.grid import h1_solve

        errs = []
        for m in (512, 1024):
            g = build_grid(3, 15.0, m, scheme="graded")
            f = sample(g, lambda r: np.exp(-(r**2)) * r**2)
            pot = kernel_for(g, 2.0).convolve(f.values)
            # apply the discrete -Lap + 1 via the cached operator: solve is
            # its inverse, so compare pot against h1_solve(f + pot)
            recon = h1_solve(g, f.values + pot)
            interior = g.nodes <= 8.0
            errs.append(np.max(np.abs(recon - pot)[interior]))
        assert errs[0] < 5e-4
        assert errs[1] < 0.5 * errs[0]


class TestHlsBilinear:
    def test_equal_meshes_built_apart(self):
        g1, g2 = build_grid(3, 10.0, 64), build_grid(3, 10.0, 64)
        u1, v1 = sample(g1, lambda r: np.exp(-r)), sample(g1, lambda r: np.exp(-(r**2)))
        v2 = sample(g2, lambda r: np.exp(-(r**2)))
        assert hls_bilinear(u1, v2, 2.0) == hls_bilinear(u1, v1, 2.0)
        with pytest.raises(InvalidParameterError):
            hls_bilinear(u1, sample(build_grid(3, 10.0, 65), np.exp), 2.0)

    def test_zero(self):
        g = build_grid(3, 10.0, 128)
        z = sample(g, np.zeros_like)
        u = sample(g, lambda r: np.exp(-r))
        assert hls_bilinear(z, u, 2.0) == 0.0

    def test_symmetry(self, rng):
        g = build_grid(4, 15.0, 256, scheme="graded")
        u = random_positive_field(g, rng)
        v = random_positive_field(g, rng)
        b1 = hls_bilinear(u, v, 1.0)
        b2 = hls_bilinear(v, u, 1.0)
        assert abs(b1 - b2) <= 1e-10 * max(abs(b1), 1.0)

    def test_self_adjointness_of_potential(self, rng):
        g = build_grid(3, 15.0, 256, scheme="graded")
        vw = g.sphere_area * g.volume_weights
        for _ in range(5):
            u = random_positive_field(g, rng)
            v = random_positive_field(g, rng)
            lhs = float(vw @ (kernel_for(g, 2.0).convolve(u.values) * v.values))
            rhs = float(vw @ (kernel_for(g, 2.0).convolve(v.values) * u.values))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("n,alpha", [(3, 2.0), (4, 1.0)])
    def test_hls_bound_random_fields(self, n, alpha, rng):
        g = build_grid(n, 20.0, 512, scheme="graded")
        c = hls_constant(n, alpha)
        t = 2.0 * n / (n + alpha)
        for _ in range(50):
            u = random_positive_field(g, rng)
            v = random_positive_field(g, rng)
            ratio = hls_bilinear(u, v, alpha) / (lp_norm(u, t) * lp_norm(v, t))
            assert ratio <= c * (1 + 1e-3)

    def test_nonlocal_positivity(self, rng):
        g = build_grid(3, 15.0, 256, scheme="graded")
        params = Params(N=3, alpha=2.0, p=2.0, q=3.0)
        z = breakdown(sample(g, np.zeros_like), params)
        assert z.nonlocal_term == 0.0
        for _ in range(5):
            u = random_positive_field(g, rng)
            assert breakdown(u, params).nonlocal_term > 0
