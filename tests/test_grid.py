import csv
import io
import math

import numpy as np
import pytest

from choquard import (
    InvalidParameterError,
    RadialField,
    RadialGrid,
    build_grid,
    grad_sq,
    h1_inner,
    h1_solve,
    integrate,
    lp_norm,
    read_profile_csv,
    sample,
    write_profile_csv,
)
from choquard.grid import sphere_area


def l2(grid, f, g):
    return float(grid.sphere_area * (grid.volume_weights @ (f * g)))


class TestBuildGrid:
    def test_uniform_nodes(self):
        g = build_grid(3, 1.0, 16, gamma=1.0)
        assert np.allclose(g.nodes, np.arange(1, 17) / 16.0)

    def test_ball_volume(self):
        g = build_grid(3, 2.0, 64, gamma=1.0)
        one = sample(g, np.ones_like)
        assert integrate(one) == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-13)

    def test_sphere_area_formula(self):
        for n in (3, 4, 5, 6):
            g = build_grid(n, 1.0, 16)
            assert g.sphere_area == pytest.approx(
                2 * math.pi ** (n / 2) / math.gamma(n / 2), rel=1e-13
            )
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)

    @pytest.mark.parametrize(
        "args",
        [
            dict(dimension=2, rmax=1.0, num_nodes=32),
            dict(dimension=3, rmax=-1.0, num_nodes=32),
            dict(dimension=3, rmax=1.0, num_nodes=8),
            dict(dimension=3, rmax=1.0, num_nodes=32, gamma=0.0),
            dict(dimension=3, rmax=1.0, num_nodes=32, scheme="random"),
            # refused before anything is allocated
            dict(dimension=3, rmax=1.0, num_nodes=(1 << 22) + 1),
            dict(dimension=3, rmax=1.0, num_nodes=1 << 50),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(InvalidParameterError):
            build_grid(**args)

    @pytest.mark.parametrize(
        "dimension, nodes",
        [
            pytest.param(2, [0.5, 1.0], id="dimension-2"),
            pytest.param(3, [[0.5, 1.0]], id="nodes-2d"),
            pytest.param(3, [], id="nodes-empty"),
            pytest.param(3, [0.5, 0.5, 1.0], id="nodes-repeated"),
            pytest.param(3, [1.0, 0.5], id="nodes-decreasing"),
            pytest.param(3, [0.0, 1.0], id="node-at-origin"),
            pytest.param(3, [-0.5, 1.0], id="node-negative"),
        ],
    )
    def test_radial_grid_rejects_bad_nodes(self, dimension, nodes):
        with pytest.raises(InvalidParameterError):
            RadialGrid(dimension, np.array(nodes))

    def test_weights_positive_and_monotone_nodes(self):
        g = build_grid(5, 7.0, 200, scheme="graded", gamma=3.0)
        assert np.all(g.volume_weights > 0)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[-1] == g.rmax

    @pytest.mark.parametrize("m", [16, 1 << 22])
    def test_exponential_nodes(self, m):
        g = build_grid(3, 4.0, m, scheme="exponential")
        assert g.nodes[0] > 0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[-1] == g.rmax == 4.0
        # the spacing relative to r + r_0 is the same at every scale
        r0 = 4.0 / math.expm1(12.0)
        rel = np.diff(g.nodes) / (g.nodes[1:] + r0)
        assert np.allclose(rel, -math.expm1(-12.0 / m), rtol=1e-6)


class TestIntegrate:
    def test_zero(self):
        g = build_grid(3, 5.0, 64)
        assert integrate(sample(g, np.zeros_like)) == 0.0

    @pytest.mark.parametrize(
        "scheme, gamma",
        [
            pytest.param("graded", 1.0, id="uniform"),
            pytest.param("graded", 2.0, id="graded"),
            pytest.param("exponential", 2.0, id="exponential"),
        ],
    )
    @pytest.mark.parametrize("k", [0, 1])
    def test_polynomial_exactness(self, scheme, gamma, k):
        # moment weights integrate piecewise-linear profiles exactly
        g = build_grid(3, 2.0, 512, scheme=scheme, gamma=gamma)
        f = sample(g, lambda r: r**k)
        exact = g.sphere_area * g.rmax ** (k + 3) / (k + 3)
        assert integrate(f) == pytest.approx(exact, rel=1e-10)

    def test_gaussian(self):
        g = build_grid(3, 12.0, 4_000_000, gamma=1.0)
        val = integrate(sample(g, lambda r: np.exp(-(r**2))))
        assert abs(val - math.pi**1.5) < 1e-8

    def test_exponential(self):
        g = build_grid(3, 40.0, 4_000_000, gamma=1.0)
        val = integrate(sample(g, lambda r: np.exp(-r)))
        assert abs(val - 8 * math.pi) < 1e-8

    def test_second_order_convergence(self):
        errs = []
        for m in (512, 1024, 2048):
            g = build_grid(3, 12.0, m, scheme="graded")
            errs.append(abs(integrate(sample(g, lambda r: np.exp(-(r**2)))) - math.pi**1.5))
        assert errs[1] < 0.35 * errs[0]
        assert errs[2] < 0.35 * errs[1]


class TestLpNorm:
    def test_zero(self):
        g = build_grid(3, 5.0, 64)
        assert lp_norm(sample(g, np.zeros_like), 2.0) == 0.0

    def test_homogeneity(self, rng):
        g = build_grid(4, 10.0, 128)
        vals = rng.standard_normal(g.node_count)
        f = RadialField(g, vals)
        cf = RadialField(g, -3.7 * vals)
        for t in (1.0, 2.0, 3.5):
            assert lp_norm(cf, t) == pytest.approx(3.7 * lp_norm(f, t), rel=1e-13)

    def test_rejects_t_below_one(self):
        g = build_grid(3, 5.0, 64)
        with pytest.raises(InvalidParameterError):
            lp_norm(sample(g, np.ones_like), 0.5)

    def test_talenti_sobolev_quotient(self):
        # the full extremal attains S; truncation tail ~ 1/rmax
        from oracles import gamma_sobolev_constant

        g = build_grid(3, 12000.0, 400_000, scheme="graded", gamma=3.0)
        u = sample(g, lambda r: (3.0**0.25) / np.sqrt(1.0 + r**2))
        quotient = grad_sq(g, u.values) / lp_norm(u, 6.0) ** 2
        assert quotient == pytest.approx(gamma_sobolev_constant(3), rel=1e-3)


class TestGradSq:
    def test_zero_field(self):
        g = build_grid(3, 5.0, 64)
        assert grad_sq(g, np.zeros(g.node_count)) == 0.0

    def test_positive_for_constant(self):
        # Dirichlet tail: even a constant field has positive energy
        g = build_grid(3, 5.0, 64)
        assert grad_sq(g, np.ones(g.node_count)) > 0

    def test_zero_only_for_zero(self, rng):
        g = build_grid(3, 5.0, 64)
        for _ in range(20):
            vals = rng.standard_normal(g.node_count)
            if np.any(vals != 0):
                assert grad_sq(g, vals) > 0

    def test_gaussian_value(self):
        # int |grad e^{-r^2}|^2 = 4 int r^2 e^{-2r^2} = 3 (pi/2)^{1/2} pi ... closed form
        g = build_grid(3, 12.0, 100_000, scheme="graded")
        val = grad_sq(g, np.exp(-(g.nodes**2)))
        exact = 4 * math.pi * 4 * (3.0 / 16.0) * math.sqrt(math.pi / 8.0)
        assert val == pytest.approx(exact, rel=1e-6)

    def test_dilation_law(self):
        from choquard import dilate

        g = build_grid(4, 20.0, 4096, scheme="graded")
        u = np.exp(-(g.nodes**2) / 2.0)
        base = grad_sq(g, u)
        for tau in (0.7, 1.3):
            assert grad_sq(g, dilate(g, u, tau)) == pytest.approx(
                tau ** (g.dimension - 2) * base, rel=2e-3
            )


class TestH1Solve:
    def test_zero(self):
        g = build_grid(3, 10.0, 128)
        w = h1_solve(g, np.zeros(g.node_count))
        assert np.all(w == 0.0)

    def test_rejects_non_finite_rhs(self):
        g = build_grid(3, 10.0, 128)
        rhs = np.ones(g.node_count)
        rhs[5] = np.inf
        with pytest.raises(InvalidParameterError):
            h1_solve(g, rhs)

    @pytest.mark.parametrize("dimension", [3, 5])
    def test_manufactured_solution(self, dimension):
        n = dimension
        errs = []
        for m in (512, 1024, 2048):
            g = build_grid(n, 12.0, m, scheme="graded")
            r = g.nodes
            w = h1_solve(g, (1.0 + 2 * n - 4 * r**2) * np.exp(-(r**2)))
            errs.append(np.max(np.abs(w - np.exp(-(r**2)))))
        assert errs[0] < 5e-4
        assert errs[1] < 0.35 * errs[0]
        assert errs[2] < 0.35 * errs[1]

    def test_self_adjoint(self, rng):
        g = build_grid(3, 10.0, 512, scheme="graded")
        a = rng.standard_normal(g.node_count)
        b = rng.standard_normal(g.node_count)
        assert abs(l2(g, h1_solve(g, a), b) - l2(g, a, h1_solve(g, b))) < 1e-10

    def test_positive_semidefinite_inverse(self, rng):
        g = build_grid(3, 10.0, 256)
        for _ in range(10):
            f = rng.standard_normal(g.node_count)
            assert l2(g, h1_solve(g, f), f) >= 0

    def test_h1_inner_matches_grad_plus_mass(self, rng):
        g = build_grid(4, 8.0, 256)
        f = rng.standard_normal(g.node_count)
        assert h1_inner(g, f, f) == pytest.approx(grad_sq(g, f) + l2(g, f, f), rel=1e-12)


class TestFieldIO:
    def test_profile_roundtrip(self, tmp_path, rng):
        g = build_grid(3, 5.0, 64)
        f = RadialField(g, rng.standard_normal(g.node_count))
        path = tmp_path / "profile.csv"
        write_profile_csv(f, path)
        assert path.read_text().splitlines()[0] == "r,u"
        r, u = read_profile_csv(path)
        assert np.array_equal(r, g.nodes)
        assert np.array_equal(u, f.values)

    def test_profile_bytes_match_csv_writer(self, tmp_path, rng):
        g = build_grid(3, 5.0, 256)
        f = RadialField(g, rng.standard_normal(g.node_count) * 10.0 ** rng.uniform(-300, 300, 256))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["r", "u"])
        for r, u in zip(g.nodes, f.values):
            writer.writerow([repr(float(r)), repr(float(u))])
        path = tmp_path / "profile.csv"
        write_profile_csv(f, path)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_profile_bytes_across_meshes(self, tmp_path, rng):
        # more distinct meshes than the writer caches, written in alternation;
        # the values cross repr's switches of notation and its signed zero
        meshes = [build_grid(3, 5.0 + k, 64, scheme=s) for k in range(3)
                  for s in ("graded", "exponential")]
        special = [-0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e15, -1e16, 0.1]
        path = tmp_path / "profile.csv"
        for g in meshes * 2:
            values = rng.standard_normal(g.node_count)
            values[: len(special)] = special
            write_profile_csv(RadialField(g, values), path)
            nodes, values = g.nodes.tolist(), values.tolist()
            oracle = "r,u\r\n" + "".join(map("{!r},{!r}\r\n".format, nodes, values))
            assert path.read_bytes() == oracle.encode()

    @pytest.mark.parametrize(
        "text",
        [
            "x,y,z\r\n1.0,2.0,3.0\r\n2.0,3.0,4.0\r\n",
            "r,u,v\r\n1.0,2.0,3.0\r\n",
            "r,u\r\n1.0,2.0,3.0\r\n2.0,3.0,4.0\r\n",
            "r,u\r\n1.0,2.0\r\n2.0,3.0,4.0\r\n",
            "r,u\r\n1.0\r\n2.0\r\n",
            "1.0,2.0\r\n2.0,3.0\r\n",
            "",
        ],
        ids=["three-columns", "three-names", "rows-of-three", "ragged", "one-column",
             "no-header", "empty"],
    )
    def test_profile_reader_refuses_other_files(self, tmp_path, text):
        path = tmp_path / "profile.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError):
            read_profile_csv(path)

    def test_field_validation(self):
        g = build_grid(3, 5.0, 64)
        with pytest.raises(InvalidParameterError):
            RadialField(g, np.ones(10))
        bad = np.ones(g.node_count)
        bad[3] = np.nan
        with pytest.raises(InvalidParameterError):
            RadialField(g, bad)
