import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natmap import geometry as geo
from natmap import measures as ms
from conftest import random_ball_point, visual_measure
import _oracles as oracles


def integral(m, f):
    return float(np.dot(m.weights, f(m.points)))


class TestSphereQuadrature:
    def test_circle_rule_exactness(self):
        pts, w = ms.sphere_quadrature(2, 16)
        # cos^deg integrates to the central binomial value, sin-odd to zero
        for deg in (2, 6, 14):
            exact = oracles.sphere_monomial_expectation(2, [deg // 2, 0])
            assert w @ pts[:, 0] ** deg == pytest.approx(exact, abs=1e-10)
        assert abs(w @ pts[:, 1] ** 7) < 1e-10

    def test_product_rule_exactness_s2(self, fam2000):
        pts, w = fam2000.quadrature()
        for expo in ([1, 0, 1], [0, 3, 0], [2, 2, 1], [4, 3, 3]):
            val = w @ np.prod(pts ** (2 * np.array(expo)), axis=1)
            assert val == pytest.approx(
                oracles.sphere_monomial_expectation(3, expo), abs=1e-10)

    def test_product_rule_exactness_s3(self):
        pts, w = ms.sphere_quadrature(4, 200)
        for expo in ([1, 0, 0, 0], [1, 1, 0, 0], [0, 2, 0, 0]):
            val = w @ np.prod(pts ** (2 * np.array(expo)), axis=1)
            assert val == pytest.approx(
                oracles.sphere_monomial_expectation(4, expo), abs=1e-10)

    def test_product_rule_cap_raises(self):
        # order 81 is the last product rule: 81 x 162 = 13122 nodes on S^2
        assert ms.sphere_quadrature(3, 13122)[0].shape == (13122, 3)
        with pytest.raises(ValueError, match="at most 13122 nodes"):
            ms.sphere_quadrature(3, 20000)

    # the order follows from the node count; every smaller rule was once
    # built and thrown away, 31 of them for 2000 nodes on S^2
    @pytest.mark.parametrize("k, n", [(3, 2000), (3, 13122), (4, 5000)])
    def test_one_rule_built(self, monkeypatch, k, n):
        orders = []
        build = ms._product_sphere

        def recorded(dim_sphere, order):
            if dim_sphere == k - 1:
                orders.append(order)
            return build(dim_sphere, order)

        monkeypatch.setattr(ms, "_product_sphere", recorded)
        pts, _ = ms.sphere_quadrature(k, n)
        assert len(orders) == 1
        p = orders[0]
        assert pts.shape[0] == p ** (k - 2) * max(2 * p, 4) >= n
        assert (p - 1) ** (k - 2) * max(2 * (p - 1), 4) < n

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_no_nodes_rejected(self, k):
        # n = 0 once returned the 8-node rule on S^2 and empty arrays on S^1
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one node"):
                ms.sphere_quadrature(k, n)
        assert ms.sphere_quadrature(k, 1)[0].shape[0] >= 1


class TestVisualMeasure:
    def test_at_origin_is_raw_rule(self, fam2000):
        m = visual_measure(fam2000, geo.HPoint(np.zeros(3)))
        _, w = fam2000.quadrature()
        assert np.max(np.abs(m.weights - w)) < 1e-15

    def test_poisson_normalization_against_monte_carlo(self, fam2000, rng):
        # exact mass is 1; the Monte Carlo oracle independently confirms
        pts, w = fam2000.quadrature()

        def mass(x):
            return w @ np.exp(-2.0 * geo.busemann_many(x.coords, pts, None))

        for _ in range(5):
            assert abs(mass(random_ball_point(rng, max_radius=1.5)) - 1.0) < 1e-6
        x = random_ball_point(rng, max_radius=1.0)
        mc = oracles.monte_carlo_density_mass(x.coords, 2_000_000)
        assert mass(x) == pytest.approx(mc, abs=3e-3)

    def test_family_equivariance_weak(self, fam2000, rng):
        # pushforward of the measure at x matches the measure at g x on
        # five fixed smooth test functions
        x = random_ball_point(rng, max_radius=0.8)
        g = geo.random_isometry(rng, 3, 0.6, 0.6)
        mu_x = visual_measure(fam2000, x)
        mu_gx = visual_measure(fam2000, g.apply(x))
        pushed = ms.pushforward(mu_x, g)
        tests = [
            lambda p: p[:, 0] * p[:, 1],
            lambda p: (1.0 + 0.3 * p[:, 2]) ** 2,
            lambda p: np.exp(0.5 * p[:, 0]),
            lambda p: p[:, 2] ** 3,
            lambda p: 1.0 / (2.0 + p[:, 1]),
        ]
        for f in tests:
            assert integral(pushed, f) == pytest.approx(integral(mu_gx, f), abs=1e-5)

    def test_density_law_round_trip(self, fam2000, rng):
        x = random_ball_point(rng)
        y = random_ball_point(rng)
        mx = visual_measure(fam2000, x)
        my = visual_measure(fam2000, y)
        pts, _ = fam2000.quadrature()
        ratio = mx.weights / my.weights
        law = np.exp(-2.0 * (geo.busemann_many(x.coords, pts, None)
                             - geo.busemann_many(y.coords, pts, None)))
        # the two families differ by a single normalization constant
        const = ratio / law
        assert np.max(const) - np.min(const) < 1e-10

    def test_weights_positive_unit_mass(self, fam2000, rng):
        m = visual_measure(fam2000, random_ball_point(rng, max_radius=2.0))
        assert np.min(m.weights) > 0.0
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestPushforward:
    def test_identity(self, fam2000):
        m = visual_measure(fam2000, geo.HPoint(np.zeros(3)))
        out = ms.pushforward(m, geo.Isometry.identity(3))
        assert np.allclose(out.points, m.points, atol=1e-15)
        assert np.array_equal(out.weights, m.weights)

    def test_change_of_variables_oracle(self, fam2000, rng):
        m = visual_measure(fam2000, random_ball_point(rng))
        g = geo.random_isometry(rng, 3, 1.0, 1.0)
        pushed = ms.pushforward(m, g)
        f = lambda p: np.exp(p[:, 0]) + p[:, 1] ** 2
        direct = float(np.dot(m.weights, f(g.apply_boundary_many(m.points))))
        assert integral(pushed, f) == pytest.approx(direct, abs=1e-12)

    def test_constant_map_gives_dirac(self, fam2000):
        # the image of a constant map: every node's weight on one point
        m = visual_measure(fam2000, geo.HPoint(np.zeros(3)))
        out = ms.BoundaryMeasure(m.weights, np.tile([0.0, 0.0, 1.0], (m.weights.size, 1)))
        top = ms.max_atom_mass(out, ms.atom_labels(out.points))
        assert top.mass == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(top.location.direction, [0, 0, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_mass_preserved_exactly(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 8))
        pts = r.standard_normal((n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        m = ms.atomic_measure(r.dirichlet(np.ones(n)), pts)
        g = geo.random_isometry(r, 3, 1.0, 1.0)
        assert ms.pushforward(m, g).weights.sum() == m.weights.sum()


def clustered(m):
    return ms.max_atom_mass(m, ms.atom_labels(m.points))


class TestMaxAtomMass:
    def test_single_dirac(self):
        m = ms.atomic_measure([1.0], [[0.0, 0.0, 1.0]])
        top = clustered(m)
        assert top.mass == 1.0 and np.allclose(top.location.direction, [0, 0, 1])

    def test_uniform_quadrature_no_clustering(self, fam2000):
        m = visual_measure(fam2000, geo.HPoint(np.zeros(3)))
        assert np.array_equal(ms.atom_labels(m.points), np.arange(m.weights.size))
        assert clustered(m).mass <= 2.0 / 2000

    def test_two_atoms(self):
        m = ms.atomic_measure([0.6, 0.4], [[1, 0, 0], [0, 1, 0]])
        top = clustered(m)
        assert top.mass == pytest.approx(0.6, abs=1e-15)
        assert np.allclose(top.location.direction, [1, 0, 0])

    def test_near_duplicates_cluster(self):
        eps = 1e-10
        p = np.array([[1.0, 0.0, 0.0], [np.cos(eps), np.sin(eps), 0.0],
                      [0.0, 1.0, 0.0]])
        m = ms.atomic_measure([0.3, 0.3, 0.4], p)
        labels = ms.atom_labels(m.points)
        assert list(labels) == [0, 0, 1]
        clusters = ms.max_atom_mass(m, labels)
        assert clusters.mass == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(clusters.masses, [0.6, 0.4], atol=1e-12)

    # the labels depend on the points alone: one clustering serves every
    # reweighting of the same cloud
    def test_labels_reused_across_weights(self, rng):
        p = np.repeat(rng.standard_normal((5, 3)), [1, 3, 2, 1, 4], axis=0)
        labels = ms.atom_labels(p / np.linalg.norm(p, axis=1, keepdims=True))
        for _ in range(3):
            m = ms.atomic_measure(rng.random(p.shape[0]) + 0.1, p)
            top = ms.max_atom_mass(m, labels)
            assert np.array_equal(top.masses, np.bincount(labels, weights=m.weights,
                                                          minlength=5))
            assert top.mass == top.masses.max()


class TestSerialization:
    def test_invalid_mass_rejected(self):
        with pytest.raises(ValueError):
            ms.BoundaryMeasure(np.array([0.5]), np.array([[1.0, 0, 0]]))
