import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natmap import geometry as geo
from natmap.barycenter import busemann_moments
from conftest import (random_ball_point, random_sphere_point, random_spin_isometry,
                      spin_boost)
import _oracles as oracles

O3 = geo.HPoint(np.zeros(3))


def busemann(x, theta):
    return float(geo.busemann_many(x.coords, theta.direction[None, :], None)[0])


def busemann_frame_gradient(x, theta):
    return geo.busemann_gradients_frame(x.coords, theta.direction[None, :], None)[0]


def chart_step(x, frame_vector):
    """Chart components of a frame vector at x."""
    return (1.0 - np.dot(x.coords, x.coords)) / 2.0 * frame_vector


class TestDistance:
    def test_identity_case(self):
        assert geo.distance(O3, O3) == 0.0

    def test_radial_closed_form_vs_integration_oracle(self):
        # frozen from the oracle: log((1+r)/(1-r)) at r = 0.5
        x = geo.HPoint(np.array([0.5, 0.0, 0.0]))
        d = geo.distance(O3, x)
        assert d == pytest.approx(1.0986122886681098, abs=1e-14)
        assert d == pytest.approx(oracles.radial_length_numeric(0.5), abs=1e-12)

    def test_isometry_invariance(self, rng):
        for _ in range(10):
            g = geo.random_isometry(rng, 3, 1.0, 1.0)
            x, y = random_ball_point(rng), random_ball_point(rng)
            assert geo.distance(g.apply(x), g.apply(y)) == pytest.approx(
                geo.distance(x, y), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(geo.DimensionMismatchError):
            geo.distance(O3, geo.HPoint(np.zeros(4)))

    def test_triangle_inequality_and_symmetry(self, rng):
        for _ in range(20):
            x, y, z = (random_ball_point(rng, max_radius=2.0) for _ in range(3))
            dxy = geo.distance(x, y)
            assert dxy == pytest.approx(geo.distance(y, x), abs=1e-13)
            assert dxy <= geo.distance(x, z) + geo.distance(z, y) + 1e-12


class TestBusemann:
    def test_normalized_at_origin(self, rng):
        # zero up to the rounding of the unit normalization itself
        for _ in range(5):
            assert abs(busemann(O3, random_sphere_point(rng))) < 1e-15

    def test_on_ray_toward_equals_minus_distance(self):
        th = geo.BoundaryPoint(np.array([0.0, 1.0, 0.0]))
        x = geo.HPoint(0.5 * th.direction)
        val = busemann(x, th)
        assert val == pytest.approx(np.log(1.0 / 3.0), abs=1e-14)
        # limit-definition oracle at t = 20
        assert val == pytest.approx(
            oracles.busemann_limit_value(x.coords, th.direction, 20.0), abs=1e-7)

    def test_on_opposite_ray(self):
        th = geo.BoundaryPoint(np.array([0.0, 1.0, 0.0]))
        x = geo.HPoint(-0.5 * th.direction)
        assert busemann(x, th) == pytest.approx(np.log(3.0), abs=1e-14)
        assert busemann(x, th) == pytest.approx(
            oracles.busemann_limit_value(x.coords, th.direction, 20.0), abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_one_lipschitz(self, seed):
        r = np.random.default_rng(seed)
        x = random_ball_point(r, max_radius=2.5)
        y = random_ball_point(r, max_radius=2.5)
        th = random_sphere_point(r)
        assert abs(busemann(x, th) - busemann(y, th)) <= \
            geo.distance(x, y) + 1e-12


class TestBusemannGradient:
    def test_unit_norm(self, rng):
        for _ in range(20):
            b = busemann_frame_gradient(random_ball_point(rng), random_sphere_point(rng))
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)

    def test_points_away_on_ray(self):
        th = geo.BoundaryPoint(np.array([1.0, 0.0, 0.0]))
        x = geo.HPoint(np.array([0.3, 0.0, 0.0]))
        # unit tangent toward theta is +e1 in the frame; gradient is -e1
        assert np.allclose(busemann_frame_gradient(x, th), [-1.0, 0.0, 0.0], atol=1e-13)

    def test_finite_difference_oracle(self, rng):
        h = 1e-5
        for _ in range(5):
            x = random_ball_point(rng)
            th = random_sphere_point(rng)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            step = h * chart_step(x, u)
            fd = (busemann(geo.HPoint(x.coords + step), th)
                  - busemann(geo.HPoint(x.coords - step), th)) / (2 * h)
            assert fd == pytest.approx(np.dot(busemann_frame_gradient(x, th), u), abs=1e-6)


class TestBusemannHessian:
    """The Hessian of B(., theta) is that of phi for the Dirac mass at theta."""

    def test_trace_and_kernel(self, rng):
        for _ in range(10):
            x, th = random_ball_point(rng), random_sphere_point(rng)
            H = np.eye(3) - busemann_moments(np.ones(1), th.direction[None], x.coords, None)[2]
            assert np.trace(H) == pytest.approx(2.0, abs=1e-13)
            b = busemann_frame_gradient(x, th)
            assert np.max(np.abs(H @ b)) < 1e-12

    def test_identity_minus_outer_product(self, rng):
        for _ in range(10):
            x, th = random_ball_point(rng), random_sphere_point(rng)
            b = busemann_frame_gradient(x, th)
            lhs = np.eye(3) - busemann_moments(np.ones(1), th.direction[None], x.coords,
                                               None)[2]
            assert np.max(np.abs(lhs - (np.eye(3) - np.outer(b, b)))) < 1e-8

    def test_second_difference_orthogonal_geodesic(self, rng):
        h = 1e-4
        for _ in range(5):
            x, th = random_ball_point(rng), random_sphere_point(rng)
            b = busemann_frame_gradient(x, th)
            # frame vector orthogonal to the gradient
            v = rng.standard_normal(3)
            v -= np.dot(v, b) * b
            v /= np.linalg.norm(v)
            chart = chart_step(x, v)
            plus = busemann(geo.HPoint(geo._exp_chart(x.coords, h * chart)), th)
            minus = busemann(geo.HPoint(geo._exp_chart(x.coords, -h * chart)), th)
            second = (plus - 2.0 * busemann(x, th) + minus) / h**2
            assert second == pytest.approx(1.0, abs=1e-5)


class TestExpLogTransport:
    def test_exp_of_zero(self):
        assert np.array_equal(geo._exp_chart(O3.coords, np.zeros(3)), O3.coords)

    def test_round_trip(self, rng):
        for _ in range(20):
            x, y = random_ball_point(rng, max_radius=2.0), random_ball_point(rng, max_radius=2.0)
            back = geo._exp_chart(x.coords, geo._log_chart(x.coords, y.coords))
            assert np.max(np.abs(back - y.coords)) < 1e-9


class TestIsometries:
    def test_boundary_action_identity_and_composition(self, rng):
        th = random_sphere_point(rng).direction[None, :]
        assert np.allclose(geo.Isometry.identity(3).apply_boundary_many(th), th)
        g, h = geo.random_isometry(rng, 3, 1.0, 1.0), geo.random_isometry(rng, 3, 1.0, 1.0)
        lhs = geo.Isometry(g.lorentz @ h.lorentz).apply_boundary_many(th)
        rhs = g.apply_boundary_many(h.apply_boundary_many(th))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_loxodromic_fixes_two_points(self, rng):
        g0 = spin_boost(1.2)
        h = random_spin_isometry(rng)
        g = h @ g0 @ geo.adjugate(h)
        # the attracting point of g's inverse is g's repelling point
        att, repl = geo.loxodromic_fixed_points(np.stack([g, geo.adjugate(g)]))
        for p in (att, repl):
            img = geo.psl2_to_lorentz(g).apply_boundary_many(p[None, :])[0]
            assert np.max(np.abs(img - p)) < 1e-9
        assert np.max(np.abs(att - repl)) > 0.1
        for p, ref in zip((att, repl), oracles.loxodromic_fixed_points_scalar(g)):
            assert np.max(np.abs(p - ref)) < 1e-12


class TestModelConversions:
    def test_ball_hyperboloid_round_trip(self, rng):
        for _ in range(10):
            x = random_ball_point(rng, max_radius=3.0).coords
            X = geo.ball_to_hyperboloid(x)
            assert X[0] ** 2 - np.dot(X[1:], X[1:]) == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(geo.hyperboloid_to_ball(X) - x)) < 1e-14

    def test_tangent_round_trip(self, rng):
        x = random_ball_point(rng).coords
        u = 0.1 * rng.standard_normal(3)
        X = geo.ball_to_hyperboloid(x)
        U = geo.tangent_to_hyperboloid(x, u)
        assert X[0] * U[0] - np.dot(X[1:], U[1:]) == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(geo.tangent_to_ball(X, U) - u)) < 1e-14


class TestTranslationLength:
    def test_identity(self):
        assert geo.translation_length(np.eye(2, dtype=complex)) == 0.0

    def test_axis_translation(self):
        assert geo.translation_length(spin_boost(2.0)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_conjugation_invariance(self, rng):
        g = spin_boost(1.3)
        for _ in range(5):
            h = random_spin_isometry(rng)
            assert geo.translation_length(h @ g @ geo.adjugate(h)) == \
                pytest.approx(1.3, abs=1e-10)

    def test_lower_bounds_displacement(self, rng):
        for _ in range(5):
            g = random_spin_isometry(rng)
            ell = geo.translation_length(g)
            for _ in range(10):
                y = random_ball_point(rng, max_radius=2.0)
                assert ell <= geo.distance(geo.psl2_to_lorentz(g).apply(y), y) + 1e-9

    def test_parabolic_classification(self):
        par = np.array([[1, 1], [0, 1]], dtype=complex)
        assert geo.translation_length(par) == 0.0

    def test_elliptic(self):
        rot = np.diag([np.exp(0.4j), np.exp(-0.4j)])
        assert geo.translation_length(rot) == 0.0

    def test_stack_matches_scalar_reference(self, rng):
        mats = np.array([[random_spin_isometry(rng) for _ in range(4)] for _ in range(5)])
        ell = geo.translation_length(mats)
        assert ell.shape == (5, 4)
        ref = [[oracles.translation_length_scalar(m) for m in row] for row in mats]
        assert np.allclose(ell, ref, rtol=1e-13, atol=0.0)


class TestSpinModel:
    def test_mobius_vs_lorentz_boundary_action(self, rng):
        for _ in range(5):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            iso = geo.psl2_to_lorentz(A)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            th = geo.sphere_from_homogeneous(v)
            lhs = iso.apply_boundary_many(th[None, :])[0]
            rhs = geo.sphere_from_homogeneous(A @ v)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_sphere_chart_round_trip(self, rng):
        d = np.array([random_sphere_point(rng).direction for _ in range(10)])
        # inverse stereographic projection from the north pole
        back = geo.sphere_from_homogeneous(
            np.stack([d[:, 0] - 1j * d[:, 1], 1.0 - d[:, 2]], axis=-1))
        assert np.max(np.abs(back - d)) < 1e-12
        assert np.array_equal(geo.sphere_from_homogeneous(np.array([[1, 0], [0, 1]])),
                              [[0, 0, 1], [0, 0, -1]])

    def test_spin_length_matches_lorentz(self):
        # the axis of z -> 4z passes through the origin, which the Lorentz
        # matrix moves by exactly the translation length
        A = np.diag([2.0 + 0j, 0.5 + 0j])
        assert geo.translation_length(A) == pytest.approx(2 * np.log(2), abs=1e-12)
        assert geo.distance(O3, geo.psl2_to_lorentz(A).apply(O3)) == \
            pytest.approx(2 * np.log(2), abs=1e-9)

    # the 16 products are formed in one stacked chain with the association
    # of the separate traces, so each entry keeps its bits
    def test_stacked_lorentz_equals_trace_formula(self, rng):
        from natmap import triangulation as tr
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(200)]
        for step in tr.deformation_path(tr.figure_eight(), 50):
            rho = step.representation
            mats += list(rho.generators) + [rho.evaluate(r) for r in rho.relators]
        for A in mats:
            assert np.array_equal(geo.psl2_to_lorentz(A).lorentz,
                                  oracles.psl2_to_lorentz_traces(A))


class TestNonFinitePoints:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 4),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(-0.5, 0.5))
    def test_rejected(self, k, slot, bad, fill):
        # NaN compares False with everything, so a check written as
        # "norm >= 1 raises" once let it through
        coords = np.full(k, fill / np.sqrt(k))
        coords[slot % k] = bad
        with pytest.raises(ValueError):
            geo.HPoint(coords)
        direction = np.eye(k)[(slot + 1) % k]
        direction[slot % k] = bad
        with pytest.raises(ValueError):
            geo.BoundaryPoint(direction)
