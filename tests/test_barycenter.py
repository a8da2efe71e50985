import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natmap import barycenter as bc
from natmap import geometry as geo
from natmap import measures as ms
from conftest import random_ball_point, visual_measure
import _oracles as oracles

O3 = geo.HPoint(np.zeros(3))


def phi(beta, y):
    return bc._phi_chart(beta, y.coords)


def random_spread_measure(rng, k=3, n_atoms=None):
    """Atomic probability measure with every cluster below mass 1/2."""
    while True:
        n = int(n_atoms or rng.integers(3, 7))
        pts = rng.standard_normal((n, k))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = rng.dirichlet(np.ones(n))
        if w.max() < 0.5 - 1e-9:
            return ms.atomic_measure(w, pts)


# generic measures (units 134 and 787 of the atomic-barycenter benchmark
# at seed 1) on which Armijo trial points once rounded to |y| >= 1, where
# busemann_many divided by zero and took the log of a negative number
OUT_OF_BALL_TRIALS = [
    ([0.27599169081525088, 0.0034789285233591937, 0.29687033086873915, 0.42365904979265084],
     [[0.51706346501433353, -0.6947350020212768, 0.49998864998504461],
      [0.2461058328259938, -0.9565677933629716, 0.15623692185177995],
      [-0.42108128575295589, -0.16761159701184569, -0.89140165096087653],
      [-0.33023952617346475, -0.14281507704050031, -0.93303039024602052]]),
    ([0.40758279255148655, 0.40468667970188577, 0.18773052774662763],
     [[-0.17997912266521582, 0.136545192867708, 0.97414728132319883],
      [-0.035769513199684862, 0.6558652629094831, -0.7540300384163301],
      [-0.14716357441498232, 0.035337859136391113, 0.98848071204098997]]),
]

# the generic measure of unit 25659 and the pushed one of unit 9417 of the
# atomic-barycenter benchmark at seed 102, with their gradient tolerances:
# their first Newton steps are 791 and 722 long (lambda_min(I - H) = 1.7e-4
# and 3.3e-4 at the initial guess), and _exp_chart overflows cosh at the
# first trial lengths
LONG_FIRST_STEPS = [
    (1e-10, [0.12744784113607205, 0.43367278672292703, 0.438879372141001],
     [[-0.9760510079081253, -0.13822446787674345, -0.1679834112099289],
      [0.736754170087372, 0.6506459753426925, 0.18399214012893086],
      [-0.9770811100328438, -0.11348903514470082, -0.18009093069588755]]),
    (1e-12, [0.13671153971169056, 0.38253099928501894, 0.4807574610032905],
     [[-0.13550410112974656, 0.37110980599029597, 0.9186490899548446],
      [0.2918903586178194, 0.03409550973510296, -0.9558438757254577],
      [-0.14726609766297635, 0.4056831677019808, 0.9020719837808984]]),
]


def dominant_limit_measure(rng, eps):
    """3-6 atoms, the heaviest of mass 1/2 - eps."""
    while True:
        n = int(rng.integers(3, 7))
        pts = rng.standard_normal((n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        rest = (0.5 + eps) * rng.dirichlet(np.ones(n - 1))
        if rest.max() < 0.5 - eps:
            return ms.atomic_measure(np.concatenate([[0.5 - eps], rest]), pts)


class TestPhi:
    def test_antipodal_pair_at_origin(self):
        m = ms.atomic_measure([0.5, 0.5], [[1, 0, 0], [-1, 0, 0]])
        assert abs(phi(m, O3)) < 1e-15

    def test_visual_minimized_at_origin(self, fam2000, rng):
        m = visual_measure(fam2000, O3)
        v0 = phi(m, O3)
        for _ in range(10):
            assert phi(m, random_ball_point(rng, max_radius=2.0)) > v0

    def test_midpoint_convexity(self, rng):
        for _ in range(15):
            m = random_spread_measure(rng)
            a = random_ball_point(rng, max_radius=2.0)
            b = random_ball_point(rng, max_radius=2.0)
            mid = geo.HPoint(geo._exp_chart(a.coords, 0.5 * geo._log_chart(a.coords, b.coords)))
            # the midpoint is equidistant from both ends
            assert geo.distance(a, mid) == pytest.approx(geo.distance(mid, b), abs=1e-9)
            assert phi(m, mid) <= (phi(m, a) + phi(m, b)) / 2 + 1e-12


class TestDerivatives:
    def test_gradient_vanishes_at_barycenter(self, rng):
        for _ in range(10):
            m = random_spread_measure(rng)
            res = bc.barycenter(m)
            assert res.gradient_norm <= 1e-10

    def test_gradient_finite_difference(self, rng):
        h = 1e-5
        for _ in range(5):
            m = random_spread_measure(rng)
            y = random_ball_point(rng).coords
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            # chart components of h times the unit frame vector u
            step = h * (1.0 - np.dot(y, y)) / 2.0 * u
            fd = (bc._phi_chart(m, y + step) - bc._phi_chart(m, y - step)) / (2 * h)
            g = m.weights @ bc.busemann_moments(m.weights, m.points, y, None)[0]
            assert fd == pytest.approx(np.dot(g, u), abs=1e-6)

    def test_one_gradient_array_per_step(self, rng, monkeypatch):
        # gradient and Hessian share one array of Busemann gradients, so a
        # solve builds one per Newton step and one at the converged point,
        # each from the chords the iterate already holds
        calls = []
        inner = bc.busemann_gradients_frame

        def counted(x, directions, chords=None):
            calls.append(chords)
            return inner(x, directions, chords)

        monkeypatch.setattr(bc, "busemann_gradients_frame", counted)
        for _ in range(5):
            calls.clear()
            res = bc.barycenter(random_spread_measure(rng))
            assert len(calls) == res.iterations + 1
            assert all(c is not None for c in calls)

    def test_phi_never_repeats_a_point(self, rng, monkeypatch):
        # an accepted Armijo trial point keeps its phi value and its chord
        # array, and phi at an iterate reads the chords its derivatives
        # used, so neither phi nor |y - theta|^2 is evaluated again at a point
        phi_points, chord_points = [], []
        inner_phi, inner_chords = bc.busemann_many, bc.busemann_chords

        def recorded_phi(x, directions, chords=None):
            phi_points.append(x.copy())
            assert chords is not None
            return inner_phi(x, directions, chords)

        def recorded_chords(x, directions):
            chord_points.append(x.copy())
            return inner_chords(x, directions)

        monkeypatch.setattr(bc, "busemann_many", recorded_phi)
        monkeypatch.setattr(bc, "busemann_chords", recorded_chords)
        for _ in range(20):
            bc.barycenter(random_spread_measure(rng))
        for points in (phi_points, chord_points):
            assert len(points) > 20
            assert not any(np.array_equal(p, q) for p, q in zip(points, points[1:]))

    def test_hessian_trace_is_k_minus_one(self, rng):
        for k in (2, 3, 5):
            m = random_spread_measure(rng, k=k)
            H = np.eye(k) - bc.busemann_moments(m.weights, m.points, np.zeros(k), None)[2]
            assert np.trace(H) == pytest.approx(k - 1, abs=1e-13)


class TestBarycenter:
    def test_uniform_visual_at_origin(self, fam2000):
        res = bc.barycenter(visual_measure(fam2000, O3))
        assert np.linalg.norm(res.location.coords) < 1e-9

    def test_three_equal_atoms_equilateral(self):
        pts = [[1, 0, 0],
               [-0.5, np.sqrt(3) / 2, 0],
               [-0.5, -np.sqrt(3) / 2, 0]]
        res = bc.barycenter(ms.atomic_measure([1 / 3] * 3, pts))
        assert np.linalg.norm(res.location.coords) < 1e-9

    def test_equivariance(self, rng):
        cfg = bc.SolverConfig(gradient_tol=1e-12)
        for _ in range(25):
            m = random_spread_measure(rng)
            g = geo.random_isometry(rng, 3, 0.7, 0.7)
            lhs = bc.barycenter(ms.pushforward(m, g), cfg).location
            rhs = g.apply(bc.barycenter(m, cfg).location)
            assert geo.distance(lhs, rhs) <= 1e-8

    def test_dominant_atom(self):
        res = bc.barycenter(ms.atomic_measure(
            [0.6, 0.2, 0.2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert res.kind == "boundary-atom"
        assert np.allclose(res.location.direction, [1, 0, 0])

    def test_half_mass_atom_is_boundary(self):
        res = bc.barycenter(ms.atomic_measure(
            [0.5, 0.3, 0.2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert res.kind == "boundary-atom"
        # half of a total that is 1 only to MASS_TOL; compared with 1/2
        # this atom once sent the solver to NoConvergenceError
        res = bc.barycenter(ms.BoundaryMeasure(
            np.array([0.5 - 3e-11, 0.3, 0.2 - 3e-11]), np.eye(3)))
        assert res.kind == "boundary-atom"
        assert np.allclose(res.location.direction, [1, 0, 0])

    def test_two_equal_atoms_raises(self):
        # draws 11, 15, ..., 85 of default_rng(0) once came back as
        # 'boundary-atom': the top atom survived its own removal by an
        # angular filter at cos(1e-9) == 1.0
        draws = np.random.default_rng(0).standard_normal((100, 2, 3))
        pairs = [draws[i] for i in (11, 15, 23, 28, 38, 68, 82, 85)]
        for pts in [[[1, 0, 0], [-1, 0, 0]]] + pairs:
            with pytest.raises(bc.TwoEqualAtomsError):
                bc.barycenter(ms.atomic_measure([0.5, 0.5], pts))
        # BoundaryMeasure accepts totals of 1 +- MASS_TOL: equal atoms of
        # 0.5 + 2e-11 once gave 'boundary-atom', of 0.5 - 2e-11 'interior'
        for w in (0.5 + 2e-11, 0.5 - 2e-11, 0.5 + 4.9e-11, 0.5 - 4.9e-11):
            with pytest.raises(bc.TwoEqualAtomsError):
                bc.barycenter(ms.BoundaryMeasure(
                    np.full(2, w), np.array([[1.0, 0, 0], [-1.0, 0, 0]])))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-12, 5e-10))
    def test_two_equal_clusters_raise(self, seed, gap):
        # two quarter atoms closer than the clustering tolerance form one
        # half-mass cluster opposite a half-mass atom
        r = np.random.default_rng(seed)
        u, v, heavy = r.standard_normal((3, 3))
        u /= np.linalg.norm(u)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        near = np.cos(gap) * u + np.sin(gap) * v
        with pytest.raises(bc.TwoEqualAtomsError):
            bc.barycenter(ms.atomic_measure([0.25, 0.25, 0.5], [u, near, heavy]))

    def test_trial_points_stay_in_ball(self):
        # a trial point outside the ball chart is a failed Armijo step,
        # rejected before phi is evaluated there
        for w, p in OUT_OF_BALL_TRIALS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = bc.barycenter(ms.BoundaryMeasure(np.array(w), np.array(p)))
            assert res.kind == "interior"
            assert res.gradient_norm <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_split_atom_same_barycenter(self, seed):
        # an atom given as two exact copies of half its weight is the same
        # measure: the clustering pass merges the copies, the solver sums them
        r = np.random.default_rng(seed)
        while True:
            n = int(r.integers(3, 7))
            w = r.dirichlet(np.ones(n))
            if w.max() < 0.49:
                break
        pts = r.standard_normal((n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        j = int(r.integers(n))
        split_w = np.concatenate([w, [w[j] / 2.0]])
        split_w[j] = w[j] / 2.0
        cfg = bc.SolverConfig(gradient_tol=1e-12)
        whole = bc.barycenter(ms.BoundaryMeasure(w, pts), cfg)
        split = bc.barycenter(ms.BoundaryMeasure(split_w, np.vstack([pts, pts[j]])), cfg)
        assert whole.kind == split.kind == "interior"
        assert geo.distance(whole.location, split.location) <= 1e-11

    def test_split_half_atoms(self):
        p, q = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        # two copies of a quarter at p make a half-mass atom opposite q's
        with pytest.raises(bc.TwoEqualAtomsError):
            bc.barycenter(ms.BoundaryMeasure(np.array([0.25, 0.25, 0.5]),
                                             np.array([p, p, q])))
        res = bc.barycenter(ms.BoundaryMeasure(np.array([0.5, 0.5]), np.array([p, p])))
        assert res.kind == "boundary-atom"
        assert np.array_equal(res.location.direction, p)

    def test_no_convergence_carries_best(self, rng, monkeypatch):
        m = random_spread_measure(rng)
        monkeypatch.setattr(bc, "MAX_ITERATIONS", 1)
        cfg = bc.SolverConfig(gradient_tol=1e-16)
        with pytest.raises(bc.NoConvergenceError) as err:
            bc.barycenter(m, cfg)
        assert isinstance(err.value.best, geo.HPoint)
        assert err.value.gradient_norm > 0

    def test_cap_equal_to_the_steps_needed(self, monkeypatch):
        # a solve whose last allowed step lands within tolerance returns:
        # the cap is checked after the gradient at the iterate
        m = ms.atomic_measure([0.3, 0.3, 0.4], np.eye(3))
        free = bc.barycenter(m)
        monkeypatch.setattr(bc, "MAX_ITERATIONS", free.iterations)
        capped = bc.barycenter(m)
        assert capped.iterations == free.iterations
        assert np.array_equal(capped.location.coords, free.location.coords)
        monkeypatch.setattr(bc, "MAX_ITERATIONS", free.iterations - 1)
        with pytest.raises(bc.NoConvergenceError, match="iterations") as err:
            bc.barycenter(m)
        assert err.value.iterations == free.iterations - 1

    def test_line_search_without_decrease_raises(self, rng, monkeypatch):
        # an Armijo slope no trial point can meet: the first damped step
        # raises, naming the line search
        monkeypatch.setattr(bc, "ARMIJO_SLOPE", 1e30)
        with pytest.raises(bc.NoConvergenceError, match="line search") as err:
            bc.barycenter(random_spread_measure(rng))
        assert err.value.iterations == 0
        assert isinstance(err.value.best, geo.HPoint)

    def test_long_newton_steps_do_not_overflow(self):
        # a trial step longer than the ball chart's diameter is skipped
        # before _exp_chart forms it
        for tol, w, p in LONG_FIRST_STEPS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = bc.barycenter(ms.BoundaryMeasure(np.array(w), np.array(p)),
                                    bc.SolverConfig(gradient_tol=tol))
            assert res.kind == "interior"
            assert res.gradient_norm <= tol

    def test_grid_oracle_agreement_h2_h3(self, rng):
        for k in (2, 3):
            for _ in range(4):
                m = random_spread_measure(rng, k=k, n_atoms=4)
                newton = bc.barycenter(m).location
                grid = bc.grid_minimize_phi(m)
                assert geo.distance(newton, grid) <= 2e-3

    def test_coercivity_proxy(self, rng):
        m = random_spread_measure(rng)
        v0 = phi(m, bc.barycenter(m).location)
        for _ in range(20):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert phi(m, geo.HPoint(np.tanh(2.5) * d)) > v0


class TestDominantLimit:
    """Weights 1/2 - eps on the heaviest atom, 100 draws of default_rng(0):
    Newton converges until I - H falls below HESSIAN_FLOOR, and past that
    the solve raises at once, naming the eigenvalue."""

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_converges(self, eps):
        rng = np.random.default_rng(0)
        for _ in range(100):
            res = bc.barycenter(dominant_limit_measure(rng, eps))
            assert res.kind == "interior"
            assert res.gradient_norm <= 1e-10

    @pytest.mark.parametrize("eps", [1e-9, 1e-10])
    def test_singular_hessian_raises(self, eps):
        rng = np.random.default_rng(0)
        for _ in range(100):
            with pytest.raises(bc.NoConvergenceError,
                               match="I - H has smallest eigenvalue") as err:
                bc.barycenter(dominant_limit_measure(rng, eps))
            assert err.value.iterations <= 25
            assert isinstance(err.value.best, geo.HPoint)


class TestWeakStarContinuity:
    def test_constant_sequence(self, rng):
        # a constant sequence has a constant barycenter, bit for bit
        m = random_spread_measure(rng)
        first = bc.barycenter(m).location.coords
        for _ in range(4):
            assert np.array_equal(bc.barycenter(m).location.coords, first)

    def test_dominant_atom_limit(self):
        # every measure of the sequence has the same dominant atom, and so
        # the same barycenter as its limit (0.6, 0.4)
        for n in range(3, 20):
            res = bc.barycenter(ms.atomic_measure([0.5 + 1.0 / n, 0.5 - 1.0 / n],
                                                  [[1, 0, 0], [0, 1, 0]]))
            assert res.kind == "boundary-atom"
            assert np.max(np.abs(res.location.direction - [1, 0, 0])) < 1e-12

    def test_mollified_three_atoms(self):
        dirs = np.array([[1.0, 0, 0],
                         [-0.5, np.sqrt(3) / 2, 0],
                         [-0.5, -np.sqrt(3) / 2, 0.2]])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        weights = [0.4, 0.35, 0.25]
        target_measure = ms.atomic_measure(weights, dirs)
        limit = bc.barycenter(target_measure).location
        devs = [geo.distance(bc.barycenter(oracles.ring_measure(weights, dirs, cap)).location,
                             limit)
                for cap in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        # rings of angular radius cap move the barycenter by O(cap^2)
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] <= 1e-4
        # the limit barycenter agrees with the independent grid search
        assert geo.distance(limit, bc.grid_minimize_phi(target_measure)) <= 2e-3
