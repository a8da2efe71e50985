import numpy as np
import pytest
from scipy.spatial import cKDTree

from natmap import geometry as geo
from natmap import natural_map as nm
from natmap import triangulation as tr
from conftest import random_ball_point

O3 = geo.HPoint.origin(3)


@pytest.fixture(scope="module")
def fig8_path():
    return tr.deformation_path(tr.figure_eight(), steps=8, t_end=0.5)


@pytest.fixture(scope="module")
def fig8_path50():
    return tr.deformation_path(tr.figure_eight(), steps=50)


@pytest.fixture(scope="module")
def holonomy(fig8_path):
    return fig8_path[0].representation


class TestRepresentation:
    def test_relators_validated(self, holonomy):
        for r in holonomy.relators:
            assert holonomy.relator_residual(r) <= 1e-8
        with pytest.raises(ValueError):
            nm.Representation((geo.hyperbolic_translation(3, 1.0),), ("a",), 3)

    def test_word_evaluation(self, holonomy):
        a = holonomy.evaluate("a")
        ainv = holonomy.evaluate("A")
        prod = (a @ ainv).lorentz
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12

    def test_conjugate(self, holonomy, rng):
        g = geo.random_isometry(rng, 3, 0.5, 0.5)
        conj = holonomy.conjugate(g)
        w = "abAB"
        assert geo.translation_length(conj.evaluate(w)) == pytest.approx(
            geo.translation_length(holonomy.evaluate(w)), abs=1e-9)

    def test_elementary_detection(self):
        # two powers of one boost share an axis
        g = geo.hyperbolic_translation(3, 0.7)
        rep = nm.Representation((g, g @ g), (), 3)
        assert rep.is_elementary()

    def test_holonomy_not_elementary(self, holonomy):
        assert not holonomy.is_elementary()

    def test_embedding(self, holonomy):
        emb = nm.embed_representation(holonomy, 5)
        assert emb.target_dim == 5
        assert emb.relator_residual(emb.relators[0]) <= 1e-8


class TestBoundaryMaps:
    def test_mobius_exact_equivariance(self, rng, fam2000):
        g = geo.random_isometry(rng, 3, 0.5, 0.5)
        D = nm.MobiusBoundaryMap(g)
        pts = rng.standard_normal((100, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # D intertwines gamma with g gamma g^-1 exactly
        gamma = geo.random_isometry(rng, 3, 0.4, 0.4)
        lhs = D.map_points(gamma.apply_boundary_many(pts))
        rho = (g @ gamma @ g.inverse())
        rhs = rho.apply_boundary_many(D.map_points(pts))
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_totally_geodesic_shape(self):
        D = nm.TotallyGeodesicBoundaryMap(3, 5)
        pts = np.eye(3)
        out = D.map_points(pts)
        assert out.shape == (3, 5)
        assert np.allclose(out[:, :3], pts)
        assert np.allclose(out[:, 3:], 0.0)

    def test_orbit_table(self, holonomy, fig8_path):
        target = fig8_path[4].representation
        D = nm.OrbitBoundaryMap.build(holonomy, target,
                                      max_word_length=8, min_table=5000)
        assert D.table_source.shape[0] >= 5000
        assert D.approximate


def _orbit_table_per_word(source, target, max_word_length, length_tol=1e-6):
    """The orbit table one reduced word at a time, from the scalar
    translation length and fixed points of each evaluated word."""
    src, tgt = [], []
    for w in nm.enumerate_reduced_words(len(source.generators), max_word_length):
        gs, gt = source.evaluate(w), target.evaluate(w)
        if (geo.translation_length(gs) > length_tol
                and geo.translation_length(gt) > length_tol):
            src.append(geo.loxodromic_fixed_points(gs)[0].direction)
            tgt.append(geo.loxodromic_fixed_points(gt)[0].direction)
    return np.asarray(src), np.asarray(tgt)


def _uncached(rep):
    """An equal representation whose orbit-table source cache is empty."""
    return nm.Representation(rep.generators, rep.relators, rep.source_dim)


class TestOrbitTable:
    def test_word_order_matches_enumeration(self):
        words, level = [], [""]
        for parent, letter in nm._reduced_word_tree(2, 6):
            prefixes = [""] * letter.size if parent is None else [level[p] for p in parent]
            level = [w + "aAbB"[c] for w, c in zip(prefixes, letter)]
            words += level
        assert words == list(nm.enumerate_reduced_words(2, 6))

    # the last step of the 50-step path is the worst conditioned; with the
    # complete holonomy as target, the target's parabolic words drop out
    @pytest.mark.parametrize("source_step, target_step",
                             [(0, 1), (0, 17), (0, 33), (0, 50), (50, 0)])
    def test_table_equals_per_word_path(self, fig8_path50, source_step, target_step):
        source = fig8_path50[source_step].representation
        target = fig8_path50[target_step].representation
        D = nm.OrbitBoundaryMap.build(source, target, max_word_length=6, min_table=1)
        src, tgt = _orbit_table_per_word(source, target, 6)
        assert src.shape[0] > 1000
        assert np.array_equal(D.table_source, src)
        assert np.array_equal(D.table_target, tgt)

    @pytest.mark.parametrize("step", [1, 25, 50])
    def test_lazy_targets_equal_full_table(self, fig8_path50, fam2000, step):
        complete = fig8_path50[0].representation
        target = fig8_path50[step].representation
        D = nm.OrbitBoundaryMap.build(complete, target,
                                      max_word_length=8, min_table=5000)
        # an equal source with an empty cache gives the reference table
        fresh = nm.OrbitBoundaryMap.build(_uncached(complete), target,
                                          max_word_length=8, min_table=5000)
        full = fresh.table_target
        nodes, _ = fam2000.quadrature()
        _, idx = cKDTree(fresh.table_source).query(nodes)
        assert np.array_equal(D.table_source, fresh.table_source)
        assert np.array_equal(D.map_points(nodes), full[idx])
        # only the entries the nodes land on are computed
        assert D._filled.sum() == np.unique(idx).size < full.shape[0]
        assert np.array_equal(D.table_target, full)

    def test_source_cache_key_and_aliasing(self, fig8_path50):
        # deformed source: its peripheral words have translation lengths
        # between 1e-6 and 1e-3, so the two tolerances give different tables
        source = _uncached(fig8_path50[1].representation)
        target = fig8_path50[50].representation
        sizes = []
        for length, tol in [(6, 1e-6), (8, 1e-6), (8, 1e-3), (6, 1e-6), (8, 1e-6)]:
            D = nm.OrbitBoundaryMap.build(source, target, max_word_length=length,
                                          min_table=1, length_tol=tol)
            ref = nm.OrbitBoundaryMap.build(_uncached(source), target,
                                            max_word_length=length,
                                            min_table=1, length_tol=tol)
            assert np.array_equal(D.table_source, ref.table_source)
            assert np.array_equal(D.table_target, ref.table_target)
            sizes.append(D.table_source.shape[0])
            # writing into a returned table must not reach the next build
            D.table_source[:] = 0.0
            D.table_target[:] = 0.0
        assert sizes[0] == sizes[3] < sizes[2] < sizes[1] == sizes[4]
        for words, lox, fixed in source._orbit_sources.values():
            assert not lox.flags.writeable and not fixed.flags.writeable
            assert not any(a.flags.writeable for level in words for a in level
                           if a is not None)

    def test_attracting_point_at_infinity(self):
        # 'a' fixes 0 and inf, attracting inf: the table holds the north pole
        a = geo.psl2_to_lorentz(np.diag([2.0, 0.5]))
        b = geo.psl2_to_lorentz(np.array([[1.0, 1.0], [1.0, 2.0]]))
        rep = nm.Representation((a, b), (), 3)
        D = nm.OrbitBoundaryMap.build(rep, rep, max_word_length=4, min_table=1)
        src, tgt = _orbit_table_per_word(rep, rep, 4)
        assert np.array_equal(D.table_source, src)
        assert np.array_equal(D.table_target, tgt)
        assert np.any(np.all(src == [0.0, 0.0, 1.0], axis=1))

    def test_generators_without_spin_rejected(self, holonomy):
        lorentz_only = nm.embed_representation(holonomy, 3)
        with pytest.raises(ValueError, match="spin"):
            nm.OrbitBoundaryMap.build(holonomy, lorentz_only, min_table=1)


class TestNaturalMapExactCases:
    def test_identity_boundary_map(self, fam2000, rng):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        for _ in range(10):
            x = random_ball_point(rng)
            F = nm.natural_map(None, pushed, fam2000, x)
            assert geo.distance(F, x) <= 5e-4

    def test_identity_with_holonomy_gate(self, fam2000, holonomy):
        x = geo.HPoint(np.array([0.1, 0.2, -0.1]))
        F = nm.natural_map(holonomy, nm.identity_boundary_map(3), fam2000, x)
        assert geo.distance(F, x) <= 5e-4

    def test_conjugated_representation_gives_the_isometry(self, fam2000, rng):
        g = geo.random_isometry(rng, 3, 0.5, 0.5)
        pushed = nm.PushedFamily(nm.MobiusBoundaryMap(g), fam2000)
        for _ in range(5):
            x = random_ball_point(rng)
            F = nm.natural_map(None, pushed, fam2000, x)
            assert geo.distance(F, g.apply(x)) <= 5e-4

    def test_totally_geodesic_confinement(self, fam2000, rng):
        D = nm.TotallyGeodesicBoundaryMap(3, 5)
        pushed = nm.PushedFamily(D, fam2000)
        pushed3 = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        for _ in range(5):
            x = random_ball_point(rng)
            F5 = nm.natural_map(None, pushed, fam2000, x)
            assert np.linalg.norm(F5.coords[3:]) <= 5e-4
            F3 = nm.natural_map(None, pushed3, fam2000, x)
            assert np.linalg.norm(F5.coords[:3] - F3.coords) <= 5e-4

    def test_elementary_rejected(self, fam2000):
        g = geo.hyperbolic_translation(3, 0.7)
        rep = nm.Representation((g, g @ g), (), 3)
        with pytest.raises(nm.ElementaryRepresentationError):
            nm.natural_map(rep, nm.identity_boundary_map(3), fam2000, O3)

    def test_concentrating_map_rejected(self, fam2000):
        D = nm.identity_boundary_map(3)

        class Collapse:
            source_dim = 3
            target_dim = 3
            kind = "test"
            approximate = True

            def map_points(self, p):
                return np.tile([0.0, 0.0, 1.0], (p.shape[0], 1))

        with pytest.raises(nm.ElementaryRepresentationError):
            nm.natural_map(None, Collapse(), fam2000, O3)


class TestOperators:
    def test_identity_isotropy(self, fam2000):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        pair = nm.operators_at(None, pushed, fam2000,
                               geo.HPoint(np.array([0.2, -0.1, 0.3])))
        assert np.linalg.norm(pair.H - np.eye(3) / 3) <= 1e-3
        assert np.linalg.norm(pair.K - 2 * np.eye(3) / 3) <= 1e-3

    def test_trace_one(self, fam2000, holonomy, fig8_path):
        target = fig8_path[3].representation
        D = nm.OrbitBoundaryMap.build(holonomy, target, min_table=5000)
        pair = nm.operators_at(target, nm.PushedFamily(D, fam2000), fam2000,
                               geo.HPoint(np.array([0.15, 0.1, -0.2])))
        assert pair.trace_error <= 1e-6
        assert np.trace(pair.H_prime) == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(pair.K - (np.eye(3) - pair.H))) <= 1e-8

    def test_stationarity_at_image(self, fam2000, rng):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        for _ in range(5):
            x = random_ball_point(rng)
            F = nm.natural_map(None, pushed, fam2000, x)
            assert nm.stationarity_residual(pushed, x.coords, F) <= 1e-8


class TestJacobian:
    def test_identity_case(self, fam2000):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.25, 0.05, -0.15]))
        pair = nm.operators_at(None, pushed, fam2000, x)
        for method in ("implicit", "finite-difference"):
            j = nm.jacobian(None, pushed, fam2000, x, method, pair=pair)
            assert np.max(np.abs(j.DF - np.eye(3))) <= 1e-3
            assert j.jac_k == pytest.approx(1.0, abs=1e-3)

    def test_cross_method_agreement(self, fam2000, holonomy, fig8_path, rng):
        worst = 0.0
        for st in fig8_path[1:5]:
            D = nm.OrbitBoundaryMap.build(holonomy, st.representation,
                                          min_table=5000)
            pushed = nm.PushedFamily(D, fam2000)
            x = random_ball_point(rng, max_radius=0.5)
            ji = nm.jacobian(st.representation, pushed, fam2000, x, "implicit")
            jf = nm.jacobian(st.representation, pushed, fam2000, x,
                             "finite-difference")
            worst = max(worst, float(np.max(np.abs(ji.DF - jf.DF))))
        assert worst <= 1e-3

    def test_deformed_jacobian_below_one(self, fam2000, holonomy, fig8_path, rng):
        for st in fig8_path[1:6]:
            D = nm.OrbitBoundaryMap.build(holonomy, st.representation,
                                          min_table=5000)
            pushed = nm.PushedFamily(D, fam2000)
            x = random_ball_point(rng, max_radius=0.5)
            j = nm.jacobian(st.representation, pushed, fam2000, x, "implicit")
            assert j.jac_k <= 1.0 + 5e-3

    def test_ill_conditioned_fallback(self, fam2000):
        # a synthetic operator pair with nearly singular K exercises the
        # guard; the map itself is benign so the fallback returns ~identity
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.1, 0.0, 0.0]))
        F = nm.natural_map(None, pushed, fam2000, x)
        H = np.diag([1.0 - 2e-7, 1e-7, 1e-7])
        pair = nm.OperatorPair(H, np.eye(3) - H, np.eye(3) / 3, x, F)
        j = nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        assert j.fell_back
        assert j.method == "finite-difference"
        assert j.k_min_eigenvalue < 1e-6
        assert j.jac_k == pytest.approx(1.0, abs=1e-3)


class TestBoundCheck:
    def test_identity_equality_case(self, fam2000):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.1, -0.3, 0.05]))
        pair = nm.operators_at(None, pushed, fam2000, x)
        j = nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        rep = nm.jacobian_bound_check(pair, j, 3, 3)
        assert rep.passed
        assert rep.bound == pytest.approx(1.0, abs=1e-3)
        assert rep.psi_link_error <= 1e-12

    def test_deformed_bound(self, fam2000, holonomy, fig8_path, rng):
        st = fig8_path[5]
        D = nm.OrbitBoundaryMap.build(holonomy, st.representation, min_table=5000)
        pushed = nm.PushedFamily(D, fam2000)
        for _ in range(3):
            x = random_ball_point(rng, max_radius=0.5)
            pair = nm.operators_at(st.representation, pushed, fam2000, x)
            j = nm.jacobian(st.representation, pushed, fam2000, x, "implicit",
                            pair=pair)
            rep = nm.jacobian_bound_check(pair, j, 3, 3)
            assert rep.passed
            assert j.jac_k <= rep.bound + 1e-3

    def test_restricted_bound_m5(self, fam2000):
        D = nm.TotallyGeodesicBoundaryMap(3, 5)
        pushed = nm.PushedFamily(D, fam2000)
        x = geo.HPoint(np.array([0.2, 0.1, -0.1]))
        pair = nm.operators_at(None, pushed, fam2000, x)
        j = nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        rep = nm.jacobian_bound_check(pair, j, 3, 5)
        assert rep.restricted and rep.passed
        Q, _ = np.linalg.qr(j.DF)
        assert np.linalg.norm(Q.T @ pair.H @ Q - np.eye(3) / 3) <= 1e-3


class TestEquivarianceAndDiagnostics:
    def test_natural_map_equivariance_exact_map(self, fam2000, holonomy, rng):
        # with the exact identity boundary map the deviation stays within
        # the solver-plus-quadrature budget
        budget = 2 * (1e-10 + 5e-4)
        x = geo.HPoint(np.array([0.05, 0.1, -0.05]))
        for letter in "ab":
            dev = nm.equivariance_deviation(
                holonomy, nm.identity_boundary_map(3), fam2000, x, letter,
                holonomy.evaluate(letter))
            assert dev <= budget

    def test_constant_sequence_diagnostics(self, fam2000, holonomy):
        D = nm.identity_boundary_map(3)
        probes = [geo.HPoint(np.array([0.2, 0.0, 0.0])),
                  geo.HPoint(np.array([0.0, 0.25, 0.1]))]
        entries = [(float(n), holonomy, D, tr.FIG8_VOLUME) for n in range(3)]
        rows = nm.convergence_diagnostics(entries, fam2000, probes,
                                          tr.FIG8_VOLUME)
        for r in rows:
            assert abs(r.jac - 1.0) <= 1e-3
            assert r.h_deviation <= 1e-3
            assert r.volume_deficit == 0.0
            assert r.translation_lengths == rows[0].translation_lengths
        csv = nm.diagnostics_to_csv(rows)
        assert csv.splitlines()[0].startswith("parameter,probe_index,jac")
