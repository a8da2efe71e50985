import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from natmap import barycenter as bary
from natmap import geometry as geo
from natmap import measures as ms
from natmap import natural_map as nm
from natmap import spd
from natmap import triangulation as tr
from conftest import random_ball_point, spin_boost
import _oracles as oracles

O3 = geo.HPoint(np.zeros(3))
# the property tests' family and maps, built once for all their examples
FAM = ms.VisualFamily(3, 2000)
IDENTITY = nm.PushedFamily(nm.identity_boundary_map(3), FAM)
GEODESIC_M5 = nm.PushedFamily(nm.TotallyGeodesicBoundaryMap(3, 5), FAM)


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
        with pytest.raises(ValueError, match="relator 'a' fails"):
            nm.Representation((spin_boost(1.0),), ("a",))

    def test_word_evaluation(self, holonomy):
        a = geo.psl2_to_lorentz(holonomy.evaluate("a"))
        ainv = geo.psl2_to_lorentz(holonomy.evaluate("A"))
        prod = a.lorentz @ ainv.lorentz
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12


class TestBoundaryMaps:
    def test_mobius_exact_equivariance(self, rng, fam2000):
        g = geo.random_isometry(rng, 3, 0.5, 0.5)
        D = nm.MobiusBoundaryMap(g)
        pts = rng.standard_normal((100, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # D intertwines gamma with g gamma g^-1 exactly
        gamma = geo.random_isometry(rng, 3, 0.4, 0.4)
        lhs = D.map_points(gamma.apply_boundary_many(pts))
        J = geo.minkowski(4)
        rho = geo.Isometry(g.lorentz @ gamma.lorentz @ J @ g.lorentz.T @ J)
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


def _orbit_table_per_word(source, target, max_word_length):
    """The orbit table one reduced word at a time, from the scalar
    translation length and fixed points of each evaluated word."""
    src, tgt = [], []
    for w in oracles.enumerate_reduced_words(len(source.generators), max_word_length):
        gs, gt = source.evaluate(w), target.evaluate(w)
        if (oracles.translation_length_scalar(gs) > nm.ORBIT_LENGTH_TOL
                and oracles.translation_length_scalar(gt) > nm.ORBIT_LENGTH_TOL):
            src.append(oracles.loxodromic_fixed_points_scalar(gs)[0])
            tgt.append(oracles.loxodromic_fixed_points_scalar(gt)[0])
    return np.asarray(src), np.asarray(tgt)


def _uncached(rep):
    """An equal representation whose orbit-table source cache is empty."""
    return nm.Representation(rep.generators, rep.relators)


def stationarity_residual(pushed, x, image):
    """Norm of the integrated Busemann differential at the image of x."""
    b = geo.busemann_gradients_frame(image.coords, pushed.images, None)
    return float(np.linalg.norm(pushed.source_side(x.coords)[0] @ b))


class TestOrbitTable:
    def test_word_order_matches_enumeration(self):
        words, level = [], [""]
        for parent, letter in nm._reduced_word_tree(2, 6):
            prefixes = [""] * letter.size if parent is None else [level[p] for p in parent]
            level = [w + "aAbB"[c] for w, c in zip(prefixes, letter)]
            words += level
        assert words == list(oracles.enumerate_reduced_words(2, 6))

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
        source = _uncached(fig8_path50[1].representation)
        target = fig8_path50[50].representation
        sizes = []
        for length in (6, 8, 6, 8):
            D = nm.OrbitBoundaryMap.build(source, target, max_word_length=length,
                                          min_table=1)
            ref = nm.OrbitBoundaryMap.build(_uncached(source), target,
                                            max_word_length=length, min_table=1)
            assert np.array_equal(D.table_source, ref.table_source)
            assert np.array_equal(D.table_target, ref.table_target)
            sizes.append(D.table_source.shape[0])
            # writing into a returned table must not reach the next build
            D.table_source[:] = 0.0
            D.table_target[:] = 0.0
        assert sizes[0] == sizes[2] < sizes[1] == sizes[3]
        for words, lox, fixed in source._orbit_sources.values():
            assert not lox.flags.writeable and not fixed.flags.writeable
            assert not any(a.flags.writeable for level in words for a in level
                           if a is not None)

    # The parabolic words' computed lengths are rounding, so ulp-scale
    # perturbations of the generators must not carry a word across the
    # threshold.  Under 1e-6, 6 of 20 perturbations drawn from
    # default_rng(0) flipped words at the complete structure.
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2.0 * np.pi)),
                    min_size=8, max_size=8))
    def test_loxodromic_masks_survive_ulp_perturbations(self, fig8_path50, deltas):
        # one factor 1 + delta per generator entry, |delta| up to 4 ulps
        r, phase = np.array(deltas).T
        factors = (1.0 + np.finfo(float).eps * r * np.exp(1j * phase)).reshape(2, 2, 2)
        words = nm._reduced_word_tree(2, 8)
        for step in (0, 1, 25, 50):
            rep = fig8_path50[step].representation
            perturbed = [g * f for g, f in zip(rep.generators, factors)]
            perturbed = nm.Representation(
                [g / np.sqrt(np.linalg.det(g)) for g in perturbed], ())
            mask = geo.translation_length(nm._word_spins(rep, words)) > nm.ORBIT_LENGTH_TOL
            moved = geo.translation_length(nm._word_spins(perturbed, words))
            assert np.array_equal(moved > nm.ORBIT_LENGTH_TOL, mask), step

    def test_attracting_point_at_infinity(self):
        # 'a' fixes 0 and inf, attracting inf: the table holds the north pole
        a = np.diag([2.0, 0.5]).astype(complex)
        b = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
        rep = nm.Representation((a, b), ())
        D = nm.OrbitBoundaryMap.build(rep, rep, max_word_length=4, min_table=1)
        src, tgt = _orbit_table_per_word(rep, rep, 4)
        assert np.array_equal(D.table_source, src)
        assert np.array_equal(D.table_target, tgt)
        assert np.any(np.all(src == [0.0, 0.0, 1.0], axis=1))


class TestNaturalMapExactCases:
    def test_identity_boundary_map(self, fam2000, rng):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        for _ in range(10):
            x = random_ball_point(rng)
            F = nm.natural_map(None, pushed, fam2000, x)
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

    def test_concentrating_map_rejected(self, fam2000):
        D = nm.identity_boundary_map(3)

        class Collapse:
            source_dim = 3
            target_dim = 3
            kind = "test"
            approximate = True

            def map_points(self, p):
                return np.tile([0.0, 0.0, 1.0], (p.shape[0], 1))

        # every image in one cluster, found once when the family is built
        pushed = nm.PushedFamily(Collapse(), fam2000)
        assert not pushed.labels.any()
        with pytest.raises(nm.ElementaryRepresentationError):
            nm.natural_map(None, pushed, fam2000, O3)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 4.0), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_identity_resolved_or_gated(self, radius, direction):
        # out to radius 4, the identity's natural map stays within the
        # 5e-4 displacement budget wherever the weights resolve the density
        d = np.asarray(direction)
        assume(np.linalg.norm(d) >= 1e-3)
        x = geo.HPoint(np.tanh(radius / 2.0) * d / np.linalg.norm(d))
        try:
            F = nm.natural_map(None, IDENTITY, FAM, x)
        except nm.UnresolvedVisualMeasureError:
            assert radius > 2.0
            return
        assert geo.distance(F, x) <= 5e-4

    def test_unresolved_density_far_out(self, fam2000):
        # at distance 3.5 from the origin, toward a node, that node carries
        # over half the visual mass: the identity is not elementary, the
        # 2048-node rule just cannot resolve the density there
        assert not issubclass(nm.UnresolvedVisualMeasureError,
                              nm.ElementaryRepresentationError)
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        for j, top in ((1000, "0.646"), (1500, "0.531")):
            x = geo.HPoint(np.tanh(3.5 / 2.0) * pushed.nodes[j])
            with pytest.raises(nm.UnresolvedVisualMeasureError,
                               match=f"one of 2048 quadrature nodes carries {top}"):
                nm.natural_map(None, pushed, fam2000, x)


@pytest.fixture
def label_calls(monkeypatch):
    """Point counts of the `atom_labels` calls made through the library."""
    calls = []

    def counted(points):
        calls.append(points.shape[0])
        return ms.atom_labels(points)

    monkeypatch.setattr(nm, "atom_labels", counted)
    monkeypatch.setattr(bary, "atom_labels", counted)
    return calls


class TestClusterOnce:
    def test_one_clustering_per_family(self, fam2000, label_calls):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        assert label_calls == [2048]
        assert not pushed.labels.flags.writeable
        x = geo.HPoint(np.array([0.2, -0.1, 0.3]))
        nm.natural_map(None, pushed, fam2000, x)
        pair = nm.operators_at(None, pushed, fam2000, x)
        nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        # 2k more solves, none of which clusters again
        nm.jacobian(None, pushed, fam2000, x, "finite-difference", pair=pair)
        assert label_calls == [2048]

    # the labels of the fixed images give each solve what clustering the
    # weighted measure afresh gives it, bit for bit
    @pytest.mark.parametrize("case", ["identity", "mobius", "geodesic-m5", "orbit"])
    def test_natural_map_equals_fresh_clustering(self, case, fam2000, holonomy,
                                                 fig8_path, label_calls):
        rng = np.random.default_rng(11)
        if case == "identity":
            D = nm.identity_boundary_map(3)
        elif case == "mobius":
            D = nm.MobiusBoundaryMap(geo.random_isometry(rng, 3, 0.5, 0.5))
        elif case == "geodesic-m5":
            D = nm.TotallyGeodesicBoundaryMap(3, 5)
        else:
            D = nm.OrbitBoundaryMap.build(holonomy, fig8_path[3].representation,
                                          max_word_length=8, min_table=5000)
        pushed = nm.PushedFamily(D, fam2000)
        if case == "orbit":
            # nodes that share a table entry share an image: clusters of many
            sizes = np.bincount(pushed.labels)
            assert sizes.size < pushed.images.shape[0] and sizes.max() > 1
        for _ in range(4):
            x = random_ball_point(rng, max_radius=0.8)
            calls = len(label_calls)
            got = nm.natural_map(None, pushed, fam2000, x)
            assert len(label_calls) == calls
            beta = ms.BoundaryMeasure(pushed.source_side(x.coords)[0], pushed.images)
            want = bary.barycenter(beta).location
            assert len(label_calls) == calls + 1
            assert np.array_equal(got.coords, want.coords)


class TestWeightedOuterProducts:
    """The two-operand contractions are bitwise the three-operand form, so
    a numpy that reorders einsum's reduction fails here rather than as a
    changed CLI byte."""

    def test_derivatives_hessian(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 7, 64, 2048, 8192, 9000, *rng.integers(1, 9001, 40)):
            for k in range(2, 6):
                pts = rng.standard_normal((n, k))
                beta = ms.atomic_measure(rng.random(n) + 1e-3, pts)
                y = random_ball_point(rng, k, 2.0).coords
                b = geo.busemann_gradients_frame(y, beta.points, None)
                hess = np.eye(k) - bary.busemann_moments(beta.weights, beta.points, y, None)[2]
                want = np.eye(k) - oracles.weighted_outer(beta.weights, b, b)
                assert np.array_equal(hess, want), (n, k)

    @pytest.mark.parametrize("k, m, nodes", [
        (2, 2, 1), (2, 4, 9000), (3, 3, 2000), (3, 5, 8192), (4, 4, 700),
        (4, 5, 3000), (5, 5, 1500)])
    def test_operators_h_and_l(self, k, m, nodes):
        rng = np.random.default_rng(k * 100 + m)
        family = ms.VisualFamily(k, nodes)
        D = (nm.identity_boundary_map(k) if k == m
             else nm.TotallyGeodesicBoundaryMap(k, m))
        pushed = nm.PushedFamily(D, family)
        for _ in range(3):
            x = random_ball_point(rng, k, 0.5)
            w, a = pushed.source_side(x.coords)
            # the moments at a random point, which one node or k = 2 also have
            y = random_ball_point(rng, m, 1.0).coords
            b = geo.busemann_gradients_frame(y, pushed.images, None)
            _, wb, H = bary.busemann_moments(w, pushed.images, y, None)
            assert np.array_equal(H, oracles.weighted_outer(w, b, b))
            assert np.array_equal(np.einsum("ij,il->jl", wb, a), oracles.weighted_outer(w, b, a))
            if nodes == 1:
                continue                    # one atom: no interior barycenter
            # the operators at F(x)
            pair = nm.operators_at(None, pushed, family, x)
            b = geo.busemann_gradients_frame(pair.image.coords, pushed.images, None)
            assert np.array_equal(pair.H, oracles.weighted_outer(w, b, b))
            assert np.array_equal(pair.L, oracles.weighted_outer(w, b, a))


def _operators_reference(pushed, x):
    """F(x), H and L as a fresh solve and gradient arrays rebuilt at its
    image give them, with the three-operand contractions."""
    w, a = pushed.source_side(x.coords)
    image = bary.barycenter(ms.BoundaryMeasure(w, pushed.images), labels=pushed.labels).location
    b = geo.busemann_gradients_frame(image.coords, pushed.images, None)
    return image.coords, oracles.weighted_outer(w, b, b), oracles.weighted_outer(w, b, a)


def _boundary_map(case, holonomy, fig8_path):
    if case == "identity":
        return nm.identity_boundary_map(3)
    if case == "mobius":
        return nm.MobiusBoundaryMap(geo.random_isometry(np.random.default_rng(4), 3, 0.5, 0.5))
    if case == "geodesic-m5":
        return nm.TotallyGeodesicBoundaryMap(3, 5)
    return nm.OrbitBoundaryMap.build(holonomy, fig8_path[3].representation,
                                     max_word_length=8, min_table=5000)


@pytest.fixture
def solves(monkeypatch):
    """Measures of the barycenter solves the natural map makes."""
    calls = []

    def counted(beta, labels=None):
        calls.append(beta)
        return bary.barycenter(beta, labels=labels)

    monkeypatch.setattr(nm, "barycenter", counted)
    return calls


class TestEvaluationRecord:
    """The operators at a basepoint read the solve's last Newton step from
    the family's latest record, bitwise what rebuilding them gives."""

    @pytest.mark.parametrize("case", ["identity", "mobius", "geodesic-m5", "orbit"])
    def test_operators_bitwise_in_any_order(self, case, fam2000, holonomy, fig8_path):
        D = _boundary_map(case, holonomy, fig8_path)
        rng = np.random.default_rng(21)
        xs = [random_ball_point(rng, max_radius=0.8) for _ in range(3)]
        want = [_operators_reference(nm.PushedFamily(D, fam2000), x) for x in xs]

        def check(pair, i):
            image, H, L = want[i]
            assert np.array_equal(pair.image.coords, image)
            assert np.array_equal(pair.H, H) and np.array_equal(pair.L, L)
            assert np.array_equal(pair.K, np.eye(H.shape[0]) - H)

        pushed = nm.PushedFamily(D, fam2000)
        for i, x in enumerate(xs):          # the map, then its operators
            F = nm.natural_map(None, pushed, fam2000, x)
            check(nm.operators_at(None, pushed, fam2000, x, image=F), i)
            check(nm.operators_at(None, pushed, fam2000, x), i)
        for i, x in enumerate(xs):          # operators alone, on fresh families
            check(nm.operators_at(None, nm.PushedFamily(D, fam2000), fam2000, x), i)
        pushed = nm.PushedFamily(D, fam2000)
        images = [nm.natural_map(None, pushed, fam2000, x) for x in xs]
        for i in (0, 2, 1, 0):              # other basepoints in between
            check(nm.operators_at(None, pushed, fam2000, xs[i], image=images[i]), i)
            check(nm.operators_at(None, pushed, fam2000, xs[i]), i)

    def test_one_solve_per_basepoint(self, fam2000, solves):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.2, -0.1, 0.3]))
        y = geo.HPoint(np.array([-0.3, 0.1, 0.1]))
        F = nm.natural_map(None, pushed, fam2000, x)
        pair = nm.operators_at(None, pushed, fam2000, x, image=F)
        nm.operators_at(None, pushed, fam2000, x)
        nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        assert len(solves) == 1
        # the operators exist at F(x) only: another image raises, unsolved
        with pytest.raises(ValueError, match=r"F\(x\) only"):
            nm.operators_at(None, pushed, fam2000, x, image=y)
        assert len(solves) == 1
        nm.operators_at(None, pushed, fam2000, y)
        assert len(solves) == 2
        # the record now sits at y: x is solved again, bit for bit
        again = nm.operators_at(None, pushed, fam2000, x)
        assert len(solves) == 3
        assert np.array_equal(again.H, pair.H) and np.array_equal(again.L, pair.L)
        # the map itself solves at each call
        nm.natural_map(None, pushed, fam2000, x)
        assert len(solves) == 4

    def test_writes_do_not_reach_the_record(self, fam2000):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.1, 0.25, -0.2]))
        _, H, L = _operators_reference(pushed, x)
        pair = nm.operators_at(None, pushed, fam2000, x)
        pair.H[:] = 0.0
        pair.K[:] = 0.0
        pair.L[:] = 0.0
        again = nm.operators_at(None, pushed, fam2000, x)
        assert np.array_equal(again.H, H) and np.array_equal(again.L, L)
        record = pushed.latest(x.coords)
        arrays = (record.weights, record.a, record.image.coords,
                  record.result.wb, record.result.H)
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError):
            again.image.coords[0] = 0.0
        # the key is the basepoint's value, not the array that carried it
        moved = x.coords.copy()
        moved[0] += 0.1
        assert pushed.latest(moved) is None
        assert pushed.latest(x.coords.copy()) is record


class TestOperators:
    def test_identity_isotropy(self, fam2000):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        pair = nm.operators_at(None, pushed, fam2000,
                               geo.HPoint(np.array([0.2, -0.1, 0.3])))
        assert np.linalg.norm(pair.H - np.eye(3) / 3) <= 1e-3
        assert np.linalg.norm(pair.K - 2 * np.eye(3) / 3) <= 1e-3

    def test_trace_one(self, fam2000, holonomy, fig8_path):
        target = fig8_path[3].representation
        D = nm.OrbitBoundaryMap.build(holonomy, target, max_word_length=8,
                                      min_table=5000)
        pair = nm.operators_at(target, nm.PushedFamily(D, fam2000), fam2000,
                               geo.HPoint(np.array([0.15, 0.1, -0.2])))
        assert abs(np.trace(pair.H) - 1.0) <= 1e-6
        assert np.max(np.abs(pair.K - (np.eye(3) - pair.H))) <= 1e-8

    def test_stationarity_at_image(self, fam2000, rng):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        for _ in range(5):
            x = random_ball_point(rng)
            F = nm.natural_map(None, pushed, fam2000, x)
            assert stationarity_residual(pushed, x, F) <= 1e-8


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
                                          max_word_length=8, min_table=5000)
            pushed = nm.PushedFamily(D, fam2000)
            x = random_ball_point(rng, max_radius=0.5)
            pair = nm.operators_at(st.representation, pushed, fam2000, x)
            ji = nm.jacobian(st.representation, pushed, fam2000, x, "implicit", pair=pair)
            jf = nm.jacobian(st.representation, pushed, fam2000, x,
                             "finite-difference", pair=pair)
            worst = max(worst, float(np.max(np.abs(ji.DF - jf.DF))))
        assert worst <= 1e-3

    def test_deformed_jacobian_below_one(self, fam2000, holonomy, fig8_path, rng):
        for st in fig8_path[1:6]:
            D = nm.OrbitBoundaryMap.build(holonomy, st.representation,
                                          max_word_length=8, min_table=5000)
            pushed = nm.PushedFamily(D, fam2000)
            x = random_ball_point(rng, max_radius=0.5)
            pair = nm.operators_at(st.representation, pushed, fam2000, x)
            j = nm.jacobian(st.representation, pushed, fam2000, x, "implicit", pair=pair)
            assert j.jac_k <= 1.0 + 5e-3

    def test_implicit_reads_the_pair(self, fam2000, monkeypatch):
        # the implicit Jacobian solves K DF = (k-1) L from the pair alone
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.1, -0.3, 0.05]))
        pair = nm.operators_at(None, pushed, fam2000, x)

        def recomputed(*args):
            raise AssertionError("the implicit Jacobian recomputed the pair's inputs")

        monkeypatch.setattr(nm, "busemann_gradients_frame", recomputed)
        monkeypatch.setattr(nm.PushedFamily, "source_side", recomputed)
        j = nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        assert np.array_equal(j.DF, 2 * np.linalg.solve(pair.K, pair.L))

    def test_ill_conditioned_k_solved_implicitly(self, fam2000, solves):
        # a synthetic operator pair with nearly singular K: the implicit DF
        # still solves K DF = (k-1) L, with no fallback to solves of the map
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.1, 0.0, 0.0]))
        F = nm.natural_map(None, pushed, fam2000, x)
        H = np.diag([1.0 - 2e-7, 1e-7, 1e-7])
        pair = nm.OperatorPair(H, np.eye(3) - H, 2 * np.eye(3) / 3, F)
        j = nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        assert np.array_equal(j.DF, 2 * np.linalg.solve(pair.K, pair.L))
        assert len(solves) == 1


class TestBoundCheck:
    def test_identity_equality_case(self, fam2000):
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.1, -0.3, 0.05]))
        pair = nm.operators_at(None, pushed, fam2000, x)
        j = nm.jacobian(None, pushed, fam2000, x, "implicit", pair=pair)
        rep = nm.jacobian_bound_check(pair, j, 3, 3)
        assert rep.passed
        assert rep.bound == pytest.approx(1.0, abs=1e-3)
        # at k = m = 3 the bound is (4/3)^(3/2) sqrt(psi(H))
        assert abs(rep.bound - (4 / 3) ** 1.5 * np.sqrt(spd.psi(pair.H))) <= 1e-12

    def test_deformed_bound(self, fam2000, holonomy, fig8_path, rng):
        st = fig8_path[5]
        D = nm.OrbitBoundaryMap.build(holonomy, st.representation, max_word_length=8,
                                      min_table=5000)
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
        assert rep.passed
        Q, _ = np.linalg.qr(j.DF)
        assert np.linalg.norm(Q.T @ pair.H @ Q - np.eye(3) / 3) <= 1e-3


class TestEquivarianceAndDiagnostics:
    def test_natural_map_equivariance_exact_map(self, fam2000, holonomy, rng):
        # with the exact identity boundary map the deviation stays within
        # the solver-plus-quadrature budget
        budget = 2 * (1e-10 + 5e-4)
        pushed = nm.PushedFamily(nm.identity_boundary_map(3), fam2000)
        x = geo.HPoint(np.array([0.05, 0.1, -0.05]))
        fx = nm.natural_map(holonomy, pushed, fam2000, x)
        for letter in "ab":
            g = geo.psl2_to_lorentz(holonomy.evaluate(letter))
            assert geo.distance(nm.natural_map(holonomy, pushed, fam2000, g.apply(x)),
                                g.apply(fx)) <= budget

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


def _probe(seed):
    """A probe within hyperbolic radius 1 and a random isometry."""
    rng = np.random.default_rng(seed)
    return random_ball_point(rng, max_radius=1.0), geo.random_isometry(rng, 3, 0.3, 0.5)


class TestInvariants:
    """The paper's identities at random probes, on exact boundary maps."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_one_and_stationarity(self, seed):
        x, g = _probe(seed)
        for pushed in (IDENTITY, nm.PushedFamily(nm.MobiusBoundaryMap(g), FAM),
                       GEODESIC_M5):
            pair = nm.operators_at(None, pushed, FAM, x)
            assert abs(np.trace(pair.H) - 1.0) <= 1e-12
            assert stationarity_residual(pushed, x, pair.image) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_jacobian_bound(self, seed):
        x, g = _probe(seed)
        for pushed in (IDENTITY, nm.PushedFamily(nm.MobiusBoundaryMap(g), FAM),
                       GEODESIC_M5):
            pair = nm.operators_at(None, pushed, FAM, x)
            jac = nm.jacobian(None, pushed, FAM, x, "implicit", pair=pair)
            assert nm.jacobian_bound_check(pair, jac, 3, pushed.target_dim).passed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_identity_map_equivariance(self, seed):
        # F(y) is within the 5e-4 quadrature budget of y out to radius
        # about 2, and the solver stops at gradient 1e-10; F(gx) and g F(x)
        # differ by at most twice that
        x, g = _probe(seed)
        assume(geo.distance(O3, g.apply(x)) <= 1.5)
        lhs = nm.natural_map(None, IDENTITY, FAM, g.apply(x))
        rhs = g.apply(nm.natural_map(None, IDENTITY, FAM, x))
        assert geo.distance(lhs, rhs) <= 2 * (1e-10 + 5e-4)
