import cmath

import numpy as np
import pytest

from natmap import criteria
from natmap import geometry as geo
from natmap import triangulation as tr
import _oracles as oracles

Z0 = tr.FIG8_COMPLETE_SHAPE
# peripheral words of the two-generator reduction (a = deck transformation
# of gluing (0,1), b = of gluing (0,2); both parabolic at the complete
# structure)
MERIDIAN = "a"
LONGITUDE = "BabAAbaB"


@pytest.fixture(scope="module")
def tri():
    return tr.figure_eight()


class TestBlochWigner:
    def test_real_arguments_are_flat(self):
        for x in (-2.0, -0.3, 0.4, 0.9, 3.7):
            assert tr.bloch_wigner(x + 0j) == 0.0

    def test_regular_tetrahedron_against_series_oracle(self):
        oracle = 3.0 * oracles.lobachevsky(np.pi / 3.0)
        val = tr.bloch_wigner(Z0)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(1.0149416064096535, abs=1e-13)

    def test_against_mpmath(self):
        # 100 seeded points each: on the unit circle, 1e-8 to 1e-2 from 0
        # and from 1, beyond modulus 1e2, and a Gaussian cloud of scale 3
        r = np.random.default_rng(2024)
        n = 100

        def turn():
            return np.exp(1j * r.uniform(-np.pi, np.pi, n))

        small = 10.0 ** r.uniform(-8, -2, n)
        z = np.concatenate([turn(), small * turn(), 1.0 + small * turn(),
                            turn() / small, 3.0 * (r.standard_normal(n)
                                                   + 1j * r.standard_normal(n))])
        ref = np.array([oracles.bloch_wigner_mpmath(zi) for zi in z])
        assert np.max(np.abs(tr.bloch_wigner(z) - ref)) <= 1e-13

    # volume_of_shapes reports 5e-15 per tetrahedron as its error
    # estimate; the complex Li2's inversion prefactor -log(-z)^2 / 2 once
    # cancelled to 5.2e-15 at |z| = 1e2 and 8.7e-15 at |z| = 1e4
    @pytest.mark.parametrize("radius", [1e2, 1e4])
    def test_large_modulus_within_error_estimate(self, radius):
        r = np.random.default_rng(7)
        z = radius * np.exp(1j * r.uniform(-np.pi, np.pi, 300))
        ref = np.array([oracles.bloch_wigner_mpmath(zi) for zi in z])
        err = np.max(np.abs(tr.bloch_wigner(z) - ref))
        assert err <= tr.volume_of_shapes(z[:1]).error_estimate

    # where both reductions apply, 1 - 1/z was once formed by subtraction,
    # and D kept only its absolute accuracy: 1.1e-13 relative here
    def test_near_one_relative_accuracy(self):
        r = np.random.default_rng(7)
        radius = 10.0 ** r.uniform(-4, -1, 500)
        z = 1.0 + radius * np.exp(1j * r.uniform(-np.pi / 2, np.pi / 2, 500))
        assert np.all(np.abs(z) > 1.0) and np.all(np.real(1.0 / z) > 0.5)
        ref = np.array([oracles.bloch_wigner_mpmath(zi) for zi in z])
        assert np.max(np.abs(tr.bloch_wigner(z) - ref) / np.abs(ref)) <= 1e-15

    def test_symmetry_relations(self, rng):
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            assert tr.bloch_wigner(1.0 / z) == pytest.approx(
                -tr.bloch_wigner(z), abs=1e-10)
            assert tr.bloch_wigner(1.0 - z) == pytest.approx(
                -tr.bloch_wigner(z), abs=1e-10)
            assert tr.bloch_wigner(np.conj(z)) == pytest.approx(
                -tr.bloch_wigner(z), abs=1e-10)

    def test_five_term_relation(self, rng):
        for _ in range(10):
            p = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            total = 0.0
            for i in range(5):
                q = [p[j] for j in range(5) if j != i]
                total += (-1) ** i * tr.bloch_wigner(oracles.cross_ratio(*q))
            assert abs(total) < 1e-10

    def test_pole_rejection(self):
        with pytest.raises(ValueError):
            tr.bloch_wigner(0.0 + 0j)


class TestCombinatorics:
    # both were once rebuilt on every access, 203 times per path
    def test_edge_classes(self, tri):
        classes = tri.edge_classes
        assert len(classes) == 2
        assert all(len(c) == 6 for c in classes)
        assert tri.edge_classes is classes

    def test_edge_exponents(self, tri):
        expo = tri.edge_exponents
        assert tri.edge_exponents is expo
        assert not expo.flags.writeable
        # each tetrahedron contributes every slot pair exactly twice
        assert np.array_equal(expo.sum(axis=0), np.full((2, 3), 2))
        rows = {tuple(expo[e].ravel()) for e in range(2)}
        assert rows == {(2, 1, 0, 2, 1, 0), (0, 1, 2, 0, 1, 2)}

    def test_presentation_derived_once_per_triangulation(self, monkeypatch):
        calls = []
        eliminate = tr._eliminate_generators

        def counted(*args):
            calls.append(args)
            return eliminate(*args)

        monkeypatch.setattr(tr, "_eliminate_generators", counted)
        fresh = tr.figure_eight()
        path = tr.deformation_path(fresh, steps=10)
        assert len(calls) == 1
        keys, relators = fresh.presentation
        assert keys == ((0, 1), (0, 2))
        assert len(relators) == 1
        assert all(st.representation.relators == relators for st in path)

    def test_bad_gluings_rejected(self):
        g = dict(tr._FIG8_GLUINGS)
        g[(0, 2)] = (1, 2, (0, 3, 1, 2))    # not inverse-consistent
        with pytest.raises(ValueError):
            tr.IdealTriangulation(2, g, (), "")


class TestGluingResidual:
    def test_complete_solution(self, tri):
        rep = tr.gluing_residual(tri, [Z0, Z0])
        assert rep.max_edge() <= 1e-12
        assert rep.max_cusp() <= 1e-12

    def test_pole_rejected(self, tri):
        with pytest.raises(ValueError, match="pole"):
            tr.gluing_residual(tri, [1.0 + 0j, Z0])

    def test_perturbed_residual_continuous(self, tri):
        eps = 1e-5
        rep = tr.gluing_residual(tri, [Z0 + eps, Z0])
        assert 0 < rep.max_edge() < 1e-3


class TestVolume:
    def test_complete_volume(self):
        v = tr.volume_of_shapes([Z0, Z0])
        assert v.value == pytest.approx(2.029883212819, abs=1e-9)
        assert v.value == pytest.approx(2.0 * 3.0 * oracles.lobachevsky(np.pi / 3),
                                        abs=1e-12)
        assert v.error_estimate < 1e-13

    def test_flat_shapes(self):
        assert tr.volume_of_shapes([0.5 + 0j, 0.3 + 0j]).value == 0.0

    def test_conjugation_negates(self):
        z = complex(0.4, 0.9)
        w = tr.solve_edge_equations(z, 0)
        plus = tr.volume_of_shapes([z, w]).value
        minus = tr.volume_of_shapes([np.conj(z), np.conj(w)]).value
        assert minus == pytest.approx(-plus, abs=1e-12)


class TestHolonomy:
    def test_complete_holonomy(self, tri):
        rep = tr.holonomy_from_shapes(tri, [Z0, Z0], tr.gluing_residual(tri, [Z0, Z0]))
        assert len(rep.generators) == 2
        assert len(rep.relators) == 1
        assert rep.relator_residual(rep.relators[0]) <= 1e-8
        for g in rep.generators:
            assert geo.translation_length(g) <= 1e-6
        for word in (MERIDIAN, LONGITUDE):
            # parabolic: real trace +-2 but not +-I
            A = rep.evaluate(word)
            A = A / cmath.sqrt(complex(np.linalg.det(A)))
            t = complex(np.trace(A))
            assert abs(t.imag) < 1e-10
            assert abs(abs(t.real) - 2.0) < 1e-10
            assert np.max(np.abs(A - np.trace(A) / 2.0 * np.eye(2))) > 1e-3

    def test_cusp_modulus(self, tri):
        # the longitude-to-meridian translation ratio of the cusp lattice
        rep = tr.holonomy_from_shapes(tri, [Z0, Z0], tr.gluing_residual(tri, [Z0, Z0]))
        a = rep.evaluate(MERIDIAN)
        l = rep.evaluate(LONGITUDE)
        a = a / cmath.sqrt(complex(np.linalg.det(a)))
        l = l / cmath.sqrt(complex(np.linalg.det(l)))
        p = (a[0, 0] - a[1, 1]) / (2 * a[1, 0])
        S = np.array([[0, 1], [1, -p]], dtype=complex)
        Sinv = np.array([[p, 1], [1, 0]], dtype=complex)

        def translation(m):
            c = S @ m @ Sinv
            c = c / c[0, 0]
            return c[0, 1]

        ratio = translation(l) / translation(a)
        assert ratio == pytest.approx(2j * np.sqrt(3.0), abs=1e-9)

    def test_deformed_holonomy(self, tri):
        z = Z0 + 0.15 + 0.05j
        w = tr.solve_edge_equations(z, 0)
        if abs(w - Z0) > 1.0:
            w = tr.solve_edge_equations(z, 1)
        rep = tr.holonomy_from_shapes(tri, [z, w], tr.gluing_residual(tri, [z, w]))
        assert rep.relator_residual(rep.relators[0]) <= 1e-8
        assert geo.translation_length(rep.evaluate("a")) > 1e-8
        assert tr.gluing_residual(tri, [z, w]).max_cusp() > 1e-3

    def test_developed_cross_ratios_reproduce_volume(self, tri):
        z = Z0 + 0.1 - 0.04j
        w = tr.solve_edge_equations(z, 0)
        if abs(w - Z0) > 1.0:
            w = tr.solve_edge_equations(z, 1)
        placements, _ = tr.develop(tri, [z, w])
        redone = [oracles.cross_ratio(*pos) for pos in placements]
        direct = tr.volume_of_shapes([z, w]).value
        from_dev = float(np.sum(tr.bloch_wigner(np.asarray(redone))))
        assert from_dev == pytest.approx(direct, abs=1e-9)

    def test_degenerate_shapes_rejected(self, tri):
        with pytest.raises(tr.DevelopingFailureError):
            tr.develop(tri, [1e-12 + 0j, Z0])

    def test_residual_gate(self, tri):
        off = [Z0 + 0.1, Z0]
        with pytest.raises(ValueError):
            tr.holonomy_from_shapes(tri, off, tr.gluing_residual(tri, off))

    def test_one_residual_per_path_step(self, tri, monkeypatch):
        # each step's residual both fills its record and gates its holonomy
        calls = []
        inner = tr.gluing_residual

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(tr, "gluing_residual", counted)
        path = tr.deformation_path(tr.figure_eight(), 50)
        assert len(path) == 51
        assert len(calls) == 51


class TestCuspRows:
    def test_rows_track_peripheral_eigenvalues(self, tri):
        path = tr.deformation_path(tri, steps=10, t_end=0.6)
        for word, row_idx in ((MERIDIAN, 0), (LONGITUDE, 1)):
            for st in path[2::3]:
                # squared dominant eigenvalue of the unit-determinant spin
                A = st.representation.evaluate(word)
                tr_half = complex(np.trace(A)) / cmath.sqrt(complex(np.linalg.det(A))) / 2.0
                mu2 = (tr_half + cmath.sqrt(tr_half * tr_half - 1.0)) ** 2
                logs = np.array([tr.slot_logs(zi) for zi in st.shapes])
                val = complex(np.sum(np.asarray(tri.cusp_rows[row_idx]) * logs))
                # rows give the log of the squared derivative, which is
                # minus twice the squared-eigenvalue log, modulo branch
                lm = cmath.log(mu2)
                best = min(abs(val - s * 2.0 * lm - 2j * np.pi * k)
                           for s in (1, -1) for k in range(-3, 4))
                assert best <= 1e-9


class TestDeformationPath:
    def test_path_contract(self, tri):
        path = tr.deformation_path(tri, steps=25)
        assert path[0].t == 0.0
        assert tr.FIG8_VOLUME - path[0].volume.value == pytest.approx(0.0, abs=1e-12)
        vols = [p.volume.value for p in path]
        assert all(vols[i] > vols[i + 1] for i in range(len(vols) - 1))
        for st in path:
            if st.t >= 1e-2:
                assert tr.FIG8_VOLUME - st.volume.value > 1e-6
            assert st.edge_residual <= 1e-11
        tail = [tr.FIG8_VOLUME - st.volume.value
                for st in path if st.min_pole_distance < 1e-2]
        assert tail and min(tail) > 0

    # one step stopped at t = 0.02, far from the ideal point
    def test_fewer_than_two_steps_rejected(self, tri):
        with pytest.raises(ValueError, match="at least 2 steps"):
            tr.deformation_path(tri, steps=1)

    def test_volume_checks_need_a_step_near_a_pole(self, tri):
        path = tr.deformation_path(tri, steps=4, t_end=0.6)
        assert min(st.min_pole_distance for st in path) >= 1e-2
        samples = tr.sample_gluing_variety(np.random.default_rng(8), 100)
        with pytest.raises(ValueError, match="within 1e-2 of a pole"):
            criteria.volume_checks(path, samples)

    def test_shared_parameters_give_the_same_step(self, tri):
        coarse = tr.deformation_path(tri, steps=10, t_end=0.8)
        fine = tr.deformation_path(tri, steps=19, t_end=0.8)
        # a step depends on its t alone: shared values give the same bits
        coarse_map = {round(p.t, 12): p for p in coarse}
        hits = 0
        for p in fine:
            key = round(p.t, 12)
            if key in coarse_map:
                hits += 1
                q = coarse_map[key]
                assert p.t == q.t
                assert np.array_equal(p.shapes, q.shapes)
                assert p.volume.value == q.volume.value
        assert hits >= 5

    # the partners once came from a least-squares Newton corrector that
    # stopped at residual 1e-12: 6.3e-13 relative from the exact root, and
    # volumes 3.1e-13 off against an error estimate of 1e-14
    def test_partners_are_the_exact_roots(self, tri):
        for st in tr.deformation_path(tri, 50):
            z, w = st.shapes
            exact = min(oracles.fig8_partner_roots_mpmath(z), key=lambda r: abs(r - w))
            assert abs(w - exact) <= 1e-15 * abs(exact)

    def test_volumes_within_error_estimate_of_exact_roots(self, tri):
        for st in tr.deformation_path(tri, 50):
            z, w = st.shapes
            exact = min(oracles.fig8_partner_roots_mpmath(z), key=lambda r: abs(r - w))
            ref = oracles.bloch_wigner_mpmath(z) + oracles.bloch_wigner_mpmath(exact)
            assert abs(st.volume.value - ref) <= st.volume.error_estimate

    def test_branch_one_is_continuous_on_the_segment(self):
        # disc^2 stays 2 pi / 3 away from the square root's cut on the
        # whole segment from the complete shape to the pole at 1, and
        # branch 1 starts at the complete structure
        t = np.linspace(0.0, 1.0, 100_000, endpoint=False)
        z = Z0 + t * (1.0 - Z0)
        b = 1.0 - z
        assert np.max(np.abs(np.angle(b * b + 4.0 * z * z * b))) <= np.pi / 3 + 1e-9
        w0 = tr.solve_edge_equations(Z0, 1)
        assert abs(w0.real - Z0.real) <= 2 * np.spacing(Z0.real)
        assert abs(w0.imag - Z0.imag) <= 2 * np.spacing(Z0.imag)


class TestVarietySampling:
    def test_samples_satisfy_edge_equations(self, tri, rng):
        samples = tr.sample_gluing_variety(rng, 200)
        expo = tri.edge_exponents
        for z, w in samples[:50]:
            logs = np.array([tr.slot_logs(z), tr.slot_logs(w)])
            prods = np.exp(np.einsum("etc,tc->e", expo, logs))
            assert np.max(np.abs(prods - 1.0)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reference(self, seed):
        got = tr.sample_gluing_variety(np.random.default_rng(seed), 10_000)
        ref = oracles.sample_gluing_variety_scalar(np.random.default_rng(seed), 10_000)
        assert got.shape == ref.shape == (10_000, 2)
        assert np.array_equal(got[:, 0], ref[:, 0])
        assert np.max(np.abs(got[:, 1] - ref[:, 1]) / np.abs(ref[:, 1])) <= 1e-13

    def test_volume_bounded_by_complete(self, tri, rng):
        samples = tr.sample_gluing_variety(rng, 2000)
        vols = tr.bloch_wigner(samples[:, 0]) + tr.bloch_wigner(samples[:, 1])
        assert vols.max() <= tr.FIG8_VOLUME + 1e-9
