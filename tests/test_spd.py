import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from natmap import spd
import _oracles as oracles


class TestPsi:
    def test_maximum_value(self):
        assert spd.psi(np.eye(3) / 3) == pytest.approx(
            27 / 64, abs=1e-14)
        assert spd.psi_max(3) == 27 / 64

    def test_hand_evaluated_diagonal(self):
        H = np.diag([0.5, 0.25, 0.25])
        # eigenvalue product oracle: prod a/(1-a)^2
        oracle = (0.5 * 0.25 * 0.25) / ((0.5 * 0.75 * 0.75) ** 2)
        assert oracle == pytest.approx(32 / 81, abs=1e-15)
        assert spd.psi(H) == pytest.approx(32 / 81, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_conjugation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        H = spd.random_trace_one_spd(rng, rng.dirichlet(np.ones(3), size=1))[0]
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert spd.psi(Q @ H @ Q.T) == pytest.approx(spd.psi(H), abs=1e-12)

    def test_eigenvalue_reduction(self, rng):
        H = spd.random_trace_one_spd(rng, rng.dirichlet(np.ones(3), size=20))
        for h in H:
            eigs = np.sort(np.linalg.eigvalsh(h))
            assert spd.psi(h) == pytest.approx(spd.psi_simplex(eigs), abs=1e-12)

    def test_characteristic_polynomial_identity(self, rng):
        # |p_H(0)| / p_H(1)^2 with p from the characteristic polynomial
        for h in spd.random_trace_one_spd(rng, rng.dirichlet(np.ones(3), size=10)):
            p = np.poly(h)
            val = abs(np.polyval(p, 0.0)) / np.polyval(p, 1.0) ** 2
            assert val == pytest.approx(spd.psi(h), abs=1e-12)


class TestPsiSimplex:
    def test_center_values(self):
        assert spd.psi_simplex(np.full(3, 1 / 3)) == pytest.approx(27 / 64, abs=1e-15)
        assert spd.psi_simplex(np.full(4, 0.25)) == pytest.approx(
            256 / 6561, abs=1e-15)
        assert spd.psi_simplex(np.full(4, 0.25)) == pytest.approx(
            spd.psi_max(4), abs=1e-15)

    def test_permutation_invariance(self, rng):
        for _ in range(10):
            a = rng.dirichlet(np.ones(4))
            b = rng.permutation(a)
            assert spd.psi_simplex(a) == pytest.approx(spd.psi_simplex(b), rel=1e-14)


class TestRandomSampler:
    def test_samples_are_trace_one_spd(self, rng):
        H = spd.random_trace_one_spd(rng, rng.dirichlet(np.ones(4), size=200))
        assert np.max(np.abs(np.einsum("sii->s", H) - 1.0)) < 1e-12
        assert np.max(np.abs(H - H.transpose(0, 2, 1))) < 1e-12
        assert min(np.linalg.eigvalsh(h).min() for h in H) > 0

    def test_bound_holds_on_samples(self, rng):
        for k in (3, 4, 5):
            vals = spd.psi(spd.random_trace_one_spd(
                rng, rng.dirichlet(np.ones(k), size=50_000)))
            assert vals.max() <= spd.psi_max(k) + 1e-12

    def test_k2_unbounded_witness(self):
        # psi on diag(a, 1-a) is 1/(a(1-a)), blowing up toward the vertices
        a = np.geomspace(0.4, 1e-9, 30)
        vals = spd.psi_simplex(np.column_stack([a, 1.0 - a]))
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 1e8


class TestBoundaryScan:
    def test_k3_collar_and_exact_supremum(self):
        rep = spd.boundary_bound_scan(3, 1e-3, 100_000, seed=1)
        assert rep.passed
        # the measured max approaches the exact collar supremum from below
        assert rep.max_value <= spd.collar_supremum(1e-3) + 1e-12
        assert rep.max_value >= 0.25
        # the supremum exceeds 1/4 by margin/2 up to higher order
        assert spd.collar_supremum(1e-3) == pytest.approx(0.2505, abs=1e-4)
        for m in (1e-3, 1e-4, 1e-5):
            sup = spd.collar_supremum(m)
            assert sup == pytest.approx(oracles.collar_supremum_golden(m), abs=1e-13)
            # regression: the supremum lies on the ridge b* ~ m (1 + 2m), a
            # leading-order m^2/4 above the symmetric point (m, m, 1-2m)
            symmetric = (1.0 - 2.0 * m) / (4.0 * (1.0 - m) ** 4)
            assert sup - symmetric == pytest.approx(m * m / 4.0, rel=10 * m)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3.0, -1.0), st.floats(1e-12, 1e-6), st.floats(-1.0, 1.0))
    def test_ridge_points_below_collar_supremum(self, log_margin, shrink, offset):
        # collar points on (offset 0) and near the ridge b* = y (1 + 2y + 6y^2
        # + O(y^3)), with the smallest coordinate y just below the margin
        margin = 10.0 ** log_margin
        y = margin * (1.0 - shrink)
        b = y * (1.0 + 2.0 * y + 6.0 * y * y + offset * y)
        pt = np.array([y, b, 1.0 - y - b])
        assert pt.min() < margin
        assert spd.psi_simplex(pt) <= spd.collar_supremum(margin) + 1e-12

    # a subnormal margin once put the corner probe margin (1 - 1e-6), rounded
    # back onto the margin, outside the collar
    def test_collar_supremum_margin_range(self):
        for margin in (0.0, -1e-3, 0.2, 5e-324, np.finfo(float).tiny / 2):
            with pytest.raises(ValueError):
                spd.collar_supremum(margin)

    # below margin 1e-161 the supremum once underflowed: 0.0 at 1e-162, a
    # ZeroDivisionError from 1e-200 down; near the smallest normal margin
    # the ridge bisection of the corner probes warned of overflow
    @pytest.mark.parametrize("margin", [np.finfo(float).tiny, 1e-300, 1e-200,
                                        1e-162, 1e-150])
    def test_collar_supremum_at_tiny_margins(self, margin):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert abs(spd.collar_supremum(margin) - 0.25) <= 1e-15
            pts = spd._collar_samples_k3(np.random.default_rng(0), margin, 1000)
        assert np.all(pts.min(axis=1) < margin)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(np.finfo(float).tiny, spd.COLLAR_MARGIN_MAX),
           st.integers(1, 20_000), st.integers(0, 2**32 - 1))
    def test_collar_samples_lie_in_collar(self, margin, n, seed):
        pts = spd._collar_samples_k3(np.random.default_rng(seed), margin, n)
        assert pts.shape == (n, 3)
        assert np.all(pts >= 0.0)
        assert np.max(np.abs(pts.sum(axis=1) - 1.0)) <= 1e-15
        assert np.all(pts.min(axis=1) < margin)

    # the random strips stay below the deterministic corner probes, so the
    # report, and with it the psi-scan bytes, does not depend on the seed
    @pytest.mark.parametrize("margin, n", [(1e-3, 100_000), (1e-4, 10_000)])
    def test_k3_scan_independent_of_seed(self, margin, n):
        reports = [spd.boundary_bound_scan(3, margin, n, seed=s) for s in range(10)]
        assert all(rep == reports[0] for rep in reports)
        assert reports[0].passed

    # psi_simplex once formed 1 - c from c near 1: the scan read above the
    # supremum from margin 1e-6 down and inf below about 1e-16, and rows
    # whose two small coordinates multiplied to a subnormal read nan
    @settings(max_examples=60, deadline=None)
    @given(st.floats(np.log(np.finfo(float).tiny), np.log(spd.COLLAR_MARGIN_MAX)))
    @example(np.log(np.finfo(float).tiny))
    @example(np.log(1e-6))
    def test_k3_scan_exact_at_small_margins(self, log_margin):
        margin = min(max(float(np.exp(log_margin)), np.finfo(float).tiny),
                     spd.COLLAR_MARGIN_MAX)
        rep = spd.boundary_bound_scan(3, margin, 10_000, seed=0)
        rows = spd._collar_samples_k3(np.random.default_rng(0), margin, 10_000)
        assert np.all(np.isfinite(spd.psi_simplex(rows)))
        assert rep.max_value <= spd.collar_supremum(margin) + 1e-12
        assert rep.passed

    def test_non_vertex_sequences_vanish(self):
        for alpha in (0.2, 0.5, 0.8):
            vals, limit = spd.edge_limit_values(alpha)
            assert np.all(np.diff(np.abs(vals)) < 0)
            assert abs(limit) <= 1e-4

    def test_k4_vertex_envelope(self):
        rep = spd.boundary_bound_scan(4, 2.5e-3, 10_000, seed=1)
        assert rep.passed
        assert rep.max_value <= 1.01

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            spd.boundary_bound_scan(2, 1e-3, 10, seed=0)

    # s = k margin U left the simplex for margin >= 1/k, and the scan
    # reported a failed envelope instead of refusing the margin
    @pytest.mark.parametrize("k, margin", [(4, 0.3), (4, 0.25), (4, -0.01),
                                           (4, 0.0), (5, 0.2), (3, 0.2), (3, 0.0)])
    def test_margin_out_of_range(self, k, margin):
        with pytest.raises(ValueError):
            spd.boundary_bound_scan(k, margin, 10, seed=0)


class TestQuantitativeConverse:
    # k = 1 once divided by zero in psi_max; at k = 2 psi has no maximum
    @pytest.mark.parametrize("k", [1, 2])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            spd.quantitative_converse(k, 1e-4, 10, seed=0)

    def test_exact_maximum_recovers_center(self):
        rep = spd.quantitative_converse(3, 0.0, 100_000, seed=2)
        assert rep.delta_max_sampled <= 1e-7

    def test_small_level_certified_by_grid(self):
        rep = spd.quantitative_converse(3, 1e-4, 100_000, seed=2)
        assert rep.delta_max_sampled <= 0.02
        assert rep.delta_max_grid + 2 * rep.grid_step <= 0.02

    def test_monotone_in_eps(self):
        deltas = [spd.quantitative_converse(3, e, 50_000, seed=2).delta_max_sampled
                  for e in (1e-4, 1e-3, 1e-2)]
        assert deltas[0] < deltas[1] < deltas[2]
        assert deltas[2] <= 0.2


class TestBlocks:
    """The psi checks run BLOCK_ROWS rows at a time; the blocks change no bit."""

    # the Dirichlet rows are drawn first and the Gaussian matrices block by
    # block: the same draws in the same order, and dropping the Haar sign fix
    # leaves H unchanged, since it only multiplies by -1 twice
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_psi_max_equals_whole_batch(self, k, seed):
        B = spd.BLOCK_ROWS
        for size in (1, B - 1, B, B + 1, 3 * B + 17):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = spd.random_psi_max(rng, k, size)
            assert got == oracles.random_psi_max_reference(ref_rng, k, size)
            assert rng.random() == ref_rng.random()

    # one max can hide a changed H: psi keeps its bits on most rows whose
    # H moved by an ulp, so the matrices themselves are compared too
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_conjugates_equal_sign_fixed_einsum(self, k):
        eigs = np.random.default_rng(k).dirichlet(np.ones(k), size=spd.BLOCK_ROWS + 1)
        H = spd.random_trace_one_spd(np.random.default_rng(7), eigs)
        ref = oracles.haar_conjugates_reference(np.random.default_rng(7), eigs)
        assert np.array_equal(H, ref)

    def test_psi_simplex_blocks_change_no_bit(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 3 * spd.BLOCK_ROWS + 17
        inputs = [rng.dirichlet(np.ones(3), size=n), rng.dirichlet(np.ones(4), size=n),
                  spd._collar_samples_k3(rng, 1e-3, n),
                  spd._collar_samples_k3(rng, 1e-200, n)]
        blocked = [spd.psi_simplex(rows) for rows in inputs]
        monkeypatch.setattr(spd, "BLOCK_ROWS", n + 1)
        for rows, vals in zip(inputs, blocked):
            assert np.array_equal(vals, spd.psi_simplex(rows))

    def test_grid_radius_equals_whole_grid(self):
        levels = [0.0, 0.2, 0.4, spd.psi_max(3) * (1.0 - 1e-2), spd.psi_max(3) * (1.0 - 1e-4),
                  spd.psi_max(3)]
        refs = [oracles.grid_levelset_radius_reference(level, spd.CONVERSE_GRID_STEP)
                for level in levels]
        assert refs[-1] == 0.0 and min(refs[:-1]) > 0.0
        for level, ref in zip(levels, refs):
            assert spd._grid_levelset_radius(level, spd.CONVERSE_GRID_STEP) == ref
