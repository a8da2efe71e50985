"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 checks the psi scan of the k = 3 boundary collar
{min a_i < margin} two ways.  At margin 1e-3 the scan max must reach the
collar's exact supremum, 1/4 + margin/2 + 3 margin^2/4 + O(margin^3), to
within 1e-9 without exceeding it; the supremum comes from an independent
golden-section oracle in `_oracles`.  At margin 1e-4 the whole collar,
scanned and exact, stays at or below the vertex-limit bound
1/4 + 1e-4 = 0.2501.  That literal cannot hold at margin 1e-3: the collar
point (y, y, 1-2y), y = 9.99e-4, already has Psi > 0.2504 (see README).
"""

import dataclasses
import time

import numpy as np
import pytest

from natmap import barycenter as bary
from natmap import criteria
from natmap import geometry as geo
from natmap import measures as ms
from natmap import spd
from natmap import triangulation as tr
from conftest import random_ball_point
import _oracles as oracles


def report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def fig8_tri():
    return tr.figure_eight()


@pytest.fixture(scope="module")
def fig8_full_path(fig8_tri):
    return tr.deformation_path(fig8_tri, steps=50)


@pytest.fixture(scope="module")
def path_diagnostics(fig8_full_path):
    """Natural-map diagnostics with orbit maps along the 50-step path."""
    rng = np.random.default_rng(42)
    probes = [random_ball_point(rng, max_radius=0.5) for _ in range(4)]
    return criteria.path_diagnostics(fig8_full_path, ms.VisualFamily(3, 2000), probes)


def test_criterion_01_psi_maximum():
    t0 = time.time()
    center_err = abs(spd.psi(np.eye(3) / 3) - 27 / 64)
    ok = center_err <= 1e-14
    rng = np.random.default_rng(11)
    worst = {}
    for k in (3, 4, 5):
        worst[k] = spd.random_psi_max(rng, k, 1_000_000) - spd.psi_max(k)
        ok = ok and worst[k] <= 1e-12
    elapsed = time.time() - t0
    ok = ok and elapsed <= 60.0
    assert report(1, ok, f"center err {center_err:.1e}, "
                         f"max overshoot {max(worst.values()):.1e}, "
                         f"{elapsed:.0f}s")


def test_criterion_02_boundary_vertex_analysis():
    t0 = time.time()
    scan = spd.boundary_bound_scan(3, 1e-3, 100_000, seed=1)
    sup = oracles.collar_supremum_golden(1e-3)
    # the scan stays below the exact collar supremum and reaches it
    collar_ok = sup - 1e-9 <= scan.max_value <= sup + 1e-12
    # vertex limit: below margin 2e-4 the collar stays under 1/4 + 1e-4
    small = spd.boundary_bound_scan(3, 1e-4, 10_000, seed=1)
    small_max = max(small.max_value, oracles.collar_supremum_golden(1e-4))
    vertex_limit_ok = small_max <= 0.2501
    limits = [spd.edge_limit_values(a)[1] for a in (0.2, 0.35, 0.5, 0.65, 0.8)]
    edges_ok = max(abs(v) for v in limits) <= 1e-4
    vertex = spd.boundary_bound_scan(4, 2.5e-3, 10_000, seed=1)
    vertex_ok = vertex.max_value <= 1.01
    elapsed = time.time() - t0
    ok = collar_ok and vertex_limit_ok and edges_ok and vertex_ok and elapsed <= 60.0
    report(2, ok, f"margin 1e-3: scan max {scan.max_value:.10f} vs exact "
                  f"collar sup {sup:.10f}; margin 1e-4: max {small_max:.8f} "
                  f"vs 0.2501; edge limits {max(abs(v) for v in limits):.1e}; "
                  f"k4 envelope ratio {vertex.max_value:.4f}")
    assert edges_ok and vertex_ok and elapsed <= 60.0
    assert collar_ok, (
        f"collar scan max {scan.max_value!r} is not within [sup - 1e-9, "
        f"sup + 1e-12] of the exact supremum {sup!r} at margin 1e-3")
    assert vertex_limit_ok, (
        f"the margin-1e-4 collar reaches {small_max!r} > 0.2501")


def test_criterion_03_quantitative_converse():
    t0 = time.time()
    res = spd.quantitative_converse(3, 1e-4, 100_000, seed=2)
    ok = res.delta_max_sampled <= 0.02
    ok = ok and (res.delta_max_grid + 2 * res.grid_step) <= 0.02
    res0 = spd.quantitative_converse(3, 0.0, 100_000, seed=2)
    ok = ok and res0.delta_max_sampled <= 1e-7
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300.0
    assert report(3, ok, f"eps 1e-4: sampled {res.delta_max_sampled:.4f}, "
                         f"grid {res.delta_max_grid:.4f}; "
                         f"eps 0: {res0.delta_max_sampled:.1e}; {elapsed:.0f}s")


def test_criterion_04_barycenter():
    t0 = time.time()
    rng = np.random.default_rng(3)

    def spread_measure(n_atoms=None):
        while True:
            n = int(n_atoms or rng.integers(3, 7))
            pts = rng.standard_normal((n, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            w = rng.dirichlet(np.ones(n))
            if w.max() < 0.5 - 1e-9:
                return ms.atomic_measure(w, pts)

    stationarity = [(i, spread_measure()) for i in range(50)]
    equivariance = [(spread_measure(), geo.random_isometry(rng, 3, 0.7, 0.7))
                    for _ in range(100)]
    oracle = [spread_measure(4) for _ in range(20)]
    res = criteria.barycenter_checks(stationarity, equivariance, oracle,
                                     bary.SolverConfig())
    elapsed = time.time() - t0
    ok = (res.gradient <= 1e-10 and res.equivariance <= 1e-8 and res.oracle <= 2e-3
          and res.two_equal_atoms_raise and elapsed <= 120.0)
    assert report(4, ok, f"grad {res.gradient:.1e}, equiv {res.equivariance:.1e}, "
                         f"oracle {res.oracle:.1e}, raised={res.two_equal_atoms_raise}, "
                         f"{elapsed:.0f}s")


def test_criterion_05_natural_map_identity():
    t0 = time.time()
    rng = np.random.default_rng(5)
    probes = [random_ball_point(rng, max_radius=1.0) for _ in range(50)]
    res = criteria.identity_checks(probes, ms.VisualFamily(3, 2000))
    elapsed = time.time() - t0
    ok = (res.displacement <= 5e-4 and res.displacement_fine <= 2.5e-4
          and res.h_deviation <= 1e-3 and res.jac_deviation <= 1e-3
          and res.bound_deviation <= 1e-3 and elapsed <= 600.0)
    assert report(5, ok, f"disp {res.displacement:.1e} / {res.displacement_fine:.1e} at 4N, "
                         f"H dev {res.h_deviation:.1e}, jac dev {res.jac_deviation:.1e}, "
                         f"bound dev {res.bound_deviation:.1e}, {elapsed:.0f}s")


def test_criterion_06_jacobian_bound(fig8_tri):
    rng = np.random.default_rng(6)
    path = tr.deformation_path(fig8_tri, steps=20, t_end=0.6)
    probes = [random_ball_point(rng, max_radius=0.5) for _ in path[1:]]
    res = criteria.deformed_jacobian_checks(path, probes, ms.VisualFamily(3, 2000))
    ok = res.jac <= 1 + 5e-3 and res.bound_margin >= -1e-3 and res.fd_gap <= 1e-3
    assert report(6, ok, f"20 approximate-D configs: max jac {res.jac:.6f}, "
                         f"min bound margin {res.bound_margin:.2e}, "
                         f"fd-vs-implicit {res.fd_gap:.1e}")


def _volume_checks(path):
    samples = tr.sample_gluing_variety(np.random.default_rng(8), 10_000)
    return criteria.volume_checks(path, samples)


# the complete structure's residuals and volume were once recomputed on a
# second triangulation instead of read from path[0]
def test_volume_checks_read_complete_structure_from_path(fig8_full_path):
    complete = dataclasses.replace(fig8_full_path[0], edge_residual=0.125,
                                   cusp_residual=0.25)
    path = [complete] + fig8_full_path[1:]
    samples = tr.sample_gluing_variety(np.random.default_rng(8), 100)
    res = criteria.volume_checks(path, samples)
    assert (res.edge_residual, res.cusp_residual) == (0.125, 0.25)
    assert res.volume is complete.volume


def test_criterion_07_figure_eight_volume(fig8_full_path):
    t0 = time.time()
    res = _volume_checks(fig8_full_path)
    ok = res.edge_residual <= 1e-12 and res.cusp_residual <= 1e-12
    vol = res.volume.value
    oracle = 2.0 * 3.0 * oracles.lobachevsky(np.pi / 3.0)
    ok = ok and abs(vol - oracle) <= 1e-9 and abs(vol - 2.029883212819) <= 1e-9
    elapsed = time.time() - t0
    ok = (ok and res.relator_residual <= 1e-8 and res.generator_translation <= 1e-6
          and elapsed <= 60.0)
    assert report(7, ok, f"residual {res.edge_residual:.1e}, "
                         f"vol err {abs(vol - oracle):.1e}, relator {res.relator_residual:.1e}, "
                         f"lengths {res.generator_translation:.1e}, {elapsed:.0f}s")


def test_criterion_08_rigidity_at_desk_scale(fig8_full_path):
    t0 = time.time()
    res = _volume_checks(fig8_full_path)
    ok = res.path_deficit > 1e-6
    ok = ok and res.tail_deficit is not None and res.tail_deficit > 0
    ok = ok and res.sample_volume <= tr.FIG8_VOLUME + 1e-9
    elapsed = time.time() - t0
    ok = ok and res.strict_deficit and elapsed <= 600.0
    assert report(8, ok, f"min path deficit {res.path_deficit:.1e}, "
                         f"tail eps {res.tail_deficit:.3f}, "
                         f"scan max {res.sample_volume:.9f}, strict={res.strict_deficit}, "
                         f"{elapsed:.0f}s")


def test_criterion_09_diagnostics_correlation(path_diagnostics):
    res = path_diagnostics
    mono = res.monotone
    # spearman rank correlation is exactly 1 for jointly monotone series
    df_ok = res.df_norm <= np.sqrt(3.0) + 4.5 * res.eigen_dev
    ok = all(mono) and df_ok
    assert report(9, ok, f"monotone over {len(res.deficit)} steps: "
                         f"H {mono[0]}, jac {mono[1]}, deficit {mono[2]}; "
                         f"DF bound on {res.regime_steps} in-regime steps "
                         f"(eps {res.eigen_dev:.3f}): {df_ok}")


def test_criterion_10_totally_geodesic():
    rng = np.random.default_rng(10)
    probes = [random_ball_point(rng, max_radius=1.0) for _ in range(20)]
    res = criteria.geodesic_copy_checks(probes, ms.VisualFamily(3, 2000), 5)
    ok = (res.confinement <= 5e-4 and res.agreement <= 5e-4 and res.h_deviation <= 1e-3
          and res.jac_deviation <= 1e-3 and res.bound_margin + 1e-3 >= 0.0)
    assert report(10, ok, f"off-copy {res.confinement:.1e}, vs k=3 {res.agreement:.1e}, "
                          f"H^V dev {res.h_deviation:.1e}, jac dev {res.jac_deviation:.1e}")
