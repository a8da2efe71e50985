"""The acceptance criteria 4 to 10, each computed once.

Every function measures one criterion on inputs its caller draws (probes,
families, the deformation path, measures, samples) and returns a frozen
record of the measured values plus the per-item rows behind them.  The CLI
checks the values against its budgets and writes the rows to CSV; the
acceptance suite asserts its own literal bounds on the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter import (SolverConfig, TwoEqualAtomsError, barycenter,
                         grid_minimize_phi)
from .geometry import distance, translation_length
from .measures import VisualFamily, atomic_measure, pushforward
from .natural_map import (OrbitBoundaryMap, PushedFamily,
                          TotallyGeodesicBoundaryMap, convergence_diagnostics,
                          identity_boundary_map, jacobian,
                          jacobian_bound_check, natural_map, operators_at)
from .triangulation import (FIG8_COMPLETE_SHAPE, FIG8_VOLUME, VolumeValue,
                            bloch_wigner)

TIGHT = SolverConfig(gradient_tol=1e-12)


@dataclass(frozen=True)
class BarycenterChecks:
    gradient: float           # largest gradient norm at a solver result
    equivariance: float       # largest d(bar(g_* m), g bar(m)), both at TIGHT
    oracle: float             # largest distance to the grid minimizer
    two_equal_atoms_raise: bool
    rows: tuple               # (label, gradient norm, iterations) per solve


def barycenter_checks(stationarity, equivariance, oracle,
                      cfg: SolverConfig) -> BarycenterChecks:
    """Stationarity, equivariance, grid-oracle agreement, two equal atoms.

    ``stationarity`` holds (label, measure) pairs, ``equivariance``
    (measure, isometry) pairs and ``oracle`` measures; ``cfg`` configures
    every solve except the equivariance ones.
    """
    rows = []
    for label, m in stationarity:
        r = barycenter(m, cfg)
        rows.append((label, r.gradient_norm, r.iterations))
    worst_eq = 0.0
    for m, g in equivariance:
        lhs = barycenter(pushforward(m, g), TIGHT).location
        rhs = g.apply(barycenter(m, TIGHT).location)
        worst_eq = max(worst_eq, distance(lhs, rhs))
    worst_or = 0.0
    for m in oracle:
        worst_or = max(worst_or, distance(barycenter(m, cfg).location,
                                          grid_minimize_phi(m)))
    try:
        barycenter(atomic_measure([0.5, 0.5], [[1, 0, 0], [-1, 0, 0]]), cfg)
        raised = False
    except TwoEqualAtomsError:
        raised = True
    return BarycenterChecks(max((g for _, g, _ in rows), default=0.0),
                            worst_eq, worst_or, raised, tuple(rows))


@dataclass(frozen=True)
class IdentityChecks:
    displacement: float       # largest d(F(p), p) on the family's nodes
    displacement_fine: float  # the same on four times as many nodes
    h_deviation: float        # largest ||H - I/k||_F
    jac_deviation: float      # largest |Jac_k - 1|
    bound_deviation: float    # largest |bound - 1|
    rows: tuple               # (displacement, Jac_k, bound) per probe


def identity_checks(probes, family: VisualFamily) -> IdentityChecks:
    """The natural map of the identity boundary map at each probe, on the
    family's nodes and on four times as many."""
    k = family.dimension
    fine_family = VisualFamily(k, 4 * family.nodes)
    pushed = PushedFamily(identity_boundary_map(k), family)
    fine = PushedFamily(identity_boundary_map(k), fine_family)
    fine_disp, hdev, rows = 0.0, 0.0, []
    for p in probes:
        F = natural_map(None, pushed, family, p)
        fine_disp = max(fine_disp, distance(natural_map(None, fine, fine_family, p), p))
        pair = operators_at(None, pushed, family, p, image=F)
        j = jacobian(None, pushed, family, p, "implicit", pair=pair)
        br = jacobian_bound_check(pair, j, k, k)
        hdev = max(hdev, float(np.linalg.norm(pair.H - np.eye(k) / k)))
        rows.append((distance(F, p), j.jac_k, br.bound))
    return IdentityChecks(max(d for d, _, _ in rows), fine_disp, hdev,
                          max(abs(j - 1.0) for _, j, _ in rows),
                          max(abs(b - 1.0) for _, _, b in rows), tuple(rows))


@dataclass(frozen=True)
class GeodesicCopyChecks:
    confinement: float        # largest |F_m(p)[k:]|
    agreement: float          # largest |F_m(p)[:k] - F_k(p)|
    h_deviation: float        # largest ||Q^T H Q - I/k||_F, Q spanning DF
    jac_deviation: float      # largest |Jac_k - 1|
    bound_margin: float       # smallest restricted bound minus Jac_k
    bound_failures: int       # probes failing the restricted bound check


def geodesic_copy_checks(probes, family: VisualFamily, m: int) -> GeodesicCopyChecks:
    """The natural map of the equatorial S^(k-1) -> S^(m-1) against the
    identity map of S^(k-1), at each probe."""
    k = family.dimension
    pushed_m = PushedFamily(TotallyGeodesicBoundaryMap(k, m), family)
    pushed_k = PushedFamily(identity_boundary_map(k), family)
    off, agree, hv, jdev, margin, failures = 0.0, 0.0, 0.0, 0.0, float("inf"), 0
    for p in probes:
        F = natural_map(None, pushed_m, family, p)
        off = max(off, float(np.linalg.norm(F.coords[k:])))
        agree = max(agree, float(np.linalg.norm(
            F.coords[:k] - natural_map(None, pushed_k, family, p).coords)))
        pair = operators_at(None, pushed_m, family, p, image=F)
        j = jacobian(None, pushed_m, family, p, "implicit", pair=pair)
        br = jacobian_bound_check(pair, j, k, m)
        Q, _ = np.linalg.qr(j.DF)
        hv = max(hv, float(np.linalg.norm(Q.T @ pair.H @ Q - np.eye(k) / k)))
        jdev = max(jdev, abs(j.jac_k - 1.0))
        margin = min(margin, br.margin)
        failures += int(not br.passed)
    return GeodesicCopyChecks(off, agree, hv, jdev, margin, failures)


@dataclass(frozen=True)
class DeformedJacobianChecks:
    jac: float                # largest implicit Jac_k
    bound_margin: float       # smallest bound minus Jac_k
    fd_gap: float             # largest entry of |DF implicit - DF finite difference|
    rows: tuple               # (t, Jac_k, bound) per deformed step


def deformed_jacobian_checks(path, probes, family: VisualFamily) -> DeformedJacobianChecks:
    """Orbit-table natural maps from the complete holonomy ``path[0]`` to
    each later step, one probe per step."""
    k = family.dimension
    complete = path[0].representation
    fd_gap, rows = 0.0, []
    for st, p in zip(path[1:], probes, strict=True):
        D = OrbitBoundaryMap.build(complete, st.representation,
                                   max_word_length=8, min_table=5000)
        pushed = PushedFamily(D, family)
        pair = operators_at(st.representation, pushed, family, p)
        ji = jacobian(st.representation, pushed, family, p, "implicit", pair=pair)
        jf = jacobian(st.representation, pushed, family, p, "finite-difference", pair=pair)
        br = jacobian_bound_check(pair, ji, k, k)
        fd_gap = max(fd_gap, float(np.max(np.abs(ji.DF - jf.DF))))
        rows.append((st.t, ji.jac_k, br.bound))
    return DeformedJacobianChecks(max(j for _, j, _ in rows),
                                  min(b - j for _, j, b in rows), fd_gap, tuple(rows))


@dataclass(frozen=True)
class VolumeChecks:
    edge_residual: float      # complete structure path[0]
    cusp_residual: float
    volume: VolumeValue
    relator_residual: float
    generator_translation: float
    path_deficit: float       # smallest Vol(M) - Vol(rho_t) over t >= 1e-2
    tail_deficit: float       # the same over steps within 1e-2 of a pole
    sample_volume: float      # largest volume of a variety sample
    strict_deficit: bool      # Vol < Vol(M) for samples 1e-6 off the complete shapes
    rows: tuple               # (t, shapes, volume, deficit, translation lengths) per step


def volume_checks(path, samples: np.ndarray) -> VolumeChecks:
    """The complete structure ``path[0]``, the deformation ``path`` and
    the (n, 2) gluing-variety ``samples`` of the figure-eight knot
    complement.  Some step of ``path`` must come within 1e-2 of a pole."""
    complete, z0 = path[0], FIG8_COMPLETE_SHAPE
    hol = complete.representation
    rows = [(st.t, st.shapes, st.volume.value, FIG8_VOLUME - st.volume.value,
             tuple(translation_length(np.stack(st.representation.generators)).tolist()))
            for st in path]
    tail = [FIG8_VOLUME - st.volume.value for st in path if st.min_pole_distance < 1e-2]
    if not tail:
        raise ValueError("no step of the path comes within 1e-2 of a pole")
    vols = bloch_wigner(samples[:, 0]) + bloch_wigner(samples[:, 1])
    dist = np.maximum(np.abs(samples[:, 0] - z0), np.abs(samples[:, 1] - z0))
    return VolumeChecks(
        complete.edge_residual, complete.cusp_residual, complete.volume,
        max(hol.relator_residual(r) for r in hol.relators),
        max(rows[0][4]),
        min(d for (t, _, _, d, _) in rows if t >= 1e-2),
        min(tail),
        float(vols.max()), bool(np.all(vols[dist > 1e-6] < FIG8_VOLUME)), tuple(rows))


@dataclass(frozen=True)
class PathDiagnostics:
    rows: tuple               # DiagnosticsRow per (step, probe)
    h_deviation: tuple        # per step: median ||H - I/k||_F over the probes
    jac_deviation: tuple      # per step: median |1 - Jac_k|
    deficit: tuple            # per step: Vol(M) - Vol(rho_t)
    regime_steps: int         # steps whose largest eigenvalue of H is <= 2/3
    df_norm: float            # largest ||DF|| over those steps
    eigen_dev: float          # largest |lambda_i(H) - 1/3| over those steps

    @property
    def monotone(self) -> tuple[bool, bool, bool]:
        """Strict increase of the H deviation, Jacobian deviation, deficit."""
        return tuple(all(a < b for a, b in zip(s, s[1:]))
                     for s in (self.h_deviation, self.jac_deviation, self.deficit))


def path_diagnostics(path, family: VisualFamily, probes) -> PathDiagnostics:
    """Natural-map diagnostics of the orbit-table maps from the complete
    holonomy ``path[0]`` to every later step, at each probe."""
    complete = path[0].representation
    # built one step at a time, so only one table is alive at once
    entries = ((st.t, st.representation,
                OrbitBoundaryMap.build(complete, st.representation,
                                       max_word_length=8, min_table=5000),
                st.volume.value)
               for st in path[1:])
    rows = convergence_diagnostics(entries, family, probes, FIG8_VOLUME)
    steps = [rows[i:i + len(probes)] for i in range(0, len(rows), len(probes))]
    # the derivative bound holds only while the largest eigenvalue of H
    # stays at most 2/3; deeper degenerations leave its regime
    regime = [s for s in steps if max(r.h_lambda_max for r in s) <= 2.0 / 3.0]
    return PathDiagnostics(
        tuple(rows),
        tuple(float(np.median([r.h_deviation for r in s])) for s in steps),
        tuple(float(np.median([abs(1.0 - r.jac) for r in s])) for s in steps),
        tuple(s[0].volume_deficit for s in steps),
        len(regime),
        max(r.df_norm for s in regime for r in s),
        max(r.h_eigen_dev for s in regime for r in s))
