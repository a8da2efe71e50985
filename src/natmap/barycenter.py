"""Barycenters of boundary measures.

The functional phi(y) = integral of B(y, .) is strictly convex on H^k for
measures that are not two equal Dirac masses, grows to infinity toward the
ideal boundary when no atom carries mass >= 1/2, and its unique minimizer
is the barycenter.  A measure with a dominant atom (mass >= 1/2) instead
has barycenter at that atom on the ideal sphere.

The solver is a Riemannian Newton iteration with Armijo backtracking in the
conformal orthonormal frame.  Its Hessian I - H(y) = sum w_i (I - b_i b_i^T)
(unit Busemann gradients b_i) is singular only if every atom lies at an end
of one geodesic through y, so that one of two clusters holds half the mass:
the dominant-atom gate sends such a measure away before the iteration.  A
nearly singular I - H, the iteration cap and a line search without decrease
raise NoConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BoundaryPoint,
    HPoint,
    _exp_frame,
    busemann_chords,
    busemann_gradients_frame,
    busemann_many,
)
from .measures import BoundaryMeasure, atom_labels, max_atom_mass

HALF_ATOM_TOL = 1e-12
ARMIJO_CONTRACTION = 0.5
ARMIJO_SLOPE = 1e-4
# smallest eigenvalue of I - H that a Newton step is taken at: below it the
# measure is at the dominant-atom limit, and the solve raises
HESSIAN_FLOOR = 1e-8
# Newton steps before NoConvergenceError
MAX_ITERATIONS = 200


class TwoEqualAtomsError(ValueError):
    """The measure is two Dirac masses of weight 1/2: no barycenter exists."""


class NoConvergenceError(RuntimeError):
    """The Newton solve stopped short of the gradient tolerance: at the
    iteration cap, at a nearly singular I - H, or in a line search without
    decrease.  The message names the reason; ``best`` is the last iterate."""

    def __init__(self, message, best: HPoint, gradient_norm: float, iterations: int):
        super().__init__(message)
        self.best = best
        self.gradient_norm = gradient_norm
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    gradient_tol: float = 1e-10


@dataclass(frozen=True)
class BarycenterResult:
    location: HPoint | BoundaryPoint
    kind: str                      # 'interior' or 'boundary-atom'
    gradient_norm: float
    iterations: int
    # of an interior result, the last Newton step's `busemann_moments` at
    # the location: the weighted gradients w_i b_i and H = sum w_i b_i b_i^T
    wb: np.ndarray | None = field(default=None, repr=False, compare=False)
    H: np.ndarray | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# the convex functional and its derivatives
# ---------------------------------------------------------------------------

def _phi_chart(beta: BoundaryMeasure, y: np.ndarray, chords: tuple | None = None) -> float:
    """phi(y): weighted Busemann average, convex along geodesics;
    ``chords`` is ``busemann_chords(y, beta.points)`` when already built."""
    return float(np.dot(beta.weights, busemann_many(y, beta.points, chords)))


def busemann_moments(weights: np.ndarray, points: np.ndarray, y: np.ndarray,
                     chords: tuple | None):
    """The frame Busemann gradients b_i at y toward ``points``, the
    weighted rows w_i b_i and H(y) = sum w_i b_i b_i^T; ``chords`` as for
    `_phi_chart`."""
    b = busemann_gradients_frame(y, points, chords)
    # (w b_j) b_l summed over i, the product order of the three-operand
    # einsum("i,ij,il->jl", w, b, b), so H is bitwise that contraction
    wb = weights[:, None] * b
    return b, wb, np.einsum("ij,il->jl", wb, b)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _initial_guess(beta: BoundaryMeasure) -> np.ndarray:
    # Euclidean centroid of the support directions, pulled to half radius;
    # by convexity the starting point only affects the iteration count.
    c = beta.weights @ beta.points
    return 0.5 * c


def barycenter(beta: BoundaryMeasure, cfg: SolverConfig | None = None,
               labels: np.ndarray | None = None) -> BarycenterResult:
    """Barycenter of a boundary probability measure.

    Raises TwoEqualAtomsError for the excluded two-equal-Diracs case and
    NoConvergenceError when the Newton iteration cannot finish.  A dominant
    atom (at least half the total mass after clustering) short-circuits to
    a boundary result.  ``labels`` are the `atom_labels` of ``beta.points``,
    passed by a caller whose points stay fixed across solves; without
    them the points are clustered here.
    """
    cfg = cfg or SolverConfig()
    if labels is None:
        labels = atom_labels(beta.points)
    clusters = max_atom_mass(beta, labels)
    # half the total, not 1/2: a BoundaryMeasure's total is 1 only to MASS_TOL
    half = clusters.masses.sum() / 2.0
    if clusters.mass >= half - HALF_ATOM_TOL:
        # two clusters of half the mass that together hold all of it
        masses = np.sort(clusters.masses)[::-1]
        if (masses.size >= 2 and np.all(np.abs(masses[:2] - half) <= HALF_ATOM_TOL)
                and masses[2:].sum() <= HALF_ATOM_TOL):
            raise TwoEqualAtomsError(
                "measure is two Dirac masses of equal weight 1/2")
        return BarycenterResult(clusters.location, "boundary-atom", float("inf"), 0)

    y = _initial_guess(beta)
    # one chord array per iterate: the derivatives at y and phi(y) share it
    chords = busemann_chords(y, beta.points)
    val = None                        # phi(y), computed when a damped step reads it
    for it in range(MAX_ITERATIONS + 1):
        b, wb, H = busemann_moments(beta.weights, beta.points, y, chords)
        g = beta.weights @ b
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.gradient_tol:
            return BarycenterResult(HPoint(y), "interior", gnorm, it, wb=wb, H=H)
        if it == MAX_ITERATIONS:
            reason = f"no convergence in {MAX_ITERATIONS} iterations"
            break
        Hf = np.eye(y.size) - H
        eigmin = float(np.linalg.eigvalsh(Hf)[0])
        if eigmin < HESSIAN_FLOOR:
            reason = f"I - H has smallest eigenvalue {eigmin:.3g} < {HESSIAN_FLOOR:g}"
            break
        step_frame = -np.linalg.solve(Hf, g)
        if gnorm < 1e-6:
            # quadratic-convergence regime: phi decreases by less than float
            # resolution, so backtracking is blind; take the full step
            y = _exp_frame(y, step_frame)
            chords = busemann_chords(y, beta.points)
            val = None
            continue
        if val is None:
            val = _phi_chart(beta, y, chords)
        # Armijo backtracking along the geodesic through the Newton step, a
        # descent direction since I - H is positive definite
        slope = float(np.dot(g, step_frame))
        t = 1.0
        while t > 1e-16:
            # a trial that rounding puts on the sphere (a long step, where
            # tanh saturates) is a failed step: phi is not defined there
            cand = _exp_frame(y, t * step_frame)
            if np.dot(cand, cand) < 1.0:
                cand_chords = busemann_chords(cand, beta.points)
                trial = _phi_chart(beta, cand, cand_chords)
                if trial <= val + ARMIJO_SLOPE * t * slope:
                    break
            t *= ARMIJO_CONTRACTION
        else:
            reason = "the Armijo line search found no decrease along the Newton step"
            break
        y, val, chords = cand, trial, cand_chords

    raise NoConvergenceError(f"{reason} (gradient norm {gnorm:.3e})", HPoint(y), gnorm, it)


# ---------------------------------------------------------------------------
# independent coarse-to-fine grid minimizer (reference method)
# ---------------------------------------------------------------------------

def _coercivity_radius(beta: BoundaryMeasure) -> float:
    """A-priori bound on the distance of the minimizer from the origin.

    Uses B(y, theta) >= max(-r, r - 2 log 2 + 2 log sin(angle)) at radius r
    toward a fixed direction: phi(minimizer) <= phi(O) = 0, so the largest
    radius where the resulting lower bound of phi can still be nonpositive
    in some direction bounds the minimizer.  Solver independent.
    """
    dirs = beta.points.copy()
    rng_dirs = np.random.default_rng(12345).standard_normal((256, beta.dimension))
    dirs = np.concatenate([dirs, rng_dirs / np.linalg.norm(rng_dirs, axis=1,
                                                           keepdims=True)])
    cosang = np.clip(dirs @ beta.points.T, -1.0, 1.0)
    log_sin = np.log(np.maximum(np.sqrt(1.0 - cosang ** 2), 1e-300))
    w = beta.weights
    r = 3.0
    while r < 60.0:
        lower = w @ np.maximum(-r, r - 2.0 * np.log(2.0) + 2.0 * log_sin).T
        if np.min(lower) > 0.0:
            return r + 0.5
        r += 0.5
    return r


def grid_minimize_phi(beta: BoundaryMeasure) -> HPoint:
    """Minimize phi by multiscale grid search inside a hyperbolic ball.

    Independent of the Newton path: only evaluates phi on ball-chart grids,
    halving the spacing from a quarter of the ball radius around the
    incumbent down to hyperbolic scale 1e-4.  Convexity of phi guarantees
    the coarse-to-fine refinement cannot be trapped away from the minimum.
    The ball radius is 3 enlarged by an a-priori coercivity bound when the
    measure is lopsided enough to push the minimizer deeper.
    """
    k = beta.dimension
    radius = _coercivity_radius(beta)
    r_ball = np.tanh(radius / 2.0)   # chart radius of the ball
    step = 0.25 * r_ball
    offsets = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * k))).reshape(k, -1).T
    offsets = offsets[np.any(offsets != 0.0, axis=1)]
    best = np.zeros(k)
    best_val = _phi_chart(beta, best)
    # pattern search: walk the grid at each scale until no neighbor improves,
    # then halve the spacing; chart step h corresponds to hyperbolic scale
    # 2h/(1-r^2) at radius r, hence the stopping rescale; 1 - r_ball^2 is
    # formed as 1/cosh^2, since tanh rounds to 1 at the largest radii
    while step > 1e-4 / (2.0 * np.cosh(radius / 2.0) ** 2):
        moved = True
        while moved:
            moved = False
            grid = offsets * step + best
            grid = grid[np.linalg.norm(grid, axis=1) < r_ball]
            for cand in grid:
                v = _phi_chart(beta, cand)
                if v < best_val:
                    best_val, best, moved = v, cand, True
        step *= 0.5
    return HPoint(best)
