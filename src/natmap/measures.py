"""Probability measures on the sphere at infinity.

A measure is a weighted point cloud: explicit atoms or the quadrature
nodes of a fixed sphere rule.  The conformal-density family of a lattice is
realized by reweighting fixed quadrature nodes with exp(-(k-1) B(x, .)) and
renormalizing, so the nodes never move as the basepoint does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BoundaryPoint, Isometry

MASS_TOL = 1e-10
ATOM_CLUSTER_TOL = 1e-9  # radians
MAX_GAUSS_ORDER = 81     # largest per-axis order of the product rule


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------

def _product_sphere(dim_sphere: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Recursive Gauss-Jacobi product rule on S^d, exact for degree < 2*order."""
    if dim_sphere == 1:
        n = max(2 * order, 4)
        ang = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        return pts, np.full(n, 1.0 / n)
    from scipy.special import roots_jacobi

    alpha = (dim_sphere - 2) / 2.0
    t, wt = roots_jacobi(order, alpha, alpha)
    sub_pts, sub_w = _product_sphere(dim_sphere - 1, order)
    r = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pts = np.concatenate([
        np.column_stack([
            np.full(sub_pts.shape[0], ti),
            ri * sub_pts,
        ])
        for ti, ri in zip(t, r)
    ])
    w = np.concatenate([wi * sub_w for wi in wt])
    return pts, w / w.sum()


def sphere_quadrature(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a probability quadrature on S^(k-1) with at
    least n nodes.

    For k = 2 the n-point uniform circle rule, exact up to degree n - 1;
    for k >= 3 the smallest Gauss-Jacobi product rule (one Gauss-Jacobi
    rule in each polar angle, spectrally accurate) that reaches n nodes:
    the rule of order p has p^(k-2) max(2p, 4) nodes.
    """
    if k < 2:
        raise ValueError("sphere dimension needs k >= 2")
    if n < 1:
        raise ValueError(f"a quadrature needs at least one node; {n} requested")
    if k == 2:
        ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        return np.column_stack([np.cos(ang), np.sin(ang)]), np.full(n, 1.0 / n)
    for order in range(2, MAX_GAUSS_ORDER + 1):
        if order ** (k - 2) * max(2 * order, 4) >= n:
            return _product_sphere(k - 1, order)
    raise ValueError(f"product-gauss rule on S^{k - 1} reaches at most "
                     f"{MAX_GAUSS_ORDER ** (k - 2) * 2 * MAX_GAUSS_ORDER} nodes; "
                     f"{n} requested")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryMeasure:
    """Positive probability measure on S^(k-1): weights on unit points."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        p = np.asarray(self.points, dtype=float).reshape(w.size, -1)
        if w.size and np.min(w) <= 0:
            raise ValueError("measure weights must be positive")
        total = w.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total} is not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", p)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def atomic_measure(weights, points) -> BoundaryMeasure:
    """Measure from atom (weight, unit-vector) data; weights are normalized."""
    w = np.asarray(weights, dtype=float)
    p = np.asarray(points, dtype=float)
    p = p / np.linalg.norm(p, axis=1, keepdims=True)
    return BoundaryMeasure(w / w.sum(), p)


# ---------------------------------------------------------------------------
# visual / conformal-density family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisualFamily:
    """Quadrature model of the visual measures seen from points of H^k.

    The density between basepoints is exp(-(k-1) B), the conformal-density
    exponent of a finite-covolume lattice; at the origin the measure is the
    bare rule.
    """

    dimension: int
    nodes: int

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return _cached_quadrature(self.dimension, self.nodes)


@lru_cache(maxsize=32)
def _cached_quadrature(k: int, n: int):
    pts, w = sphere_quadrature(k, n)
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pushforward(beta: BoundaryMeasure, g: Isometry) -> BoundaryMeasure:
    """Image measure under the boundary action of g; weights are carried
    unchanged."""
    q = g.apply_boundary_many(beta.points)
    return BoundaryMeasure(beta.weights, q / np.linalg.norm(q, axis=1, keepdims=True))


@dataclass(frozen=True)
class AtomClusters:
    """The clusters ``labels`` of a measure's points, weighed by its
    weights."""

    measure: BoundaryMeasure
    labels: np.ndarray
    masses: np.ndarray        # mass of each cluster
    top: int                  # the heaviest cluster

    @property
    def mass(self) -> float:
        return float(self.masses[self.top])

    @property
    def location(self) -> BoundaryPoint:
        """Weighted direction of the heaviest cluster, of norm about 1 before
        scaling since its points chain within ATOM_CLUSTER_TOL; computed when
        read: only a measure with a dominant atom needs it."""
        w, p = self.measure.weights, self.measure.points
        members = self.labels == self.top
        loc = np.average(p[members], axis=0, weights=w[members])
        return BoundaryPoint(loc / np.linalg.norm(loc))


def atom_labels(points: np.ndarray) -> np.ndarray:
    """Cluster of each point, merging points within ATOM_CLUSTER_TOL.

    The labels run over 0..ncomp-1 and depend on the points alone, so a
    family whose points stay fixed while its weights move clusters once.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = points.shape[0]
    chord = 2.0 * np.sin(ATOM_CLUSTER_TOL / 2.0)
    pairs = cKDTree(points).query_pairs(r=chord, output_type="ndarray")
    if not pairs.size:
        return np.arange(n)
    graph = coo_matrix((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)[1]


def max_atom_mass(beta: BoundaryMeasure, labels: np.ndarray) -> AtomClusters:
    """Weigh the clusters ``labels`` (from `atom_labels` of the measure's
    points); ``.mass`` is the largest clustered mass and ``.location`` its
    direction."""
    masses = np.bincount(labels, weights=beta.weights)
    return AtomClusters(beta, labels, masses, int(np.argmax(masses)))
