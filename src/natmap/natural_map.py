"""Barycentric natural maps for representations into Isom(H^m).

Given a representation of a lattice in Isom(H^k) and a boundary map D from
S^(k-1) to S^(m-1), the natural map sends x to the barycenter of the
pushforward under D of the visual measure seen from x.  The visual measure
is discretized on fixed quadrature nodes whose weights vary smoothly with
x, so the computed map is itself the exact natural map of a discrete
measure family: the stationarity identity, the differentiated identity and
the Jacobian determinant bound all hold for it up to solver tolerance, not
just up to discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barycenter import BarycenterResult, barycenter
from .geometry import (
    HPoint,
    Isometry,
    _exp_chart,
    _log_chart,
    adjugate,
    busemann_chords,
    busemann_gradients_frame,
    busemann_many,
    conformal_factor,
    distance,
    loxodromic_fixed_points,
    psl2_to_lorentz,
    translation_length,
)
from .measures import BoundaryMeasure, VisualFamily, atom_labels

RELATOR_TOL = 1e-8
FD_STEP = 1e-4
# Translation length above which a word enters the orbit table.  At the
# complete structure 392 of the 13,120 reduced words of length <= 8 are
# parabolic, with computed lengths up to 7.8e-7 (rounding), and the next
# length is 1.087; the threshold sits near the gap's geometric middle.
ORBIT_LENGTH_TOL = 1e-3
# slack of the Jacobian determinant bound check
BOUND_TOL = 1e-3
# Largest |sum_i w_i a_i| at which the natural map at x is solved, with w_i
# the visual weights at x and a_i the frame Busemann gradients at x toward
# the nodes.  The exact visual measure seen from x has its barycenter at x,
# so this sum is the quadrature error of a vanishing integral: how far the
# weights stop resolving the density at x.  For the identity map H(x) = I/k
# there, and one Newton step moves F(x) from x by k/(k-1) times the sum, so
# this tolerance keeps d(F(x), x) within 3e-4 at k = 3 and 4e-4 at any
# k >= 2, inside the 5e-4 budget of the identity checks.  Measured with
# the identity map on 3,800 probes up to radius 4 (2,048 and 8,192 nodes,
# every second one drawn close to the product rule's polar axis): d(F(x), x)
# is 1.50 times the sum at the median, and at most 3.0e-4 wherever the sum
# is at most 2e-4.  The effective node count 1/sum(w_i^2) cannot gate
# this: near the polar axis, where the rule's rings crowd, it reads up to
# 325 where the drift exceeds 5e-4.
CENTERING_TOL = 2e-4


class ElementaryRepresentationError(ValueError):
    """The pushed visual measure concentrates at an ideal point, as it
    does for an elementary representation."""


class UnresolvedVisualMeasureError(ValueError):
    """The visual weights at a basepoint are off centre (``CENTERING_TOL``):
    the quadrature rule is too coarse for the density there."""


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

_LETTERS = "abcdefgh"


@dataclass(frozen=True)
class Representation:
    """Group representation into PSL(2,C): the generators as 2x2 complex
    matrices of unit determinant (``develop`` normalises a holonomy's once;
    each word is renormalised where it is classified, since products drift
    off determinant 1 by rounding), plus relator words.

    Words use one lowercase letter per generator, uppercase for its
    inverse ('abAB' is a b a^-1 b^-1).
    """

    generators: tuple[np.ndarray, ...]
    relators: tuple[str, ...]
    # source half of the orbit tables built from this representation, by
    # max_word_length; see ``_orbit_table_source``
    _orbit_sources: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            res = self.relator_residual(r)
            if res > RELATOR_TOL:
                raise ValueError(f"relator '{r}' fails by {res:.2e}")

    def evaluate(self, word: str) -> np.ndarray:
        """The 2x2 matrix of a word, multiplied out letter by letter."""
        out = np.eye(2)
        for ch in word:
            g = self.generators[_LETTERS.index(ch.lower())]
            out = out @ (adjugate(g) if ch.isupper() else g)
        return out

    def relator_residual(self, word: str) -> float:
        # convert the 2x2 product once: the long 4x4 chain amplifies
        # rounding quadratically in the entry size, the 2x2 chain not
        lorentz = psl2_to_lorentz(self.evaluate(word)).lorentz
        return float(np.max(np.abs(lorentz - np.eye(4))))

    def _orbit_table_source(self, max_word_length: int):
        """The source half of ``OrbitBoundaryMap.build``, computed once per
        max_word_length: the word tree, the mask of its words that are
        loxodromic here, and their attracting fixed points.  The arrays are
        read-only, since every later table shares them."""
        if max_word_length not in self._orbit_sources:
            words = _reduced_word_tree(len(self.generators), max_word_length)
            spins = _word_spins(self, words)
            lox = translation_length(spins) > ORBIT_LENGTH_TOL
            fixed = loxodromic_fixed_points(spins[lox])
            arrays = [lox, fixed] + [a for level in words for a in level if a is not None]
            for a in arrays:
                a.setflags(write=False)
            self._orbit_sources[max_word_length] = (tuple(words), lox, fixed)
        return self._orbit_sources[max_word_length]


def _reduced_word_tree(n_generators: int, max_length: int):
    """The freely reduced words over the first n generators, shortest
    first, level by level, as pairs (index of the prefix in the previous
    level, index of the last letter in 'aAbB...'); the first level has no
    prefixes."""
    n_letters = 2 * n_generators
    last = np.arange(n_letters)
    levels = [(None, last)] if max_length >= 1 else []
    for _ in range(1, max_length):
        parent = np.repeat(np.arange(last.size), n_letters)
        letter = np.tile(np.arange(n_letters), last.size)
        # letter 2i + 1 is the inverse of letter 2i
        reduced = letter != (last[parent] ^ 1)
        parent, last = parent[reduced], letter[reduced]
        levels.append((parent, last))
    return levels


def _word_spins(rep: Representation, levels) -> np.ndarray:
    """(n, 2, 2) matrices of the words of ``_reduced_word_tree``, each
    the product of its prefix's matrix with its last letter's, as
    ``Representation.evaluate`` multiplies them."""
    letters = np.stack([s for g in rep.generators for s in (g, adjugate(g))])
    mats, out = None, [np.empty((0, 2, 2), dtype=complex)]
    for parent, letter in levels:
        mats = letters[letter] if parent is None else mats[parent] @ letters[letter]
        out.append(mats)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# boundary maps
# ---------------------------------------------------------------------------

class MobiusBoundaryMap:
    """Boundary action of a single isometry (exactly equivariant)."""

    approximate = False

    def __init__(self, g: Isometry):
        self.g = g
        self.source_dim = g.dimension
        self.target_dim = g.dimension

    def map_points(self, points: np.ndarray) -> np.ndarray:
        return self.g.apply_boundary_many(points)


def identity_boundary_map(k: int) -> MobiusBoundaryMap:
    return MobiusBoundaryMap(Isometry.identity(k))


class TotallyGeodesicBoundaryMap:
    """Equatorial embedding S^(k-1) -> S^(m-1)."""

    approximate = False

    def __init__(self, k: int, m: int):
        if m < k:
            raise ValueError("target sphere must not be smaller")
        self.source_dim = k
        self.target_dim = m

    def map_points(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros((points.shape[0], self.target_dim))
        out[:, :self.source_dim] = points
        return out


class OrbitBoundaryMap:
    """Nearest-neighbor extension of the attracting-fixed-point dictionary.

    Loxodromic words gamma of the source representation give table entries
    fix+(source(gamma)) -> fix+(target(gamma)); other directions map to the
    entry of the nearest source fixed point.  Equivariance holds exactly on
    the table and only approximately elsewhere, so the map is flagged
    ``approximate`` and every consumer should label results accordingly.

    The target fixed points are computed on demand, only for the entries a
    query lands on; ``table_target`` completes and returns the whole half.
    """

    approximate = True

    def __init__(self, table_source: np.ndarray, target_spins: np.ndarray):
        from scipy.spatial import cKDTree

        self.table_source = table_source
        self._target_spins = target_spins
        self._target = np.empty((len(target_spins), 3))
        self._filled = np.zeros(len(target_spins), dtype=bool)
        self.source_dim = table_source.shape[1]
        self.target_dim = self._target.shape[1]
        self._tree = cKDTree(table_source)

    @classmethod
    def build(cls, source: Representation, target: Representation,
              max_word_length: int, min_table: int) -> "OrbitBoundaryMap":
        """Table over the reduced words up to ``max_word_length`` that are
        loxodromic (translation length above ``ORBIT_LENGTH_TOL``) on both
        sides.

        Works on all words at once from the k = 3 spin matrices, which
        ``translation_length`` classifies and ``loxodromic_fixed_points``
        (on demand, for the target) resolves, and takes the source half
        from ``source._orbit_table_source``.
        """
        if len(source.generators) != len(target.generators):
            raise ValueError("representations must share a generating set")
        words, src_lox, src_fixed = source._orbit_table_source(max_word_length)
        tgt = _word_spins(target, words)
        tgt_lox = translation_length(tgt) > ORBIT_LENGTH_TOL
        keep = src_lox & tgt_lox
        n = int(keep.sum())
        if n < min_table:
            raise ValueError(
                f"orbit table too small ({n} < {min_table}); "
                "increase max_word_length")
        return cls(src_fixed[tgt_lox[src_lox]], tgt[keep])

    def _fill(self, idx: np.ndarray) -> None:
        # LAPACK factors and solves each matrix of a batch on its own, so
        # an entry is bitwise the same whichever batch computes it
        need = np.unique(idx[~self._filled[idx]])
        self._target[need] = loxodromic_fixed_points(self._target_spins[need])
        self._filled[need] = True

    @property
    def table_target(self) -> np.ndarray:
        self._fill(np.flatnonzero(~self._filled))
        return self._target

    def map_points(self, points: np.ndarray) -> np.ndarray:
        _, idx = self._tree.query(points)
        self._fill(idx)
        return self._target[idx]


# ---------------------------------------------------------------------------
# the natural map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Evaluation:
    """The natural map at one basepoint x: the visual weights w_i there,
    the frame Busemann gradients a_i at x toward the nodes, and the
    interior barycenter of the pushed weights, whose last Newton step holds
    the weighted gradients w_i b_i and H at the image."""

    weights: np.ndarray
    a: np.ndarray
    result: BarycenterResult

    @property
    def image(self) -> HPoint:
        return self.result.location


class PushedFamily:
    """Visual family pushed through a boundary map: fixed image atoms,
    basepoint-dependent weights.  The node images and their atom clusters
    (``labels``, read-only) are computed once, so each solve only weighs
    the clusters.  The family keeps the `Evaluation` of its latest
    ``evaluate``, which the operators at that basepoint read."""

    def __init__(self, D, family: VisualFamily):
        if D.source_dim != family.dimension:
            raise ValueError("boundary map does not match the family sphere")
        self.family = family
        self.D = D
        nodes, base_w = family.quadrature()
        self.nodes = nodes
        self.base_weights = base_w
        img = np.asarray(D.map_points(nodes), dtype=float)
        self.images = img / np.linalg.norm(img, axis=1, keepdims=True)
        self.target_dim = self.images.shape[1]
        self.labels = atom_labels(self.images)
        self.labels.setflags(write=False)
        self._latest = None       # (x.tobytes(), Evaluation) of the last evaluate

    def source_side(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The visual weights w_i at x and the frame Busemann gradients a_i
        at x toward the nodes, both from one array of chords."""
        chords = busemann_chords(x, self.nodes)
        k = self.family.dimension
        raw = self.base_weights * np.exp(-(k - 1) * busemann_many(x, self.nodes, chords))
        return raw / raw.sum(), busemann_gradients_frame(x, self.nodes, chords)

    def solve(self, x: np.ndarray) -> Evaluation:
        """The natural map at x, if the visual weights there resolve the
        density (see ``CENTERING_TOL``)."""
        w, a = self.source_side(x)
        off = float(np.linalg.norm(w @ a))
        if not off <= CENTERING_TOL:
            raise UnresolvedVisualMeasureError(
                f"the visual weights are off centre by {off:.2e} > {CENTERING_TOL} "
                f"(one of {w.size} quadrature nodes carries {float(w.max()):.3f} of "
                "the measure); the rule cannot resolve the density here")
        res = barycenter(BoundaryMeasure(w, self.images), labels=self.labels)
        if res.kind != "interior":
            raise ElementaryRepresentationError(
                "pushed visual measure concentrates at an ideal point")
        return Evaluation(w, a, res)

    def evaluate(self, x: np.ndarray) -> Evaluation:
        """``solve(x)``, kept as the latest record with its arrays made
        read-only; the nodes, images and labels never change, so it stays
        valid."""
        record = self.solve(x)
        res = record.result
        for arr in (record.weights, record.a, res.location.coords, res.wb, res.H):
            arr.setflags(write=False)
        self._latest = (x.tobytes(), record)
        return record

    def latest(self, x: np.ndarray) -> Evaluation | None:
        """The latest record if it was evaluated at x, else None."""
        if self._latest is not None and self._latest[0] == x.tobytes():
            return self._latest[1]
        return None


def natural_map(rho: Representation | None, pushed: PushedFamily, family: VisualFamily,
                x: HPoint) -> HPoint:
    """F(x): barycenter of the pushforward under D of the visual measure at x.

    Each call solves afresh and leaves its record to `operators_at`."""
    return pushed.evaluate(x.coords).image


@dataclass(frozen=True)
class OperatorPair:
    """Second-fundamental data of the natural map at one basepoint.

    H integrates the squared Busemann differentials at the image, K = I - H
    is the integrated Busemann Hessian (curvature -1 identity), and L the
    mixed term sum w_i b_i a_i^T of image-side b and source-side a.
    """

    H: np.ndarray
    K: np.ndarray
    L: np.ndarray
    image: HPoint


def operators_at(rho: Representation | None, pushed: PushedFamily, family: VisualFamily,
                 x: HPoint, image: HPoint | None = None) -> OperatorPair:
    """The operators at x and its image F(x), read from the last Newton
    step of the family's latest record at x, solved here if there is none.

    They exist at F(x) only: an ``image`` that is not bitwise F(x) raises
    ValueError."""
    record = pushed.latest(x.coords) or pushed.evaluate(x.coords)
    if image is not None and not np.array_equal(image.coords, record.image.coords):
        raise ValueError("the operators are read at F(x) only, and the image given "
                         "is another point")
    H = record.result.H
    # bitwise the three-operand einsum("i,ij,il->jl", w, b, a)
    L = np.einsum("ij,il->jl", record.result.wb, record.a)
    return OperatorPair(H.copy(), np.eye(H.shape[0]) - H, L, record.image)


@dataclass(frozen=True)
class JacobianResult:
    """The differential of the natural map at one basepoint and Jac_k."""

    DF: np.ndarray            # (m, k) in orthonormal frames at x and F(x)
    jac_k: float              # product of singular values

    @property
    def operator_norm(self) -> float:
        return float(np.linalg.svd(self.DF, compute_uv=False)[0])


def _finite_difference_DF(pushed: PushedFamily, x: np.ndarray,
                          image: HPoint) -> np.ndarray:
    k = x.size
    lam_f = conformal_factor(image.coords)
    chart_scale = (1.0 - float(np.dot(x, x))) / 2.0
    cols = []
    for i in range(k):
        step = np.zeros(k)
        step[i] = FD_STEP * chart_scale
        fp = pushed.solve(_exp_chart(x, step)).image
        fm = pushed.solve(_exp_chart(x, -step)).image
        diff = _log_chart(image.coords, fp.coords) - _log_chart(image.coords, fm.coords)
        cols.append(lam_f * diff / (2.0 * FD_STEP))
    return np.column_stack(cols)


def jacobian(rho: Representation | None, pushed: PushedFamily, family: VisualFamily,
             x: HPoint, method: str, pair: OperatorPair) -> JacobianResult:
    """Differential of the natural map in orthonormal frames, plus Jac_k,
    at x and the image of ``pair``, the operators at x.

    'implicit' solves K DF = (k-1) L, the differentiated stationarity
    identity.  K = I - H is positive definite at every interior barycenter,
    and this DF is the exact derivative of the discrete family, so there is
    no fallback.  'finite-difference' takes symmetric differences of the map
    in normal coordinates, with 2k solves.
    """
    k = family.dimension
    if method == "implicit":
        DF = (k - 1) * np.linalg.solve(pair.K, pair.L)
    elif method == "finite-difference":
        DF = _finite_difference_DF(pushed, x.coords, pair.image)
    else:
        raise ValueError(f"unknown method '{method}'")
    sv = np.linalg.svd(DF, compute_uv=False)
    return JacobianResult(DF, float(np.prod(sv[:k])))


@dataclass(frozen=True)
class BoundReport:
    bound: float
    margin: float
    passed: bool


def jacobian_bound_check(pair: OperatorPair, jac: JacobianResult,
                         k: int, m: int) -> BoundReport:
    """Check Jac_k <= (k-1)^k / k^(k/2) * sqrt(det H^V) / det((I-H)^V),
    passed within ``BOUND_TOL``.

    For k = m the restriction is the whole space and for k = 3 the constant
    equals (4/3)^(3/2), tying the bound to sqrt(psi(H)).
    """
    const = (k - 1) ** k / k ** (k / 2.0)
    if m == k:
        HV, KV = pair.H, pair.K
    else:
        Q, _ = np.linalg.qr(jac.DF)       # orthonormal basis of the image of DF
        HV = Q.T @ pair.H @ Q
        KV = Q.T @ pair.K @ Q
    bound = const * np.sqrt(max(np.linalg.det(HV), 0.0)) / np.linalg.det(KV)
    return BoundReport(float(bound), float(bound - jac.jac_k),
                       bool(jac.jac_k <= bound + BOUND_TOL))


# ---------------------------------------------------------------------------
# path diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRow:
    parameter: float
    probe_index: int
    jac: float
    h_deviation: float        # ||H - I/k||_F at the probe
    h_lambda_max: float       # largest eigenvalue of H
    h_eigen_dev: float        # max |lambda_i(H) - 1/k|
    df_norm: float
    lipschitz: float
    translation_lengths: tuple
    volume: float
    volume_deficit: float
    approximate_boundary_map: bool


def convergence_diagnostics(entries, family: VisualFamily, probes,
                            reference_volume: float) -> list[DiagnosticsRow]:
    """Tabulate natural-map diagnostics along a family of representations.

    ``entries`` yields (parameter, representation, boundary_map, volume).
    Per probe point: Jacobian (implicit), Frobenius and eigenvalue
    deviations of H from I/k, operator norm of DF, empirical Lipschitz
    ratio over probe pairs, and translation lengths of the generators.
    """
    k = family.dimension
    rows = []
    for (t, rep, D, vol) in entries:
        pushed = PushedFamily(D, family)
        lengths = tuple(translation_length(np.stack(rep.generators)).tolist())
        images = []
        for i, p in enumerate(probes):
            pair = operators_at(rep, pushed, family, p)
            jac = jacobian(rep, pushed, family, p, "implicit", pair=pair)
            images.append((p, pair.image))
            m = pair.H.shape[0]
            eigs = np.linalg.eigvalsh(pair.H)
            hdev = float(np.linalg.norm(pair.H - np.eye(m) / m))
            lip = 0.0
            for (q, fq) in images[:-1]:
                lip = max(lip, distance(pair.image, fq) / max(distance(p, q), 1e-12))
            rows.append(DiagnosticsRow(
                float(t), i, float(jac.jac_k), hdev, float(eigs[-1]),
                float(np.max(np.abs(eigs - 1.0 / m))), jac.operator_norm, lip,
                lengths, float(vol), float(reference_volume - vol), D.approximate))
    return rows

