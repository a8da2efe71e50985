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
from scipy.spatial import cKDTree

from . import spd
from .barycenter import BarycenterResult, SolverConfig, barycenter
from .geometry import (
    BoundaryPoint,
    HPoint,
    Isometry,
    _exp_chart,
    _log_chart,
    adjugate,
    busemann_gradients_frame,
    busemann_many,
    conformal_factor,
    distance,
    translation_length,
)
from .measures import BoundaryMeasure, VisualFamily

RELATOR_TOL = 1e-8
FD_STEP_DEFAULT = 1e-4
K_CONDITION_FLOOR = 1e-6


class ElementaryRepresentationError(ValueError):
    """The representation is elementary: the pushed measure concentrates."""


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

_LETTERS = "abcdefgh"


@dataclass(frozen=True)
class Representation:
    """Group representation: named generator isometries plus relator words.

    Words use one lowercase letter per generator, uppercase for its
    inverse ('abAB' is a b a^-1 b^-1).
    """

    generators: tuple[Isometry, ...]
    relators: tuple[str, ...]
    source_dim: int
    # source half of the orbit tables built from this representation, by
    # (max_word_length, length_tol); see ``_orbit_table_source``
    _orbit_sources: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            res = self.relator_residual(r)
            if res > RELATOR_TOL:
                raise ValueError(f"relator '{r}' fails by {res:.2e}")

    @property
    def target_dim(self) -> int:
        return self.generators[0].dimension

    def generator(self, letter: str) -> Isometry:
        idx = _LETTERS.index(letter.lower())
        g = self.generators[idx]
        return g.inverse() if letter.isupper() else g

    def evaluate(self, word: str) -> Isometry:
        out = Isometry.identity(self.target_dim)
        for ch in word:
            out = out @ self.generator(ch)
        return out

    def relator_residual(self, word: str) -> float:
        g = self.evaluate(word)
        if g.spin is not None:
            # convert the 2x2 product once: the long 4x4 chain amplifies
            # rounding quadratically in the entry size, the spin chain not
            from .geometry import psl2_to_lorentz
            lorentz = psl2_to_lorentz(g.spin).lorentz
        else:
            lorentz = g.lorentz
        return float(np.max(np.abs(lorentz - np.eye(self.target_dim + 1))))

    def conjugate(self, g: Isometry) -> "Representation":
        gi = g.inverse()
        return Representation(tuple(g @ h @ gi for h in self.generators),
                              self.relators, self.source_dim)

    def _orbit_table_source(self, max_word_length: int, length_tol: float):
        """The source half of ``OrbitBoundaryMap.build``, computed once per
        (max_word_length, length_tol): the word tree, the mask of its words
        that are loxodromic here, and their attracting fixed points.  The
        arrays are read-only, since every later table shares them."""
        key = (max_word_length, length_tol)
        if key not in self._orbit_sources:
            words = _reduced_word_tree(len(self.generators), max_word_length)
            spins = _word_spins(self, words)
            lox = _spin_translation_lengths(spins) > length_tol
            fixed = _attracting_fixed_points(spins[lox])
            arrays = [lox, fixed] + [a for level in words for a in level if a is not None]
            for a in arrays:
                a.setflags(write=False)
            self._orbit_sources[key] = (tuple(words), lox, fixed)
        return self._orbit_sources[key]

    def is_elementary(self, tol: float = 1e-8) -> bool:
        """True when the generators share a fixed ideal point or an axis."""
        from .geometry import _fixed_boundary_candidates
        gens = [g for g in self.generators
                if np.max(np.abs(g.lorentz - np.eye(g.dimension + 1))) > 1e-12]
        if len(gens) <= 1:
            return True
        cands = []
        for d in _fixed_boundary_candidates(gens[0]):
            p = BoundaryPoint(d)
            img = gens[0].apply_boundary(p)
            if np.linalg.norm(img.direction - d) < 1e-6:
                cands.append(d)
        if not cands:
            return False
        fixed_all = []
        for d in cands:
            ok = True
            for g in gens[1:]:
                img = g.apply_boundary(BoundaryPoint(d)).direction
                if np.linalg.norm(img - d) > tol:
                    ok = False
                    break
            if ok:
                return True
            fixed_all.append(d)
        # common invariant axis: every generator permutes the pair of ends
        if len(fixed_all) >= 2:
            p, q = fixed_all[0], fixed_all[1]
            for g in gens[1:]:
                ip = g.apply_boundary(BoundaryPoint(p)).direction
                iq = g.apply_boundary(BoundaryPoint(q)).direction
                keeps = (np.linalg.norm(ip - p) < tol and np.linalg.norm(iq - q) < tol)
                swaps = (np.linalg.norm(ip - q) < tol and np.linalg.norm(iq - p) < tol)
                if not (keeps or swaps):
                    return False
            return True
        return False


def embed_representation(rep: Representation, m: int) -> Representation:
    """Block-embed a representation into Isom(H^m), m >= target dim."""
    k = rep.target_dim
    if m < k:
        raise ValueError("embedding target must not be smaller")
    gens = []
    for g in rep.generators:
        G = np.eye(m + 1)
        G[:k + 1, :k + 1] = g.lorentz
        gens.append(Isometry(G))
    return Representation(tuple(gens), rep.relators, rep.source_dim)


def enumerate_reduced_words(n_generators: int, max_length: int):
    """Freely reduced words over the first n generators, shortest first."""
    letters = [c for i in range(n_generators)
               for c in (_LETTERS[i], _LETTERS[i].upper())]
    frontier = [""]
    for _ in range(max_length):
        new = []
        for w in frontier:
            for ch in letters:
                if w and w[-1] == ch.swapcase():
                    continue
                new.append(w + ch)
        yield from new
        frontier = new


def _reduced_word_tree(n_generators: int, max_length: int):
    """The words of ``enumerate_reduced_words``, level by level, as pairs
    (index of the prefix in the previous level, index of the last letter
    in 'aAbB...'); the first level has no prefixes."""
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
    """(n, 2, 2) spin matrices of the words of ``_reduced_word_tree``,
    each the product of its prefix's matrix with its last letter's, as
    ``Representation.evaluate`` composes them."""
    letters = np.stack([s for g in rep.generators for s in (g.spin, adjugate(g.spin))])
    mats, out = None, [np.empty((0, 2, 2), dtype=complex)]
    for parent, letter in levels:
        mats = letters[letter] if parent is None else mats[parent] @ letters[letter]
        out.append(mats)
    return np.concatenate(out)


def _spin_translation_lengths(mats: np.ndarray) -> np.ndarray:
    """``translation_length`` of each spin matrix of an (n, 2, 2) stack."""
    tr = np.trace(mats, axis1=1, axis2=2) / np.sqrt(np.linalg.det(mats))
    ell = 2.0 * np.abs(np.arccosh(tr / 2.0).real)
    return np.where(ell > 1e-12, ell, 0.0)


def _attracting_fixed_points(mats: np.ndarray) -> np.ndarray:
    """(n, 3) attracting fixed points of an (n, 2, 2) stack of loxodromic
    spin matrices, as ``loxodromic_fixed_points`` finds them one at a time.

    Rounding in ill-conditioned words reaches the points, so this keeps
    the LAPACK eigenvectors of the determinant-normalised matrices rather
    than the closed-form roots of the fixed-point quadratic.
    """
    A = mats / np.sqrt(np.linalg.det(mats))[:, None, None]
    vals, vecs = np.linalg.eig(A)
    v = vecs[np.arange(len(A)), :, np.argmax(np.abs(vals), axis=1)]
    finite = np.abs(v[:, 1]) > 1e-14 * np.abs(v[:, 0])
    z = v[:, 0] / np.where(finite, v[:, 1], 1.0)
    # sphere_from_complex, with z = inf at the north pole
    x, y = z.real, z.imag
    r2 = x * x + y * y
    pts = np.column_stack([2.0 * x / (r2 + 1.0), -2.0 * y / (r2 + 1.0),
                           (r2 - 1.0) / (r2 + 1.0)])
    pts[~finite] = (0.0, 0.0, 1.0)
    return pts


# ---------------------------------------------------------------------------
# boundary maps
# ---------------------------------------------------------------------------

class MobiusBoundaryMap:
    """Boundary action of a single isometry (exactly equivariant)."""

    kind = "mobius"
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
    """Equatorial embedding S^(k-1) -> S^(m-1), optionally twisted by
    isometries on either side."""

    kind = "totally-geodesic"
    approximate = False

    def __init__(self, k: int, m: int,
                 pre: Isometry | None = None, post: Isometry | None = None):
        if m < k:
            raise ValueError("target sphere must not be smaller")
        self.source_dim = k
        self.target_dim = m
        self.pre = pre
        self.post = post

    def map_points(self, points: np.ndarray) -> np.ndarray:
        p = points
        if self.pre is not None:
            p = self.pre.apply_boundary_many(p)
        out = np.zeros((p.shape[0], self.target_dim))
        out[:, :self.source_dim] = p
        if self.post is not None:
            out = self.post.apply_boundary_many(out)
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

    kind = "orbit-approximation"
    approximate = True

    def __init__(self, table_source: np.ndarray, target_spins: np.ndarray):
        self.table_source = table_source
        self._target_spins = target_spins
        self._target = np.empty((len(target_spins), 3))
        self._filled = np.zeros(len(target_spins), dtype=bool)
        self.source_dim = table_source.shape[1]
        self.target_dim = self._target.shape[1]
        self._tree = cKDTree(table_source)

    @classmethod
    def build(cls, source: Representation, target: Representation,
              max_word_length: int = 8, min_table: int = 5000,
              length_tol: float = 1e-6) -> "OrbitBoundaryMap":
        """Table over the reduced words up to ``max_word_length`` that are
        loxodromic (translation length above ``length_tol``) on both sides.

        Works on all words at once from the k = 3 spin matrices, and takes
        the source half from ``source._orbit_table_source``; the table is
        bitwise the one of evaluating each word, filtering it with
        ``translation_length`` and taking ``loxodromic_fixed_points``.
        """
        if len(source.generators) != len(target.generators):
            raise ValueError("representations must share a generating set")
        if any(g.spin is None for g in source.generators + target.generators):
            raise ValueError("orbit tables need the spin matrices of k = 3 generators")
        words, src_lox, src_fixed = source._orbit_table_source(max_word_length, length_tol)
        tgt = _word_spins(target, words)
        tgt_lox = _spin_translation_lengths(tgt) > length_tol
        keep = src_lox & tgt_lox
        n = int(keep.sum())
        if n < min_table:
            raise ValueError(
                f"orbit table too small ({n} < {min_table}); "
                "increase max_word_length")
        return cls(src_fixed[tgt_lox[src_lox]], tgt[keep])

    def _fill(self, idx: np.ndarray) -> None:
        # LAPACK solves each matrix of a batch on its own, so an entry is
        # bitwise the same whichever batch computes it
        need = np.unique(idx[~self._filled[idx]])
        self._target[need] = _attracting_fixed_points(self._target_spins[need])
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

class PushedFamily:
    """Visual family pushed through a boundary map: fixed image atoms,
    basepoint-dependent weights.  Precomputes the node images once."""

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

    def weights_at(self, x: np.ndarray) -> np.ndarray:
        k = self.family.dimension
        raw = self.base_weights * np.exp(-(k - 1) * busemann_many(x, self.nodes))
        return raw / raw.sum()

    def measure_at(self, x: np.ndarray) -> BoundaryMeasure:
        return BoundaryMeasure(np.empty(0), np.empty((0, self.target_dim)),
                               self.weights_at(x), self.images)


def _solve_barycenter(pushed: PushedFamily, x: np.ndarray,
                      cfg: SolverConfig | None) -> BarycenterResult:
    res = barycenter(pushed.measure_at(x), cfg)
    if res.kind != "interior":
        raise ElementaryRepresentationError(
            "pushed visual measure concentrates at an ideal point")
    return res


def natural_map(rho: Representation | None, D, family: VisualFamily,
                x: HPoint, cfg: SolverConfig | None = None) -> HPoint:
    """F(x): barycenter of the pushforward under D of the visual measure at x."""
    if rho is not None and len(rho.generators) > 1 and rho.is_elementary():
        raise ElementaryRepresentationError("representation is elementary")
    pushed = D if isinstance(D, PushedFamily) else PushedFamily(D, family)
    return _solve_barycenter(pushed, x.coords, cfg).location


@dataclass(frozen=True)
class OperatorPair:
    """Second-fundamental data of the natural map at one basepoint.

    H integrates the squared Busemann differentials at the image, K = I - H
    is the integrated Busemann Hessian (curvature -1 identity), H_prime is
    the source-side analogue on T_x H^k.
    """

    H: np.ndarray
    K: np.ndarray
    H_prime: np.ndarray
    basepoint: HPoint
    image: HPoint

    @property
    def trace_error(self) -> float:
        return abs(float(np.trace(self.H)) - 1.0)


def operators_at(rho: Representation | None, D, family: VisualFamily,
                 x: HPoint, cfg: SolverConfig | None = None,
                 image: HPoint | None = None) -> OperatorPair:
    pushed = D if isinstance(D, PushedFamily) else PushedFamily(D, family)
    xc = x.coords
    if image is None:
        image = _solve_barycenter(pushed, xc, cfg).location
    w = pushed.weights_at(xc)
    b = busemann_gradients_frame(image.coords, pushed.images)
    H = np.einsum("i,ij,il->jl", w, b, b)
    a = busemann_gradients_frame(xc, pushed.nodes)
    Hp = np.einsum("i,ij,il->jl", w, a, a)
    return OperatorPair(H, np.eye(H.shape[0]) - H, Hp, x, image)


@dataclass(frozen=True)
class JacobianResult:
    DF: np.ndarray            # (m, k) in orthonormal frames at x and F(x)
    jac_k: float              # product of singular values
    method: str
    k_min_eigenvalue: float
    fell_back: bool = False

    @property
    def operator_norm(self) -> float:
        return float(np.linalg.svd(self.DF, compute_uv=False)[0])


def _finite_difference_DF(pushed: PushedFamily, x: np.ndarray,
                          image: HPoint, cfg: SolverConfig | None,
                          h: float) -> np.ndarray:
    k = x.size
    lam_f = conformal_factor(image.coords)
    chart_scale = (1.0 - float(np.dot(x, x))) / 2.0
    cols = []
    for i in range(k):
        step = np.zeros(k)
        step[i] = h * chart_scale
        fp = _solve_barycenter(pushed, _exp_chart(x, step), cfg).location
        fm = _solve_barycenter(pushed, _exp_chart(x, -step), cfg).location
        diff = _log_chart(image.coords, fp.coords) - _log_chart(image.coords, fm.coords)
        cols.append(lam_f * diff / (2.0 * h))
    return np.column_stack(cols)


def jacobian(rho: Representation | None, D, family: VisualFamily, x: HPoint,
             method: str = "implicit", cfg: SolverConfig | None = None,
             h: float = FD_STEP_DEFAULT,
             pair: OperatorPair | None = None) -> JacobianResult:
    """Differential of the natural map in orthonormal frames, plus Jac_k.

    'implicit' solves K DF = (k-1) L from the differentiated stationarity
    identity; 'finite-difference' takes symmetric differences of the map in
    normal coordinates.  An ill-conditioned K (smallest eigenvalue below
    1e-6) triggers the finite-difference fallback, flagged on the result.
    """
    if method not in ("implicit", "finite-difference"):
        raise ValueError(f"unknown method '{method}'")
    pushed = D if isinstance(D, PushedFamily) else PushedFamily(D, family)
    xc = x.coords
    if pair is None:
        pair = operators_at(rho, pushed, family, x, cfg)
    image = pair.image
    kmin = float(np.linalg.eigvalsh(pair.K)[0])
    k = family.dimension
    fell_back = method == "implicit" and kmin < K_CONDITION_FLOOR
    if method == "implicit" and not fell_back:
        w = pushed.weights_at(xc)
        b = busemann_gradients_frame(image.coords, pushed.images)
        a = busemann_gradients_frame(xc, pushed.nodes)
        DF = (k - 1) * np.linalg.solve(pair.K, np.einsum("i,ij,il->jl", w, b, a))
    else:
        DF = _finite_difference_DF(pushed, xc, image, cfg, h)
        method = "finite-difference"
    sv = np.linalg.svd(DF, compute_uv=False)
    return JacobianResult(DF, float(np.prod(sv[:k])), method, kmin, fell_back=fell_back)


@dataclass(frozen=True)
class BoundReport:
    jac_measured: float
    bound: float
    margin: float
    psi_link_error: float     # |bound - (4/3)^(3/2) sqrt(psi(H))| when k = m = 3
    restricted: bool
    passed: bool


def jacobian_bound_check(pair: OperatorPair, jac: JacobianResult,
                         k: int, m: int, tol: float = 1e-3) -> BoundReport:
    """Check Jac_k <= (k-1)^k / k^(k/2) * sqrt(det H^V) / det((I-H)^V).

    For k = m the restriction is the whole space and for k = 3 the constant
    equals (4/3)^(3/2), tying the bound to sqrt(psi(H)).
    """
    const = (k - 1) ** k / k ** (k / 2.0)
    if m == k:
        HV = pair.H
        KV = pair.K
        restricted = False
    else:
        Q, _ = np.linalg.qr(jac.DF)       # orthonormal basis of the image of DF
        HV = Q.T @ pair.H @ Q
        KV = Q.T @ pair.K @ Q
        restricted = True
    bound = const * np.sqrt(max(np.linalg.det(HV), 0.0)) / np.linalg.det(KV)
    psi_err = float("nan")
    if k == m == 3:
        psi_err = abs(bound - (4.0 / 3.0) ** 1.5 * np.sqrt(spd.psi(pair.H)))
    return BoundReport(jac.jac_k, float(bound), float(bound - jac.jac_k),
                       psi_err, restricted, bool(jac.jac_k <= bound + tol))


def stationarity_residual(pushed: PushedFamily, x: np.ndarray,
                          image: HPoint) -> float:
    """Norm of the integrated Busemann differential at the computed image."""
    w = pushed.weights_at(x)
    b = busemann_gradients_frame(image.coords, pushed.images)
    return float(np.linalg.norm(w @ b))


def equivariance_deviation(rho: Representation, D, family: VisualFamily,
                           x: HPoint, letter: str,
                           source_action: Isometry,
                           cfg: SolverConfig | None = None) -> float:
    """d(F(gamma x), rho(gamma) F(x)) for one generator gamma."""
    pushed = D if isinstance(D, PushedFamily) else PushedFamily(D, family)
    fx = natural_map(rho, pushed, family, x, cfg)
    gx = source_action.apply(x)
    return distance(natural_map(rho, pushed, family, gx, cfg),
                    rho.evaluate(letter).apply(fx))


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
                            reference_volume: float,
                            cfg: SolverConfig | None = None) -> list[DiagnosticsRow]:
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
        lengths = tuple(float(translation_length(g)) for g in rep.generators)
        images = []
        for i, p in enumerate(probes):
            pair = operators_at(rep, pushed, family, p, cfg)
            jac = jacobian(rep, pushed, family, p, "implicit", cfg, pair=pair)
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
                lengths, float(vol), float(reference_volume - vol),
                getattr(D, "approximate", False)))
    return rows


def diagnostics_to_csv(rows) -> str:
    header = ("parameter,probe_index,jac,H_dev,H_lambda_max,H_eigen_dev,"
              "DF_norm,lipschitz,translation_lengths,volume,volume_deficit,"
              "approximate_D")
    lines = [header]
    for r in rows:
        lens = ";".join(f"{v:.12g}" for v in r.translation_lengths)
        lines.append(
            f"{r.parameter:.12g},{r.probe_index},{r.jac:.12g},{r.h_deviation:.12g},"
            f"{r.h_lambda_max:.12g},{r.h_eigen_dev:.12g},"
            f"{r.df_norm:.12g},{r.lipschitz:.12g},{lens},{r.volume:.12g},"
            f"{r.volume_deficit:.12g},{int(r.approximate_boundary_map)}")
    return "\n".join(lines) + "\n"
