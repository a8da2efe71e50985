"""Ideal triangulations, gluing equations, dilogarithm volume, holonomy.

Shapes live on tetrahedra with ideal vertices; the edge parameter at edge
(v0, v1) is the cross ratio z of the developed vertex quadruple, and the
remaining edge pairs carry 1/(1-z) and 1-1/z.  Edge classes of the
triangulation impose product-of-slots = 1 (log sum = 2 pi i) and a cusp
row measures the similarity derivative of a peripheral curve.

The figure-eight knot complement (two tetrahedra, one cusp) ships as the
built-in instance; its face pairings are validated by the test suite
(edge-class structure, complete solution, holonomy relator, volume).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import adjugate
from .natural_map import _LETTERS, Representation

TWO_PI_I = 2j * np.pi


class DevelopingFailureError(RuntimeError):
    """Shapes are too degenerate to develop the triangulation."""


# ---------------------------------------------------------------------------
# Bloch-Wigner dilogarithm
# ---------------------------------------------------------------------------

# Bernoulli numbers B_0 .. B_34 (odd ones beyond B_1 vanish)
_BERNOULLI = np.zeros(35)
_BERNOULLI[[0, 1]] = [1.0, -0.5]
_BERNOULLI[2:35:2] = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
    8615841276005.0 / 14322, -7709321041217.0 / 510, 2577687858367.0 / 6,
]


# Debye coefficients B_k / (k+1)!, highest power first for np.polyval:
# Li2(w) = u sum_k B_k u^k / (k+1)! at u = -log(1-w)
_DEBYE = (_BERNOULLI / np.cumprod(np.arange(1.0, 36.0)))[::-1]


def bloch_wigner(z) -> float | np.ndarray:
    """D(z) = Im Li2(z) + arg(1-z) log|z|: volume of the ideal tetrahedron
    with cross ratio z.  Real z (flat tetrahedra) return exactly 0.

    D(1/z) = D(1-z) = -D(z), so z is reduced to w with |w| <= 1 and
    Re w <= 1/2 (1/z where |z| > 1, then 1 - w where Re w > 1/2, as (z - 1)/z
    after 1/z, exact near z = 1), and D is negated where one reduction
    applied.  There |u| = |log(1-w)| <= pi/3, and the Debye series reaches
    double precision, on the unit circle too.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any((z == 0) | (z == 1)):
        raise ValueError("dilogarithm pole at z in {0, 1}")
    inv = np.abs(z) > 1.0
    w = np.where(inv, 1.0 / z, z)
    refl = np.real(w) > 0.5
    w = np.where(refl, np.where(inv, (z - 1.0) / z, 1.0 - w), w)
    u = -np.log(1.0 - w)
    val = np.imag(u * np.polyval(_DEBYE, u)) + np.angle(1.0 - w) * np.log(np.abs(w))
    val = np.where(inv ^ refl, -val, val)
    val[np.imag(z) == 0.0] = 0.0
    return float(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# triangulation combinatorics
# ---------------------------------------------------------------------------

# edge pair -> which cyclic variant of the tetrahedron parameter it carries;
# derived from the cross-ratio convention cr(a,b,c,d) = (d-a)(c-b)/((c-a)(d-b))
# on the normalized tetrahedron (0, inf, 1, z)
_SLOT_OF_PAIR = {
    frozenset({0, 1}): 0, frozenset({2, 3}): 0,   # z
    frozenset({0, 3}): 1, frozenset({1, 2}): 1,   # 1/(1-z)
    frozenset({0, 2}): 2, frozenset({1, 3}): 2,   # 1 - 1/z
}


def slot_logs(z: complex) -> tuple[complex, complex, complex]:
    """Logs of the three slot parameters z, 1/(1-z) and 1 - 1/z."""
    return cmath.log(z), cmath.log(1.0 / (1.0 - z)), cmath.log(1.0 - 1.0 / z)


@dataclass(frozen=True)
class IdealTriangulation:
    """Tetrahedra glued along faces.

    ``gluings`` maps (tet, face) to (tet', face', perm) where face indices
    name the opposite vertex and perm is the full vertex correspondence
    (perm[i] = image vertex).  Cusp rows are integer slot-log exponent
    vectors (one triple per tetrahedron) whose combination vanishes exactly
    at complete solutions.
    """

    num_tetrahedra: int
    gluings: dict
    cusp_rows: tuple
    name: str

    def __post_init__(self):
        for (t, f), (t2, f2, perm) in self.gluings.items():
            back = self.gluings.get((t2, f2))
            if back is None or back[0] != t or back[1] != f:
                raise ValueError("gluings are not involutive")
            inv = tuple(perm.index(i) for i in range(4))
            if tuple(back[2]) != inv:
                raise ValueError("gluing permutations are not inverse to each other")
            if perm[f] != f2:
                raise ValueError("gluing must send the face vertex to the far vertex")

    @cached_property
    def edge_classes(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Edge orbits as tuples of (tet, vertex_i, vertex_j) incidences,
        found once per triangulation by union-find over the face gluings."""
        edges = [(t, i, j) for t in range(self.num_tetrahedra)
                 for i in range(4) for j in range(i + 1, 4)]
        index = {e: n for n, e in enumerate(edges)}
        parent = list(range(len(edges)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (t, f), (t2, _, perm) in self.gluings.items():
            verts = [v for v in range(4) if v != f]
            for a in range(3):
                for b in range(a + 1, 3):
                    i, j = verts[a], verts[b]
                    p, q = sorted((perm[i], perm[j]))
                    ra, rb = find(index[(t, i, j)]), find(index[(t2, p, q)])
                    parent[ra] = rb
        groups: dict[int, list] = {}
        for e in edges:
            groups.setdefault(find(index[e]), []).append(e)
        return tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: (len(g), g)))

    @cached_property
    def edge_exponents(self) -> np.ndarray:
        """(n_edges, n_tets, 3) slot exponent array of the edge equations,
        built once per triangulation and read-only."""
        out = np.zeros((len(self.edge_classes), self.num_tetrahedra, 3), dtype=int)
        for e, cls in enumerate(self.edge_classes):
            for (t, i, j) in cls:
                out[e, t, _SLOT_OF_PAIR[frozenset({i, j})]] += 1
        out.setflags(write=False)
        return out

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, int], ...]:
        """Gluing keys (tet, face) placing tetrahedra 1..n-1 in order, found
        once per triangulation.  Each expands through the canonically
        smallest gluing from a placed to an unplaced tetrahedron, so the
        tree (hence the generator set) does not depend on dict order."""
        placed, tree = [0], []
        while len(placed) < self.num_tetrahedra:
            _, t, f = min((tuple(sorted(((t, f), self.gluings[(t, f)][:2]))), t, f)
                          for t in placed for f in range(4)
                          if self.gluings[(t, f)][0] not in placed)
            tree.append((t, f))
            placed.append(self.gluings[(t, f)][0])
        return tuple(tree)

    @cached_property
    def presentation(self) -> tuple[tuple[tuple[int, int], ...], tuple[str, ...]]:
        """(generator keys, relator words) of the fundamental group, found
        once per triangulation: the non-tree face pairings generate, the
        edge-cycle words relate, and generators occurring once in a relator
        are eliminated, which leaves two generators (sorted keys, spelled a
        and b) and one relator for the figure-eight."""
        tree = {k for key in self.spanning_tree for k in (key, self.gluings[key][:2])}
        keys = []
        for key, (t2, f2, _) in self.gluings.items():
            if key not in tree and (t2, f2) not in keys:
                keys.append(key)
        words = [_free_reduce(edge_cycle_word(self, keys, cls[0]))
                 for cls in self.edge_classes]
        keys, rels = _eliminate_generators(sorted(keys), [w for w in words if w])
        if len(keys) > len(_LETTERS):
            raise DevelopingFailureError("too many surviving generators")
        letter_of = {kk: _LETTERS[i] for i, kk in enumerate(keys)}
        return tuple(keys), tuple("".join(letter_of[kk] if s > 0 else letter_of[kk].upper()
                                          for (kk, s) in r) for r in rels)


# ---------------------------------------------------------------------------
# gluing and cusp residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    edge: np.ndarray          # log-sum minus 2 pi i, per edge class
    cusp: np.ndarray          # cusp-row log combinations (0 when complete)

    def max_edge(self) -> float:
        return float(np.max(np.abs(self.edge)))

    def max_cusp(self) -> float:
        return float(np.max(np.abs(self.cusp))) if self.cusp.size else 0.0


def gluing_residual(tri: IdealTriangulation, shapes) -> ResidualReport:
    """Edge equation residuals (and cusp residuals) at the given shapes."""
    z = np.asarray(shapes, dtype=complex)
    if np.any((z == 0) | (z == 1)):
        raise ValueError("shape parameter at a pole")
    logs = np.array([slot_logs(zi) for zi in z])
    edge = np.einsum("etc,tc->e", tri.edge_exponents, logs) - TWO_PI_I
    cusp = np.array([np.sum(np.asarray(row) * logs) for row in tri.cusp_rows])
    return ResidualReport(edge, cusp)


@dataclass(frozen=True)
class VolumeValue:
    value: float
    error_estimate: float


def volume_of_shapes(shapes) -> VolumeValue:
    """Signed dilogarithm volume of a shape assignment."""
    z = np.asarray(shapes, dtype=complex)
    vals = bloch_wigner(z)
    total = float(np.sum(vals))
    return VolumeValue(total, 5e-15 * z.size)


# ---------------------------------------------------------------------------
# developing in the Riemann sphere
# ---------------------------------------------------------------------------

def _mobius_to_zero_inf_one(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Matrix of the Mobius map sending the homogeneous points (a, b, c) to
    (0, inf, 1): its rows r1 = (a1, -a0) and r2 = (b1, -b0) vanish on a and
    b, and scaling them by r2 . c and r1 . c sends c to (1, 1) up to scale."""
    r1 = np.array([a[1], -a[0]])
    r2 = np.array([b[1], -b[0]])
    # the dot products as explicit sums, which for a1 = b1 = c1 = 1 are
    # c0 - b0 and c0 - a0 bit for bit
    return np.array([(r2[0] * c[0] + r2[1] * c[1]) * r1,
                     (r1[0] * c[0] + r1[1] * c[1]) * r2])


def _normalize_det(M: np.ndarray) -> np.ndarray:
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0:
        raise DevelopingFailureError("degenerate Mobius transformation")
    return M / cmath.sqrt(det)


def _normalized_positions(z: complex) -> np.ndarray:
    """Rows (0, 1), (1, 0), (1, 1), (z, 1): the vertices 0, inf, 1, z."""
    return np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [z, 1.0]], dtype=complex)


def _place_through_face(positions: np.ndarray, face: int, perm, z_new: complex):
    """Vertex positions of the neighbor tet copy sharing the face opposite
    ``face``, as the (4, 2) rows of homogeneous points, and the matrix that
    carries the neighbor's normalized positions there.

    ``positions`` are the current tet's developed vertices; the neighbor's
    vertex perm[i] lands on positions[i] for i != face, and its remaining
    vertex is found from its own shape parameter.
    """
    known = {perm[i]: positions[i] for i in range(4) if i != face}
    norm = _normalized_positions(z_new)
    idx = sorted(known.keys())
    M_norm = _mobius_to_zero_inf_one(*(norm[v] for v in idx))
    M_img = _mobius_to_zero_inf_one(*(known[v] for v in idx))
    A = adjugate(M_img) @ M_norm
    return np.array([known[v] if v in known else A @ norm[v] for v in range(4)]), A


def develop(tri: IdealTriangulation, shapes) -> tuple[tuple, tuple]:
    """Placements (per tet, the (4, 2) homogeneous coordinates of its
    developed vertices) of one fundamental set, and the unit-det deck
    transformation of each generator gluing of ``tri.presentation``,
    identifying the far copy with its fundamental placement.  Tetrahedron 0
    sits at its normalized positions, and the spanning tree places every
    other tetrahedron once.  A generator is an element of PSL(2,C): its
    matrix is defined up to sign.
    """
    z = np.asarray(shapes, dtype=complex)
    if np.any(np.abs(z) < 1e-10) or np.any(np.abs(1.0 - z) < 1e-10):
        raise DevelopingFailureError("shapes too close to a degenerate tetrahedron")
    placements = {0: _normalized_positions(z[0])}
    maps = {0: np.eye(2, dtype=complex)}
    for t, f in tri.spanning_tree:
        t2, _, perm = tri.gluings[(t, f)]
        placements[t2], maps[t2] = _place_through_face(placements[t], f, perm, z[t2])
    generators = []
    for t, f in tri.presentation[0]:
        t2, _, perm = tri.gluings[(t, f)]
        _, A = _place_through_face(placements[t], f, perm, z[t2])
        # deck transformation: far copy of t2 = gamma . fundamental copy
        generators.append(_normalize_det(A @ adjugate(maps[t2])))
    return tuple(placements[t] for t in range(tri.num_tetrahedra)), tuple(generators)


def edge_cycle_word(tri: IdealTriangulation, generator_keys,
                    start: tuple[int, int, int]):
    """Walk around an edge class and express the cycle as a deck word.

    Returns a list of (gluing_key, sign) pairs over ``generator_keys``;
    tree crossings contribute nothing.  The product of the corresponding
    generator matrices is a relator of the fundamental group.
    """
    t, i, j = start
    entered = next(v for v in range(4) if v not in (i, j))
    word = []
    state = (t, i, j, entered)
    first = True
    while first or state != (t, i, j, entered):
        first = False
        ct, ci, cj, centered = state
        cross = next(v for v in range(4) if v not in (ci, cj, centered))
        t2, f2, perm = tri.gluings[(ct, cross)]
        if (ct, cross) in generator_keys:
            word.append(((ct, cross), +1))
        elif (t2, f2) in generator_keys:
            word.append(((t2, f2), -1))
        state = (t2, perm[ci], perm[cj], f2)
        if len(word) > 100:
            raise RuntimeError("edge cycle failed to close")
    return word


# ---------------------------------------------------------------------------
# the figure-eight knot complement
# ---------------------------------------------------------------------------

# Face pairings of the two-tetrahedron layered triangulation of the
# once-punctured-torus bundle with monodromy R L; derived from the Farey
# flip sequence (0 -> 2 in the square with sides of slope inf and 1, then
# inf -> 3/2 in the square with sides of slope 1 and 2).
_FIG8_GLUINGS = {
    (0, 2): (1, 2, (0, 3, 2, 1)),
    (1, 2): (0, 2, (0, 3, 2, 1)),
    (0, 1): (1, 1, (2, 1, 0, 3)),
    (1, 1): (0, 1, (2, 1, 0, 3)),
    (0, 0): (1, 3, (3, 2, 0, 1)),
    (1, 3): (0, 0, (2, 3, 1, 0)),
    (0, 3): (1, 0, (2, 3, 1, 0)),
    (1, 0): (0, 3, (3, 2, 0, 1)),
}

# Slot-log exponent rows of the peripheral basis (meridian, longitude),
# in the squared-derivative convention: row . slot_logs equals the log of
# the squared similarity derivative of the curve, hence vanishes exactly at
# the complete structure.  Fitted from the developed peripheral holonomy
# along variety paths and verified by the test suite.
_FIG8_CUSP_ROWS = (
    np.array([[0, -1, 0], [0, 1, 0]]),
    np.array([[4, 2, 0], [-4, -2, 0]]),
)

FIG8_COMPLETE_SHAPE = complex(0.5, np.sqrt(3.0) / 2.0)   # exp(i pi / 3)
FIG8_VOLUME = 2.029883212819307


def figure_eight() -> IdealTriangulation:
    """The two-tetrahedron ideal triangulation of the figure-eight knot
    complement, with cusp data for the peripheral basis."""
    return IdealTriangulation(2, dict(_FIG8_GLUINGS), _FIG8_CUSP_ROWS,
                              name="figure-eight")


# ---------------------------------------------------------------------------
# holonomy representation
# ---------------------------------------------------------------------------

def _free_reduce(word):
    out = []
    for item in word:
        if out and out[-1][0] == item[0] and out[-1][1] == -item[1]:
            out.pop()
        else:
            out.append(item)
    return out


def _eliminate_generators(gen_keys, relators):
    """Tietze-reduce: drop generators occurring exactly once in a relator.

    Returns the surviving keys (sorted) and the reduced relators as
    (key, sign) lists.
    """
    keys = list(gen_keys)
    rels = [_free_reduce(list(r)) for r in relators]
    changed = True
    while changed:
        changed = False
        for r in rels:
            counts = {}
            for kk, _ in r:
                counts[kk] = counts.get(kk, 0) + 1
            single = [kk for kk, c in counts.items() if c == 1]
            if not single:
                continue
            kk = single[0]
            pos = next(i for i, (k2, _) in enumerate(r) if k2 == kk)
            sign = r[pos][1]
            # r = u k^sign v = 1  =>  k^sign = u^-1 v^-1
            u, v = r[:pos], r[pos + 1:]
            repl = [(k2, -s) for (k2, s) in reversed(u)] + \
                   [(k2, -s) for (k2, s) in reversed(v)]
            if sign < 0:
                repl = [(k2, -s) for (k2, s) in reversed(repl)]
            rels = [_free_reduce(_substitute(r2, kk, repl))
                    for r2 in rels if r2 is not r]
            keys.remove(kk)
            changed = True
            break
    return sorted(keys), [r for r in rels if r]


def _substitute(word, key, replacement):
    out = []
    for (kk, s) in word:
        if kk != key:
            out.append((kk, s))
        elif s > 0:
            out.extend(replacement)
        else:
            out.extend((k2, -s2) for (k2, s2) in reversed(replacement))
    return out


def holonomy_from_shapes(tri: IdealTriangulation, shapes,
                         residual: ResidualReport) -> Representation:
    """Holonomy representation developed from an edge-equation solution,
    on the triangulation's presentation; ``residual``, the shapes'
    ``gluing_residual``, must have its edge residual at most 1e-8."""
    if residual.max_edge() > 1e-8:
        raise ValueError(f"edge residual {residual.max_edge():.2e} exceeds 1e-8")
    return Representation(develop(tri, np.asarray(shapes, dtype=complex))[1],
                          tri.presentation[1])


# ---------------------------------------------------------------------------
# the gluing variety of the figure-eight: sampling and paths
# ---------------------------------------------------------------------------

def solve_edge_equations(z, branch):
    """The partner w of the first shape z on the figure-eight's gluing variety,
    elementwise: the root of z^2 w^2 = (1-z)(1-w), the rectangular edge
    equation, with +disc on branch 0 and -disc on branch 1."""
    a, b = z * z, 1.0 - z
    disc = np.sqrt(b * b + 4.0 * a * b)
    return (-b + (1 - 2 * branch) * disc) / (2 * a)


@dataclass(frozen=True)
class PathStep:
    t: float
    shapes: np.ndarray
    volume: VolumeValue
    representation: Representation
    edge_residual: float
    cusp_residual: float
    min_pole_distance: float


def deformation_path(tri: IdealTriangulation, steps: int,
                     t_end: float = 0.9905) -> list[PathStep]:
    """Points of the gluing variety along a path toward a shape degeneration.

    The complete structure at t = 0 comes first, then ``steps`` values of t
    from 0.02 to ``t_end``.  The first shape moves on the straight segment
    from the complete value toward the pole at 1, and the partner is its
    branch-1 root, the one continued from the complete structure: on the
    segment disc^2 keeps |arg| <= pi/3, off the square root's cut.  The
    partner runs to 0, so the end of the path approaches an ideal point of
    the variety, if ``steps`` is at least 2 (one step ends at 0.02).
    """
    if tri.name != "figure-eight":
        raise ValueError("built-in paths exist for the figure-eight only")
    if steps < 2:
        raise ValueError(f"a path needs at least 2 steps, got {steps}")
    z0 = FIG8_COMPLETE_SHAPE
    ts = np.concatenate([[0.0], np.linspace(0.02, t_end, steps)])
    z = z0 + ts * (1.0 - z0)
    w = solve_edge_equations(z, 1)
    w[0] = z0       # the complete structure, which branch 1 gives to an ulp
    return [_path_step(tri, float(t), np.array([zi, wi]))
            for t, zi, wi in zip(ts, z, w)]


def _path_step(tri: IdealTriangulation, t: float, shapes: np.ndarray) -> PathStep:
    res = gluing_residual(tri, shapes)
    rep = holonomy_from_shapes(tri, shapes, res)
    poles = np.concatenate([np.abs(shapes), np.abs(1.0 - shapes),
                            1.0 / np.abs(shapes)])
    return PathStep(t, shapes, volume_of_shapes(shapes), rep,
                    res.max_edge(), res.max_cusp(), float(poles.min()))


def sample_gluing_variety(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) random solutions of the figure-eight edge equations.

    2n first shapes are drawn uniformly over the box [-6, 7] x [-6, 6],
    draw i with its partner on quadratic branch i % 2.  Draws with a shape
    within 1e-3 of 0 or 1 are dropped; the first n left are returned in
    draw order (fewer if more than n were dropped).
    """
    zs = (rng.uniform(-6.0, 7.0, size=2 * n)
          + 1j * rng.uniform(-6.0, 6.0, size=2 * n))
    shapes = np.stack([zs, solve_edge_equations(zs, np.arange(2 * n) % 2)], axis=1)
    near_pole = (np.abs(shapes) < 1e-3) | (np.abs(1.0 - shapes) < 1e-3)
    return shapes[~near_pole.any(axis=1)][:n]
