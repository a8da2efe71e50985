"""Models of real hyperbolic space H^k with numerical coordinates.

Points, Busemann calculus and the exponential map live in the Poincare
ball (closed forms are best conditioned there); the hyperboloid is only the
model of the Lorentz matrices that act as isometries, and `Isometry.apply`
converts a point there and back.
For k = 3 a holonomy is composed from 2x2 complex matrices in SL(2,C),
whose long products round far less than 4x4 ones; translation lengths and
attracting fixed points are read from stacks of those matrices, and
``psl2_to_lorentz`` gives the Lorentz matrix of one.

Conventions
-----------
* Ball model: open unit ball in R^k with metric 4|dx|^2/(1-|x|^2)^2.
* Hyperboloid: upper sheet of <X,X> = -1 in R^(k,1), Lorentz form
  diag(-1, 1, ..., 1), time coordinate first.
* Busemann functions are normalized at the origin O of the ball.
* Gradients and Hessians are given in frame components: coefficients in
  the conformal orthonormal frame E_i = ((1-|x|^2)/2) d/dx_i.  The frame
  components of a Busemann gradient form a unit Euclidean vector, and the
  Hessian of B(., theta) is I - b b^T with b that vector.  ``_exp_frame``
  and ``_log_frame`` take and return tangent vectors in the same frame.
* For k = 3 an ideal point is a homogeneous pair (z0, z1) in C^2, the
  point at infinity (1, 0) among them, and a 2x2 complex matrix A moves it
  to A @ (z0, z1); ``sphere_from_homogeneous`` gives its unit direction.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

LORENTZ_FORM_TOL = 1e-10
BOUNDARY_NORM_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in hyperbolic spaces of different dimension."""


def minkowski(n: int) -> np.ndarray:
    """Matrix of the Lorentz form diag(-1, 1, ..., 1) on R^(n-1,1)."""
    J = np.eye(n)
    J[0, 0] = -1.0
    return J


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HPoint:
    """Point of H^k in the open unit ball model."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("ball point needs a vector of dimension >= 2")
        if not np.dot(c, c) < 1.0:        # NaN fails it
            raise ValueError("ball point must have Euclidean norm < 1")

    @property
    def dimension(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class BoundaryPoint:
    """Ideal point: unit vector on the sphere at infinity of H^k."""

    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if not abs(n - 1.0) <= 1e-6:      # NaN fails it
            raise ValueError("boundary point must be a unit vector")
        if abs(n - 1.0) > BOUNDARY_NORM_TOL:
            d = d / n
        object.__setattr__(self, "direction", d)


# ---------------------------------------------------------------------------
# ball <-> hyperboloid conversions (array level)
# ---------------------------------------------------------------------------

def ball_to_hyperboloid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = np.dot(x, x)
    f = 2.0 / (1.0 - s)
    X = np.empty(x.size + 1)
    X[0] = f - 1.0
    X[1:] = f * x
    return X

def hyperboloid_to_ball(X: np.ndarray) -> np.ndarray:
    return X[1:] / (1.0 + X[0])


# ---------------------------------------------------------------------------
# distance and Busemann calculus
# ---------------------------------------------------------------------------

def distance(x: HPoint, y: HPoint) -> float:
    """Hyperbolic distance in the ball model.

    Uses d = 2 asinh sqrt(|x-y|^2 / ((1-|x|^2)(1-|y|^2))), which stays
    accurate for nearby points where the acosh form loses digits.
    """
    if x.dimension != y.dimension:
        raise DimensionMismatchError(f"dimension {x.dimension} vs {y.dimension}")
    a, b = x.coords, y.coords
    q = np.dot(a - b, a - b) / ((1.0 - np.dot(a, a)) * (1.0 - np.dot(b, b)))
    return 2.0 * float(np.arcsinh(np.sqrt(q)))


def busemann_chords(x: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chords x - theta_i to an (N, k) array of unit directions and
    their squared lengths |x - theta_i|^2: the first step of both Busemann
    kernels, which a caller evaluating both at one point builds once."""
    diff = x[None, :] - directions
    return diff, np.einsum("ij,ij->i", diff, diff)


def busemann_many(x: np.ndarray, directions: np.ndarray,
                  chords: tuple | None) -> np.ndarray:
    """B(x, theta_i) for an (N, k) array of unit directions, normalized so
    that B(O, theta) = 0.  ``chords`` is ``busemann_chords(x, directions)``
    when the caller already holds it, else None."""
    _, r2 = chords or busemann_chords(x, directions)
    return np.log(r2 / (1.0 - np.dot(x, x)))


def busemann_gradients_frame(x: np.ndarray, directions: np.ndarray,
                             chords: tuple | None) -> np.ndarray:
    """Frame components of grad_x B(x, theta_i), one unit row per direction;
    ``chords`` as for `busemann_many`.

    The closed form b = x + (1-|x|^2)(x-theta)/|x-theta|^2 has exactly unit
    Euclidean norm, which the operator assembly downstream relies on.
    """
    diff, r2 = chords or busemann_chords(x, directions)
    return x[None, :] + (1.0 - np.dot(x, x)) * diff / r2[:, None]


# ---------------------------------------------------------------------------
# exponential and logarithm in frame components
# ---------------------------------------------------------------------------

def _exp_frame(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp_x(v) for a tangent vector v in frame components at x: the Mobius
    sum x (+) w with w = tanh(|v|/2) v/|v|, the point at distance |v| from
    the origin toward v, moved by the isometry that takes O to x."""
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return x.copy()
    w = np.tanh(n / 2.0) / n * v
    xw, xx, ww = np.dot(x, w), np.dot(x, x), np.dot(w, w)
    return ((1.0 + 2.0 * xw + ww) * x + (1.0 - xx) * w) / (1.0 + 2.0 * xw + xx * ww)

def _log_frame(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log_x(y) in frame components at x: the direction of (-x) (+) y,
    formed from y - x without cancellation, scaled to `distance`(x, y)."""
    d = y - x
    u = (1.0 - np.dot(x, x)) * d - np.dot(d, d) * x
    n = float(np.linalg.norm(u))
    if n == 0.0:
        return np.zeros_like(x)
    return distance(HPoint(x), HPoint(y)) / n * u

# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Isometry:
    """Element of Isom(H^k) stored as a Lorentz matrix in O(k,1)."""

    lorentz: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.lorentz, dtype=float)
        object.__setattr__(self, "lorentz", g)
        n = g.shape[0]
        if g.shape != (n, n) or n < 3:
            raise ValueError("Lorentz matrix must be square of size k+1 >= 3")
        J = minkowski(n)
        # relative tolerance: rounding in g^T J g scales with |g|^2
        scale = max(1.0, float(np.max(np.abs(g))) ** 2)
        if np.max(np.abs(g.T @ J @ g - J)) > LORENTZ_FORM_TOL * scale:
            raise ValueError("matrix does not preserve the Lorentz form")
        if g[0, 0] <= 0:
            raise ValueError("matrix swaps the hyperboloid sheets")

    @property
    def dimension(self) -> int:
        return self.lorentz.shape[0] - 1

    @staticmethod
    def identity(k: int) -> "Isometry":
        return Isometry(np.eye(k + 1))

    def apply(self, x: HPoint) -> HPoint:
        if x.dimension != self.dimension:
            raise DimensionMismatchError("point of wrong dimension")
        return HPoint(hyperboloid_to_ball(self.lorentz @ ball_to_hyperboloid(x.coords)))

    def apply_boundary_many(self, directions: np.ndarray) -> np.ndarray:
        """Boundary action on an (N, k) array of unit directions."""
        n = directions.shape[0]
        lifts = np.concatenate([np.ones((n, 1)), directions], axis=1)
        out = lifts @ self.lorentz.T
        return out[:, 1:] / out[:, :1]


def random_isometry(rng: np.random.Generator, k: int,
                    translation_scale: float, rotation_scale: float) -> Isometry:
    """Random element of Isom+(H^k) via the exponential of a so(k,1) element."""
    from scipy.linalg import expm

    a = translation_scale * rng.standard_normal(k)
    omega = rotation_scale * rng.standard_normal((k, k))
    omega = (omega - omega.T) / 2.0
    A = np.zeros((k + 1, k + 1))
    A[0, 1:] = a
    A[1:, 0] = a
    A[1:, 1:] = omega
    return Isometry(expm(A))


# ---------------------------------------------------------------------------
# translation length and fixed points
# ---------------------------------------------------------------------------

def translation_length(A: np.ndarray) -> np.ndarray:
    """inf_y d(gy, y) of each isometry g of H^3 in a (..., 2, 2) stack of
    complex matrices, from its trace over the square root of its
    determinant; zero for elliptic and parabolic isometries."""
    # bitwise np.trace: a two-term diagonal sums in this order
    tr = (A[..., 0, 0] + A[..., 1, 1]) / np.sqrt(np.linalg.det(A))
    ell = 2.0 * np.abs(np.arccosh(tr / 2.0).real)
    return np.where(ell > 1e-12, ell, 0.0)


def loxodromic_fixed_points(A: np.ndarray) -> np.ndarray:
    """(n, 3) attracting fixed points of an (n, 2, 2) stack of complex
    matrices of loxodromic isometries of H^3; the repelling point of g is
    the attracting point of its inverse.

    Elementwise eigenvectors for the roots of c z^2 + (d - a) z - b = 0
    (Beardon, *The Geometry of Discrete Groups*, 4.3).  With h = (a - d)/2
    and r = sqrt(h^2 + bc), free of the cancellation in tr^2 - 4, the
    eigenvalue of larger modulus is tr/2 + s r, s = +1 iff Re(conj(tr) r)
    >= 0; of its eigenvectors (b, s r - h) and (h + s r, c) the one of
    larger 1-norm is kept.  Points are projective: det A never enters.
    Against 40-digit fixed points of the same float matrices the error on
    the orbit tables is at most 0.7 eps kappa, kappa = |A / sqrt(det A)|_F^2
    / |lambda - 1/lambda| (2.4 eps kappa with LAPACK's eigenvectors).
    """
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    h = (a - d) / 2.0
    r = np.sqrt(h * h + b * c)
    r = np.where(((a + d).conj() * r).real >= 0.0, r, -r)
    u = np.stack([b, r - h], axis=-1)
    v = np.stack([h + r, c], axis=-1)
    first = np.abs(u).sum(axis=-1) >= np.abs(v).sum(axis=-1)
    return sphere_from_homogeneous(np.where(first[:, None], u, v))


# ---------------------------------------------------------------------------
# spin (2x2 complex) utilities for k = 3
# ---------------------------------------------------------------------------

_PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def psl2_to_lorentz(A: np.ndarray) -> Isometry:
    """Orientation-preserving isometry of H^3 from a 2x2 complex matrix.

    The matrix acts on Hermitian forms X -> A X A*; in the Pauli basis this
    is a Lorentz matrix on R^(3,1), L[mu, nu] = Re tr(s_mu A s_nu A*) / 2,
    with all 16 products formed in one stacked chain.  A is normalized to
    unit determinant.
    """
    A = np.asarray(A, dtype=complex)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    A = A / cmath.sqrt(det)
    chain = ((_PAULI[:, None] @ A) @ _PAULI[None, :]) @ A.conj().T
    return Isometry(0.5 * np.real(np.trace(chain, axis1=2, axis2=3)))


def sphere_from_homogeneous(v: np.ndarray) -> np.ndarray:
    """(..., 3) ideal points of H^3 from (..., 2) homogeneous coordinates
    (z0, z1) on the Riemann sphere, by stereographic projection of z0 / z1:
    (2 Re w, -2 Im w, |z0|^2 - |z1|^2) / (|z0|^2 + |z1|^2) with w = z0 z1*.
    The point at infinity (1, 0) goes to the north pole."""
    v = np.asarray(v, dtype=complex)
    z0, z1 = v[..., 0], v[..., 1]
    w = z0 * z1.conj()
    n0 = z0.real * z0.real + z0.imag * z0.imag
    n1 = z1.real * z1.real + z1.imag * z1.imag
    s = n0 + n1
    return np.stack([2.0 * w.real / s, -2.0 * w.imag / s, (n0 - n1) / s], axis=-1)


def adjugate(A: np.ndarray) -> np.ndarray:
    """Adjugate of a 2x2 complex matrix: the inverse Mobius map, and the
    inverse matrix when det A = 1."""
    a, b, c, d = A.ravel()
    return np.array([[d, -b], [-c, a]], dtype=complex)
