"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the code paths it checks: series with
explicit tail bounds, brute-force quadrature, finite differences, closed
gamma-function formulas, exact rational arithmetic.
"""

import cmath
from fractions import Fraction
from math import gamma, sqrt

import numpy as np


def lobachevsky(theta: float, n_terms: int = 200000) -> float:
    """Sum of sin(2 n theta) / (2 n^2) with a summed-by-parts tail.

    Abel summation with the closed form of the sine partial sums; the tail
    window runs to 2e6 terms, leaving a remainder below
    1/(2 (2e6)^2 sin theta), under 2e-13 away from multiples of pi.
    """
    n = np.arange(1, n_terms + 1)
    head = float(np.sum(np.sin(2 * n * theta) / (2.0 * n ** 2)))

    def b(m):
        return 1.0 / (2.0 * m ** 2)

    def partial_sine(m):
        # sum_{j=N+1}^{m} sin(2 j theta)
        return ((np.cos((2 * n_terms + 1) * theta)
                 - np.cos((2 * m + 1) * theta)) / (2.0 * np.sin(theta)))

    m = np.arange(n_terms + 1, 2_000_001)
    tail = float(np.sum((b(m) - b(m + 1)) * partial_sine(m)))
    return head + tail


def collar_supremum_golden(margin: float, iterations: int = 100) -> float:
    """Supremum of Psi(a) = prod a_i / (1 - a_i)^2 over the k = 3 collar
    {min a_i < margin}, for small margins.

    The supremum is approached as the smallest coordinate rises to the
    margin, so this maximises Psi(margin, b, 1 - margin - b) over
    b in [margin, (1 - margin) / 2] by golden-section search, which needs
    only that Psi is unimodal in b there.  Psi is evaluated in exact
    rational arithmetic at each float b; 100 shrinks of the bracket by
    0.618 pin b to float resolution.
    """
    y = Fraction(margin)

    def psi(b):
        b = Fraction(b)
        c = 1 - y - b
        return y * b * c / ((1 - y) * (1 - b) * (1 - c)) ** 2

    shrink = (sqrt(5.0) - 1.0) / 2.0
    lo, hi = margin, (1.0 - margin) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = psi(x1), psi(x2)
    for _ in range(iterations):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = psi(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = psi(x1)
    return float(max(f1, f2))


def bloch_wigner_mpmath(z: complex, digits: int = 30) -> float:
    """D(z) = Im Li2(z) + arg(1 - z) log|z| from mpmath's polylogarithm at
    ``digits`` significant digits."""
    import mpmath
    with mpmath.workdps(digits):
        w = mpmath.mpc(z.real, z.imag)
        return float(mpmath.im(mpmath.polylog(2, w))
                     + mpmath.arg(1 - w) * mpmath.log(abs(w)))


def fig8_partner_roots_mpmath(z: complex, digits: int = 40) -> tuple[complex, complex]:
    """Both roots w of z^2 w^2 + (1 - z) w - (1 - z) = 0, the figure-eight's
    edge equation over the first shape z, from mpmath's polynomial root
    finder at ``digits`` significant digits, each rounded once to a
    complex double."""
    import mpmath
    with mpmath.workdps(digits):
        zz = mpmath.mpc(z.real, z.imag)
        roots = mpmath.polyroots([zz * zz, 1 - zz, zz - 1], maxsteps=200,
                                 extraprec=digits)
        return complex(roots[0]), complex(roots[1])


def sample_gluing_variety_scalar(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) figure-eight edge-equation solutions, one draw at a time.

    Draw i of the 2n first shapes z takes the root w of
    z^2 w^2 + (1-z) w - (1-z) = 0 with +disc for even i and -disc for odd
    i (cmath.sqrt's principal branch); draws with a shape within 1e-3 of
    0 or 1 are skipped, and the first n others are kept in draw order.
    """
    zs = (rng.uniform(-6.0, 7.0, size=2 * n)
          + 1j * rng.uniform(-6.0, 6.0, size=2 * n))
    out = []
    for i, z in enumerate(zs):
        if min(abs(z), abs(1 - z)) < 1e-3:
            continue
        a, b, c = z * z, (1.0 - z), -(1.0 - z)
        disc = cmath.sqrt(b * b - 4.0 * a * c)
        w = ((-b + disc) / (2 * a), (-b - disc) / (2 * a))[i % 2]
        if min(abs(w), abs(1 - w)) < 1e-3:
            continue
        out.append((z, w))
        if len(out) == n:
            break
    return np.asarray(out)


def radial_length_numeric(r: float, n: int = 64) -> float:
    """Ball-metric length of the straight segment from the origin to radius r."""
    # Gauss-Legendre on [0, r] of the conformal factor 2/(1-t^2), analytic
    # there for r < 1: 64 nodes reach log 3 at r = 0.5 to 2.2e-16, and more
    # nodes only add rounding (2.2e-14 at 4000)
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * r * (x + 1.0)
    return float(np.sum(w * 0.5 * r * 2.0 / (1.0 - t * t)))


def busemann_limit_value(x: np.ndarray, direction: np.ndarray, t: float) -> float:
    """d(x, c(t)) - t for the unit-speed ray c toward the ideal point."""
    c = np.tanh(t / 2.0) * direction
    q = np.dot(x - c, x - c) / ((1.0 - np.dot(x, x)) * (1.0 - np.dot(c, c)))
    return 2.0 * float(np.arcsinh(np.sqrt(q))) - t


def sphere_monomial_expectation(k: int, exponents) -> float:
    """E[prod x_i^(2 a_i)] over the normalized round measure on S^(k-1)."""
    a = list(exponents)
    total = sum(a)
    val = gamma(k / 2.0) / gamma(k / 2.0 + total)
    for ai in a:
        val *= gamma(ai + 0.5) / gamma(0.5)
    return val


def monte_carlo_density_mass(x: np.ndarray, n: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the visual-density normalization at x."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, x.size))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    diff = x[None, :] - pts
    b = np.log(np.einsum("ij,ij->i", diff, diff) / (1.0 - np.dot(x, x)))
    return float(np.mean(np.exp(-(x.size - 1) * b)))


def ring_measure(weights, directions, cap: float, n_ring: int = 16):
    """Atomic mollification: each atom spread over a symmetric ring of
    angular radius ``cap``.  Deterministic, so the mean shift is pure
    curvature of order cap^2."""
    from natmap.measures import atomic_measure
    all_w, all_p = [], []
    for w, d in zip(weights, directions):
        d = np.asarray(d, dtype=float)
        d = d / np.linalg.norm(d)
        helper = np.eye(3)[int(np.argmin(np.abs(d)))]
        u = np.cross(d, helper)
        u /= np.linalg.norm(u)
        v = np.cross(d, u)
        ang = 2.0 * np.pi * np.arange(n_ring) / n_ring
        pts = (np.cos(cap) * d[None, :]
               + np.sin(cap) * (np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v))
        all_p.append(pts)
        all_w.append(np.full(n_ring, w / n_ring))
    return atomic_measure(np.concatenate(all_w), np.concatenate(all_p))


def enumerate_reduced_words(n_generators: int, max_length: int):
    """Freely reduced words over the first n generators, shortest first."""
    letters = [c for i in range(n_generators)
               for c in ("abcdefgh"[i], "ABCDEFGH"[i])]
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


def translation_length_scalar(A: np.ndarray) -> float:
    """inf_y d(gy, y) of the isometry g of H^3 with one 2x2 complex matrix
    A, from cmath's acosh of its half trace over the square root of its
    determinant; zero for elliptic and parabolic isometries."""
    tr = complex(np.trace(A)) / cmath.sqrt(complex(np.linalg.det(A)))
    ell = 2.0 * abs(cmath.acosh(tr / 2.0).real)
    return ell if ell > 1e-12 else 0.0


def loxodromic_fixed_points_scalar(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(attracting, repelling) ideal fixed points, as unit vectors, of the
    loxodromic isometry of H^3 with one 2x2 complex matrix A: the
    eigenvectors (z0, z1) of largest and smallest eigenvalue modulus,
    projected from the Riemann sphere one at a time as
    (2 Re w, -2 Im w, |z0|^2 - |z1|^2) / (|z0|^2 + |z1|^2), w = z0 z1*."""
    A = np.asarray(A, dtype=complex)
    A = A / cmath.sqrt(complex(np.linalg.det(A)))
    vals, vecs = np.linalg.eig(A)
    order = np.argsort(np.abs(vals))
    pts = []
    for j in (order[-1], order[0]):
        z0, z1 = vecs[0, j], vecs[1, j]
        w = z0 * z1.conjugate()
        n0 = z0.real * z0.real + z0.imag * z0.imag
        n1 = z1.real * z1.real + z1.imag * z1.imag
        s = n0 + n1
        pts.append(np.array([2.0 * w.real / s, -2.0 * w.imag / s, (n0 - n1) / s]))
    return pts[0], pts[1]


def cross_ratio(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> complex:
    """(d-a)(c-b) / ((c-a)(d-b)) of four homogeneous points (p0, p1) of the
    Riemann sphere, each difference p - q read as the determinant
    p0 q1 - p1 q0, so that cr(0, inf, 1, z) = z."""
    def diff(p, q):
        return p[0] * q[1] - p[1] * q[0]
    return complex(diff(d, a) * diff(c, b) / (diff(c, a) * diff(d, b)))


def weighted_outer(w: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_i w_i b_i c_i^T as the three-operand contraction
    einsum("i,ij,il->jl"), the form the barycenter's Hessian and the
    natural map's operators were first built with."""
    return np.einsum("i,ij,il->jl", w, b, c)


def psl2_to_lorentz_traces(A: np.ndarray) -> np.ndarray:
    """Lorentz matrix of the 2x2 complex matrix A (normalized to unit
    determinant) as 16 separate traces Re tr(s_mu A s_nu A*) / 2 over the
    Pauli matrices s_0 = I, s_1, s_2, s_3."""
    pauli = [np.eye(2, dtype=complex),
             np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    A = np.asarray(A, dtype=complex)
    A = A / cmath.sqrt(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    L = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            L[mu, nu] = 0.5 * np.real(np.trace(pauli[mu] @ A @ pauli[nu] @ A.conj().T))
    return L


def haar_conjugates_reference(rng, eigs: np.ndarray) -> np.ndarray:
    """(n, k, k) matrices Q diag(e) Q^T for the rows e of ``eigs``, all at
    once: Q Haar distributed, from the QR of a Gaussian matrix with R's
    diagonal made positive, and H summed by the three-operand einsum."""
    n, k = eigs.shape
    q, r = np.linalg.qr(rng.standard_normal((n, k, k)))
    q = q * np.sign(np.einsum("...ii->...i", r))[:, None, :]
    return np.einsum("sij,sj,skj->sik", q, eigs, q)


def random_psi_max_reference(rng, k: int, size: int) -> float:
    """Largest psi = det H / det(I - H)^2 over ``size`` random trace-one SPD
    matrices, all held at once: flat Dirichlet eigenvalues conjugated by
    ``haar_conjugates_reference``."""
    H = haar_conjugates_reference(rng, rng.dirichlet(np.ones(k), size=size))
    return float((np.linalg.det(H) / np.linalg.det(np.eye(k) - H) ** 2).max())


def grid_levelset_radius_reference(level: float, step: float) -> float:
    """Largest distance to I/3 of the k = 3 eigenvalue-grid points (a, b,
    1 - a - b), a and b positive multiples of ``step``, at which
    abc / ((1-a)(1-b)(1-c))^2 >= level; 0.0 if none.  The whole grid at once."""
    n = int(round(1.0 / step))
    i = np.arange(1, n)
    a, b = np.meshgrid(i, i, indexing="ij")
    keep = (a + b) < n
    a = a[keep] * step
    b = b[keep] * step
    c = 1.0 - a - b
    vals = (a * b * c) / ((1.0 - a) * (1.0 - b) * (1.0 - c)) ** 2
    ok = vals >= level
    if not np.any(ok):
        return 0.0
    pts = np.column_stack([a[ok], b[ok], c[ok]])
    return float(np.linalg.norm(pts - 1.0 / 3.0, axis=1).max())
