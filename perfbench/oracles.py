"""Reference computations the correctness checks compare natmap against.

None of these calls natmap: the Busemann closed forms, the ball-model
distance and the Lorentz action are written out here, and the dilogarithm
volumes and the collar supremum are computed with mpmath at 40 digits.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
import numpy as np

_DPS = 40


def busemann(x: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """B(x, theta) = log(|x - theta|^2 / (1 - |x|^2)), normalised at 0."""
    d = x[None, :] - thetas
    return np.log(np.einsum("ij,ij->i", d, d) / (1.0 - x @ x))


def frame_gradients(y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """b = y + (1 - |y|^2)(y - theta)/|y - theta|^2, one unit row per theta."""
    d = y[None, :] - thetas
    r2 = np.einsum("ij,ij->i", d, d)
    return y[None, :] + (1.0 - y @ y) * d / r2[:, None]


def visual_weights(x: np.ndarray, nodes: np.ndarray,
                   base_weights: np.ndarray) -> np.ndarray:
    """w proportional to base_w exp(-(k-1) B(x, theta)), normalised."""
    k = nodes.shape[1]
    raw = base_weights * np.exp(-(k - 1) * busemann(x, nodes))
    return raw / raw.sum()


def stationarity_residual(x: np.ndarray, nodes: np.ndarray,
                          base_weights: np.ndarray, images: np.ndarray,
                          y: np.ndarray) -> float:
    """|sum_i w_i(x) b_i(y)|: zero exactly at the natural map's image y."""
    w = visual_weights(x, nodes, base_weights)
    return float(np.linalg.norm(w @ frame_gradients(y, images)))


def atomic_gradient(weights: np.ndarray, points: np.ndarray,
                    y: np.ndarray) -> float:
    """Frame norm of the gradient of sum_i w_i B(y, theta_i)."""
    return float(np.linalg.norm(weights @ frame_gradients(y, points)))


def atomic_hessian_floor(weights: np.ndarray, points: np.ndarray,
                         y: np.ndarray) -> float:
    """Smallest eigenvalue of the frame Hessian I - sum_i w_i b_i b_i^T."""
    b = frame_gradients(y, points)
    return float(np.linalg.eigvalsh(np.eye(y.size) - np.einsum("i,ij,il->jl", weights, b, b))[0])


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Ball-model distance 2 asinh sqrt(|a-b|^2 / ((1-|a|^2)(1-|b|^2)))."""
    q = (a - b) @ (a - b) / ((1.0 - a @ a) * (1.0 - b @ b))
    return 2.0 * float(np.arcsinh(np.sqrt(q)))


def lorentz_apply(L: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Act on a ball point by a Lorentz matrix through the hyperboloid."""
    s = x @ x
    X = np.concatenate([[1.0 + s], 2.0 * x]) / (1.0 - s)
    Y = L @ X
    return Y[1:] / (1.0 + Y[0])


def angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two unit vectors, accurate for nearby vectors."""
    return 2.0 * float(np.arcsin(min(np.linalg.norm(u - v) / 2.0, 1.0)))


def _bloch_wigner(z):
    """D(z) = Im Li2(z) + arg(1 - z) log|z| for an mpmath complex z."""
    return mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z))


def shapes_volume(shapes) -> float:
    """Sum of Bloch-Wigner values of the shape parameters, at 40 digits."""
    with mpmath.workdps(_DPS):
        return float(sum(_bloch_wigner(mpmath.mpc(complex(z).real, complex(z).imag))
                         for z in shapes))


@lru_cache(maxsize=None)
def figure_eight_volume() -> float:
    """Vol(M) = 2 D(exp(i pi / 3)) for the figure-eight knot complement."""
    with mpmath.workdps(_DPS):
        return float(2 * _bloch_wigner(mpmath.expjpi(mpmath.mpf(1) / 3)))


@lru_cache(maxsize=None)
def collar_supremum(margin: float, iterations: int = 200) -> float:
    """max over b of Psi(m, b, 1-m-b), Psi(a) = prod a_i / (1-a_i)^2.

    Golden-section search over b in [m, (1-m)/2] at 40 digits; the
    supremum of Psi over the collar {min a_i < m} is approached as the
    smallest coordinate rises to m.
    """
    with mpmath.workdps(_DPS):
        m = mpmath.mpf(margin)

        def psi(b):
            c = 1 - m - b
            return m * b * c / ((1 - m) * (1 - b) * (1 - c)) ** 2

        shrink = (mpmath.sqrt(5) - 1) / 2
        lo, hi = m, (1 - m) / 2
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
