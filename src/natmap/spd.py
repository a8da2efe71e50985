"""Trace-one symmetric positive definite matrices and the ratio
psi(H) = det(H) / det(I - H)^2.

psi is conjugation invariant, so it factors through the (sorted) eigenvalue
simplex, where it reads Psi(a) = prod a_i / (1 - a_i)^2.  On k x k matrices
with k >= 3 it is bounded by (k/(k-1)^2)^k, attained exactly at H = I/k;
for k = 2 it is unbounded.  This module certifies those facts numerically:
random-sample bounds, scans of the simplex boundary collar, and a
quantitative converse locating the high-level sets of psi near I/k.

The checks run in blocks of `BLOCK_ROWS` rows: besides the points a check
draws (eigenvalue rows, collar samples), no check holds more than one
block of matrices or simplex points, and the temporaries of one block fit
in cache.  Every formula here is row-wise and every reduction over rows is
an exact max, so the block size changes no reported bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rows of matrices or simplex points evaluated at once
BLOCK_ROWS = 8192


def psi_max(k: int) -> float:
    """Supremum (k/(k-1)^2)^k of psi on trace-one SPD matrices, k >= 3."""
    return (k / (k - 1) ** 2) ** k


def psi(H) -> float | np.ndarray:
    """det(H) / det(I - H)^2 for a (..., k, k) array."""
    m = np.asarray(H, dtype=float)
    k = m.shape[-1]
    val = np.linalg.det(m) / np.linalg.det(np.eye(k) - m) ** 2
    return float(val) if np.ndim(val) == 0 else val


def psi_simplex(a) -> float | np.ndarray:
    """psi read on the eigenvalue simplex: prod a_i / (1 - a_i)^2.

    Each 1 - a_i is read as the sum of the other coordinates, so that a
    coordinate near 1 loses no digits to cancellation.  On the simplex only
    the largest coordinate can have a small 1 - a_i.  Each row scales that
    sum, and its other coordinates, by the power of two 2^-e that brings
    the sum to [1/2, 1), so that products of small coordinates do not
    underflow.  Powers of two commute with rounding: where nothing
    underflows, the bits are those of the unscaled formula.  Rows are
    evaluated `BLOCK_ROWS` at a time.
    """
    c = np.asarray(a, dtype=float)
    k = c.shape[-1]
    rows = c.reshape(-1, k)
    val = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        # one contiguous row per coordinate: reductions over a short last axis are slow
        b = np.ascontiguousarray(rows[start:start + BLOCK_ROWS].T)
        rest = sum(np.roll(b, s, axis=0) for s in range(1, k))
        low = rest.min(axis=0)
        e = np.frexp(low)[1]
        top = rest == low
        shift = -e * ~top
        v = np.prod(np.ldexp(b, shift) / np.ldexp(rest, -e - shift) ** 2, axis=0)
        # a scaled numerator carries 2^-e and a scaled denominator 2^2e; counting
        # each tie at the smallest sum undoes the scaling for any input row
        val[start:start + BLOCK_ROWS] = np.ldexp(v, e * (k - 3 * top.sum(axis=0)))
    val = val.reshape(c.shape[:-1])
    return float(val) if np.ndim(val) == 0 else val


def random_trace_one_spd(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    """(n, k, k) random conjugates Q diag(e) Q^T of the n simplex points e
    in the rows of ``eigs``.

    Q comes from the QR factorization of a Gaussian matrix.  Haar measure
    asks for R's diagonal to be made positive by flipping columns of Q, but
    H needs no such fix: a flipped column q_j enters H only through the
    exact products (-q_ij e_j)(-q_kj), so H keeps every bit.  H is summed
    as (q_ij e_j) q_kj over j in order, in coordinate-major arrays, and the
    result is a view of them.
    """
    n, k = eigs.shape
    q, _ = np.linalg.qr(rng.standard_normal((n, k, k)))
    q = np.ascontiguousarray(q.transpose(1, 2, 0))
    e = np.ascontiguousarray(eigs.T)
    H = np.zeros((k, k, n))
    for j in range(k):
        H += (q[:, j] * e[j])[:, None] * q[None, :, j]
    return H.transpose(2, 0, 1)


def random_psi_max(rng: np.random.Generator, k: int, samples: int) -> float:
    """Largest psi over ``samples`` random trace-one SPD k x k matrices.

    Eigenvalues uniform on the simplex (a flat Dirichlet, all drawn first),
    conjugated by random rotations `BLOCK_ROWS` matrices at a time.
    """
    eigs = rng.dirichlet(np.ones(k), size=samples)
    maxima = [psi(random_trace_one_spd(rng, eigs[start:start + BLOCK_ROWS])).max()
              for start in range(0, samples, BLOCK_ROWS)]
    return float(np.max(maxima))


# ---------------------------------------------------------------------------
# boundary collar scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    k: int
    margin: float
    samples: int
    max_value: float
    argmax: list
    threshold: float
    passed: bool


# Largest margin for which the collar supremum lies on the near-vertex ridge
# below.  Past about 0.165 the b-derivative no longer changes sign on
# [y, 2y], and at 1/5 the maximiser reaches the symmetric point
# (y, (1-y)/2, (1-y)/2).
COLLAR_MARGIN_MAX = 0.15


def _collar_ridge(y) -> np.ndarray:
    """Maximiser b*(y) = y (1 + 2y + 6y^2 + O(y^3)) of Psi(y, b, 1-y-b).

    For 0 < y <= COLLAR_MARGIN_MAX the b-derivative of log Psi is positive
    at b = y, where it equals (1-3y)/((1-2y)(1-y)), and negative at b = 2y.
    Bisection on that bracket, vectorised over y, runs to full precision.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = y, 2.0 * y
    # for subnormal y, 1/b and 2/(y+b) overflow to inf - inf = nan, which
    # is not rising: the bracket closes on b = y, the rounded ridge there
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            b = 0.5 * (lo + hi)
            rising = 1.0 / b - 1.0 / (1.0 - y - b) + 2.0 / (1.0 - b) - 2.0 / (y + b) > 0.0
            lo = np.where(rising, b, lo)
            hi = np.where(rising, hi, b)
    return 0.5 * (lo + hi)


def collar_supremum(margin: float) -> float:
    """Exact supremum of Psi over the k = 3 collar {min a_i < margin}.

    Valid for normal floats 0 < margin <= COLLAR_MARGIN_MAX (ValueError
    otherwise; a subnormal margin rounds the scan's corner probes onto it).
    The supremum is approached, not attained, along (y, b*(y), 1-y-b*(y))
    with y -> margin, on the ridge computed by `_collar_ridge`; it equals
    1/4 + y/2 + 3y^2/4 + O(y^3) at y = margin.  The symmetric point (y, y,
    1-2y), where Psi = (1-2y)/(4(1-y)^4), lies y^2/4 lower to leading order.
    """
    if not np.finfo(float).tiny <= margin <= COLLAR_MARGIN_MAX:
        raise ValueError(f"collar supremum needs a normal 0 < margin <= {COLLAR_MARGIN_MAX}")
    y, b = margin, float(_collar_ridge(margin))
    # y b / (y + b)^2 read on y and b scaled by one power of two (exact, and
    # so is d * d), else y b underflows below margin 1e-161; 1 - c formed as
    # y + b: 1 - fl(1-y-b) would lose digits to cancellation
    ys, bs = (math.ldexp(v, -math.frexp(y)[1]) for v in (y, b))
    d = (1.0 - y) * (1.0 - b) * (ys + bs)
    return ys * bs * (1.0 - y - b) / (d * d)


def _collar_samples_k3(rng: np.random.Generator, margin: float, n: int) -> np.ndarray:
    """n points of the margin collar of the 2-simplex, corners included.

    Three quarters are edge strips: one coordinate, in a random position,
    uniform below the margin, the other two splitting the rest uniformly.
    The rest are deterministic corner probes as y -> margin, split between
    the symmetric family (y, y, 1-2y) and the ridge (y, b*(y), 1-y-b*(y))
    on which the collar supremum lies, so the scan reaches that supremum to
    within about margin * 1e-6 / 2.  The strips lie below the probes'
    maximum, so the scan's max and argmax come from the probes.  The cost is
    linear in n and does not depend on the margin.
    """
    m = n // 2 + n // 4
    t = margin * rng.random(m)
    split = rng.random(m)
    strips = np.column_stack([t, (1 - t) * split, (1 - t) * (1 - split)])
    out = [strips[np.arange(m)[:, None], rng.permuted(np.tile(np.arange(3), (m, 1)), axis=1)]]
    # deterministic corner probes: symmetric family, then the ridge
    corner = n - m
    y = margin * (1.0 - np.geomspace(1e-6, 1.0, corner // 2, endpoint=False))
    out.append(np.column_stack([y, y, 1.0 - 2.0 * y]))
    y = margin * (1.0 - np.geomspace(1e-6, 1.0, corner - corner // 2, endpoint=False))
    b = _collar_ridge(y)
    out.append(np.column_stack([y, b, 1.0 - y - b]))
    return np.concatenate(out)


def boundary_bound_scan(k: int, margin: float, samples: int,
                        seed: int) -> ScanReport:
    """Scan psi on the collar of the simplex boundary.

    k = 3: asserts the max against the exact collar supremum
    `collar_supremum(margin)` = 1/4 + margin/2 + 3 margin^2/4 + O(margin^3),
    for 0 < margin <= COLLAR_MARGIN_MAX; the samples include probes on the
    ridge where that supremum lies.  k >= 4: samples near the zero vertex with
    coordinate sum s below k * margin and asserts the vanishing envelope
    s^(k-3) / (k-1)^(k-1) within the factor (1 - s)^(3 - 2k) that bounds
    the neglected (1 - a_i) denominators; s stays inside the simplex only
    for 0 < margin < 1/k.  ValueError for a margin outside its range.
    """
    if k < 3:
        raise ValueError("boundary scan needs k >= 3")
    rng = np.random.default_rng(seed)
    if k == 3:
        threshold = collar_supremum(margin) + 1e-12
        pts = _collar_samples_k3(rng, margin, samples)
        vals = psi_simplex(pts)
        top = int(np.argmax(vals))
        return ScanReport(3, margin, samples, float(vals[top]),
                          [float(c) for c in pts[top]], threshold,
                          bool(vals[top] <= threshold))
    if not 0.0 < margin < 1.0 / k:
        raise ValueError(f"vertex scan for k = {k} needs 0 < margin < 1/{k}")
    # near-vertex samples: first k-1 coordinates tiny, last carries the rest
    s = k * margin * rng.random(samples)
    frac = rng.dirichlet(np.ones(k - 1), size=samples)
    small = s[:, None] * frac
    pts = np.column_stack([small, 1.0 - s])
    vals = psi_simplex(pts)
    envelope = s ** (k - 3) / (k - 1) ** (k - 1)
    ratio = vals / envelope
    top = int(np.argmax(ratio))
    threshold = (1.0 - k * margin) ** (3 - 2 * k) + 1e-12
    return ScanReport(k, margin, samples, float(ratio[top]),
                      [float(c) for c in pts[top]], threshold,
                      bool(ratio[top] <= threshold))


def edge_limit_values(alpha: float) -> tuple[np.ndarray, float]:
    """k = 3 Psi along an approach to the non-vertex boundary point
    (alpha, 0, 1-alpha), at distances 1e-4 down to 1e-8.

    Returns the sampled values and the Richardson-extrapolated limit
    (Psi vanishes linearly in the approach distance).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must avoid the vertices")
    d = np.array([1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    pts = np.column_stack([np.full(d.size, alpha) - d / 2, d, 1.0 - alpha - d / 2])
    vals = psi_simplex(pts)
    # linear model vals = L + c d  ->  extrapolated limit
    limit = vals[-1] - d[-1] * (vals[-2] - vals[-1]) / (d[-2] - d[-1])
    return vals, float(limit)


# ---------------------------------------------------------------------------
# quantitative converse of the maximum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConverseReport:
    k: int
    eps: float
    trials: int
    delta_max_sampled: float
    delta_max_grid: float
    grid_step: float


# absolute slack for the float evaluation of psi at its maximum
_PSI_FLOAT_SLOP = 5e-16
# spacing of the eigenvalue grid that certifies the converse for k = 3
CONVERSE_GRID_STEP = 1e-3


def quantitative_converse(k: int, eps: float, trials: int,
                          seed: int) -> ConverseReport:
    """Largest distance from I/k on the level set psi >= max (1 - eps), k >= 3.

    Rejection-samples near I/k (heavy-tailed local perturbations) plus a
    global Dirichlet scatter pass, and certifies with an exhaustive
    eigenvalue-simplex grid: psi and the Frobenius distance to I/k only
    depend on eigenvalues, so the grid bounds the level set for all
    matrices, not just the sampled ones.
    """
    if k < 3:
        raise ValueError("psi has a maximum only for k >= 3")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    level = psi_max(k) * (1.0 - eps) - _PSI_FLOAT_SLOP
    delta = 0.0
    batch = min(trials, 200_000)
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        half = m // 2
        # local heavy-tailed perturbations of the uniform eigenvalue vector
        scale = 10.0 ** rng.uniform(-8, 0, size=half)
        raw = np.full((half, k), 1.0 / k) + scale[:, None] * rng.standard_normal((half, k))
        raw = np.abs(raw)
        local = raw / raw.sum(axis=1, keepdims=True)
        # global scatter probing regions far from I/k
        scatter = rng.dirichlet(np.ones(k), size=m - half)
        eigs = np.concatenate([local, scatter])
        vals = psi_simplex(eigs)
        ok = vals >= level
        if np.any(ok):
            dist = np.linalg.norm(eigs[ok] - 1.0 / k, axis=1)
            delta = max(delta, float(dist.max()))
        done += m
    step = CONVERSE_GRID_STEP
    grid_delta = _grid_levelset_radius(level, step) if k == 3 else float("nan")
    return ConverseReport(k, eps, trials, delta, grid_delta, step)


def _grid_levelset_radius(level: float, step: float) -> float:
    """Exhaustive eigenvalue-grid bound on {psi >= level} for k = 3.

    The grid is built and rated a block of about `BLOCK_ROWS` points, whole
    rows of equal a, at a time.
    """
    n = int(round(1.0 / step))
    i = np.arange(1, n)
    per_block = max(1, BLOCK_ROWS // i.size)
    delta = 0.0
    for start in range(0, i.size, per_block):
        a, b = np.meshgrid(i[start:start + per_block], i, indexing="ij")
        keep = (a + b) < n
        a = a[keep] * step
        b = b[keep] * step
        c = 1.0 - a - b
        vals = (a * b * c) / ((1.0 - a) * (1.0 - b) * (1.0 - c)) ** 2
        ok = vals >= level
        if np.any(ok):
            pts = np.column_stack([a[ok], b[ok], c[ok]])
            delta = max(delta, float(np.linalg.norm(pts - 1.0 / 3.0, axis=1).max()))
    return delta
