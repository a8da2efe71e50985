import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def fam2000():
    from natmap.measures import VisualFamily
    return VisualFamily(3, 2000)


def random_ball_point(rng, k=3, max_radius=1.0):
    from natmap.geometry import HPoint
    d = rng.standard_normal(k)
    d /= np.linalg.norm(d)
    return HPoint(np.tanh(rng.uniform(0.02, max_radius) / 2.0) * d)


def random_sphere_point(rng, k=3):
    from natmap.geometry import BoundaryPoint
    d = rng.standard_normal(k)
    return BoundaryPoint(d / np.linalg.norm(d))


def visual_measure(family, x):
    """The visual measure seen from the ball point x, on the family's nodes."""
    from natmap.measures import BoundaryMeasure
    from natmap.natural_map import PushedFamily, identity_boundary_map
    pushed = PushedFamily(identity_boundary_map(family.dimension), family)
    return BoundaryMeasure(pushed.source_side(x.coords)[0], pushed.images)


def spin_boost(length):
    """Spin matrix of the translation of H^3 by ``length`` along the axis
    from the south to the north pole (the Mobius map z -> e^length z)."""
    return np.diag([np.exp(length / 2), np.exp(-length / 2)]).astype(complex)


def random_spin_isometry(rng):
    """Random 2x2 complex matrix of unit determinant."""
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return A / np.sqrt(np.linalg.det(A))


def fixed_point_condition(A):
    """kappa = |A / sqrt(det A)|_F^2 / |lambda - 1/lambda| of each matrix of
    an (n, 2, 2) stack, lambda an eigenvalue of A / sqrt(det A): how far
    the attracting fixed point moves, relative to a relative perturbation
    of A."""
    vals = np.linalg.eigvals(A)
    return (np.sum(np.abs(A) ** 2, axis=(1, 2))
            / (np.sqrt(np.abs(np.linalg.det(A))) * np.abs(vals[:, 0] - vals[:, 1])))
