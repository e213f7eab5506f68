import numpy as np
import pytest

from ngwsim import QuadratureConvergenceError
from ngwsim.quadrature import integrate_adaptive


def gaussian_angular(cov):
    """Angular density of a centred 2-D Gaussian: its radial integral along
    (cos w, sin w) is 1 / (2 pi sqrt(det C) e^T C^-1 e), which sums to 1."""
    inv, det = np.linalg.inv(cov), np.linalg.det(cov)

    def f(omega):
        c, s = np.cos(omega), np.sin(omega)
        quad = inv[0, 0] * c * c + 2 * inv[0, 1] * c * s + inv[1, 1] * s * s
        return 1.0 / (2 * np.pi * np.sqrt(det) * quad)

    return f


def test_gaussian_normalization():
    value, err = integrate_adaptive(gaussian_angular(np.array([[2.0, 0.7], [0.7, 0.5]])),
                                    rel_tol=1e-10)
    assert abs(value - 1.0) < 1e-12
    assert err < 1e-10


def test_polynomial_times_gaussian():
    # E[x^2 y^4] for independent standard normals = 3: the radial integral of
    # rho^7 e^{-rho^2/2} is 48, leaving cos^2 sin^4 over the circle
    def f(omega):
        return 48 * np.cos(omega) ** 2 * np.sin(omega) ** 4 / (2 * np.pi)

    value, _ = integrate_adaptive(f, rel_tol=1e-12)
    assert abs(value - 3.0) < 1e-13


def test_anisotropic_box():
    # aspect ratio 1:1000 puts the mass near w = pi/2 and 3 pi/2; geometric
    # convergence still reaches the tolerance within the node cap
    value, _ = integrate_adaptive(gaussian_angular(np.diag([1e-6, 1.0])), rel_tol=1e-10)
    assert abs(value - 1.0) < 1e-10


def test_budget_exhaustion_raises():
    # Poisson kernel with radius 1 - 1e-6: a near-pole needing ~1e6 nodes
    radius = 1.0 - 1e-6

    def poisson(omega):
        return (1 - radius**2) / (1 - 2 * radius * np.cos(omega) + radius**2)

    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_adaptive(poisson, rel_tol=1e-10, max_nodes=200)
    assert err.value.achieved_tol > 1e-10


def test_tripling_reuses_nodes_and_avoids_zero_and_pi():
    seen = []

    def record(omega):
        seen.append(omega)
        return np.cos(omega) ** 2

    value, _ = integrate_adaptive(record, rel_tol=1e-12)
    assert abs(value - np.pi) < 1e-12
    nodes = np.concatenate(seen)
    n = len(nodes)
    assert [len(batch) for batch in seen] == [18] + [36 * 3**k for k in range(len(seen) - 1)]
    # every node of the final level is evaluated exactly once
    assert np.allclose(np.sort(nodes), 2 * np.pi * (np.arange(n) + 0.5) / n, rtol=0, atol=1e-12)
    assert np.min(np.abs(np.sin(nodes))) > 0.1 / n


def test_geometric_convergence_near_pole():
    radius = 0.9

    def poisson(omega):
        return (1 - radius**2) / (1 - 2 * radius * np.cos(omega) + radius**2)

    value, err = integrate_adaptive(poisson, rel_tol=1e-12)
    assert abs(value - 2 * np.pi) < 1e-12 * 2 * np.pi
    assert err <= 1e-12 * value
