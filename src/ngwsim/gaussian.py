"""Gaussian phase-space linear algebra.

Everything in this package uses the quadrature ordering (x_A, p_A, x_B, p_B)
with [x, p] = 2i, so the vacuum covariance matrix is the identity. States are
a Gaussian G_sigma plus its second derivatives sum_ij t_ij d_i d_j G_sigma;
their moments are Isserlis sums in which at most one pair is contracted with
2 t instead of sigma.
"""

import numpy as np

from .errors import UnphysicalCovarianceError

# symplectic form: [xi_i, xi_j] = 2i * OMEGA_ij
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


def poly_gauss_moment(indices, sigma, t=None):
    """Central moment E[xi_{i1}...xi_{ik}] under the normalized density
    G_sigma + sum_ab t_ab d_a d_b G_sigma (under G_sigma alone if t is None).

    Integrating by parts moves the derivatives onto the monomial, so the
    moment is the Isserlis sum over pairings of the indices in which at most
    one pair is contracted with 2 t instead of sigma.
    """
    if len(indices) == 0:
        return 1.0
    head, rest = indices[0], list(indices[1:])
    total = 0.0
    for k, other in enumerate(rest):
        others = rest[:k] + rest[k + 1:]
        total += sigma[head, other] * poly_gauss_moment(others, sigma, t)
        if t is not None:
            total += 2.0 * t[head, other] * poly_gauss_moment(others, sigma)
    return total


def local_rotation(phi_a, phi_b):
    """Symplectic map sending x_I to the rotated quadrature cos(phi) x + sin(phi) p."""
    out = np.zeros((4, 4))
    for off, phi in ((0, phi_a), (2, phi_b)):
        c, s = np.cos(phi), np.sin(phi)
        out[off, off] = c
        out[off, off + 1] = s
        out[off + 1, off] = -s
        out[off + 1, off + 1] = c
    return out


def mode_mixing(chi):
    """Two-mode mixing (beam-splitter) acting identically on x and p pairs.

    chi = -pi/4 maps x_A to (x_A - x_B)/sqrt(2) and x_B to (x_A + x_B)/sqrt(2).
    """
    c, s = np.cos(chi), np.sin(chi)
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = c
    out[0, 2] = out[1, 3] = s
    out[2, 0] = out[3, 1] = -s
    out[2, 2] = out[3, 3] = c
    return out


def symplectic_eigenvalues(cov):
    """Symplectic eigenvalues of a 4x4 covariance matrix (vacuum -> [1, 1])."""
    ev = np.linalg.eigvals(1j * OMEGA @ cov)
    nu = np.sort(np.abs(ev.real))
    return nu[::2].copy()


def check_physical(cov, tol=1e-9):
    """Raise UnphysicalCovarianceError unless cov is symmetric, positive and
    satisfies the uncertainty bound cov + i*OMEGA >= 0."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4) or not np.allclose(cov, cov.T, atol=1e-10):
        raise UnphysicalCovarianceError("covariance must be a symmetric 4x4 matrix")
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise UnphysicalCovarianceError("covariance is not positive-definite")
    nu = symplectic_eigenvalues(cov)
    if nu.min() < 1.0 - tol:
        raise UnphysicalCovarianceError(
            f"uncertainty bound violated: min symplectic eigenvalue {nu.min():.6g} < 1"
        )
    return nu
