"""Closed-form optimal witness values and the witness assembly.

The optimal witness for a pure photon-subtracted state equals
8 Cov(H_A, H_B); the closed forms below cover all four generators for
arbitrary squeezing pair and subtraction angle. Positive values certify
entanglement, negative values are kept (no clamping) so parameter scans
reproduce the sign structure of the generator comparison.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .gaussian import SYMPLECTIC_TOL, check_physical, symplectic_eigenvalues

_PT = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose flips p_B


def cos_2z(r_a, r_b, phi_sub):
    """Rotation-angle cosine mapping the general state to the symmetric one."""
    den = np.sinh(r_a) ** 2 * np.cos(phi_sub) ** 2 + np.sinh(r_b) ** 2 * np.sin(phi_sub) ** 2
    if den == 0.0:
        raise DegenerateStateError("zero-norm state: both subtraction weights vanish")
    return np.sinh(r_a) * np.sinh(r_b) * np.sin(2.0 * phi_sub) / den


def eq_displacement(r_a, r_b, phi_sub=np.pi / 4, sign=+1, delta=0.0):
    """Optimal witness for joint displacement estimation along x_A = +- x_B,
    with unbalancing angle delta: +-2 e^{r_A + r_B} cos(2z) cos(2 delta)."""
    return sign * 2.0 * np.exp(r_a + r_b) * cos_2z(r_a, r_b, phi_sub) * np.cos(2.0 * delta)


def eq_phase(r_a, r_b, sign=-1, phi_sub=np.pi / 4):
    """Optimal witness for joint phase estimation; detection requires the
    counter-rotating (-) choice. Invariant under sign flips of r_A, r_B."""
    return -sign * 2.0 * np.cosh(2.0 * r_a) * np.cosh(2.0 * r_b) * cos_2z(r_a, r_b, phi_sub) ** 2


def eq_shear(r_a, r_b, sign=-1, phi_sub=np.pi / 4):
    """Optimal witness for joint shearing estimation; only the relative (-)
    choice detects, and the value grows for p-squeezed inputs (r < 0)."""
    return -sign * 0.5 * np.exp(-2.0 * (r_a + r_b)) * cos_2z(r_a, r_b, phi_sub) ** 2


def eq_squeeze(*_args, **_kwargs):
    """Joint squeezing estimation never detects entanglement of these states."""
    return 0.0


def witness_value(fi, var_a, var_b):
    """Metrological witness E = F - 4 (Var H_A + Var H_B); E > 0 certifies
    entanglement."""
    return fi - 4.0 * (var_a + var_b)


def displacement_ridge_r_b(r_a):
    """In-quadrature displacement: r_B maximizing the witness at fixed r_A."""
    arg = 1.0 + 2.0 * np.sinh(r_a)
    if arg <= 0.0:
        raise ValueError(f"ridge undefined: 1 + 2 sinh(r_A) = {arg:.6g} <= 0")
    return np.log(1.0 / np.sqrt(arg))


def displacement_ridge_value(r_a):
    """Witness maximum along the in-quadrature displacement ridge."""
    return 2.0 * np.exp(r_a) / (1.0 + np.sinh(r_a))


def shear_ridge_r_b(r_a):
    """In-quadrature shearing: r_B maximizing the witness at fixed r_A."""
    arg = 1.0 + np.exp(r_a) - np.exp(2.0 * r_a)
    if arg <= 0.0:
        raise ValueError(f"ridge undefined: 1 + e^r - e^2r = {arg:.6g} <= 0")
    return 0.5 * (-r_a + np.log(arg))


def shear_ridge_value(r_a):
    """Witness maximum along the in-quadrature shearing ridge."""
    return np.exp(-2.0 * r_a) / (2.0 * (np.sinh(r_a) - 1.0) ** 2)


@dataclass(frozen=True)
class SeparabilityVerdict:
    detected: bool
    nu_min: float      # smallest symplectic eigenvalue of the covariance
    nu_pt_min: float   # smallest symplectic eigenvalue after partial transpose

    def __bool__(self):
        return self.detected


def gaussian_separability_check(cov):
    """Partial-transpose symplectic-eigenvalue test on a 4x4 covariance matrix.

    Returns a verdict whose ``detected`` flag is True when the covariance
    alone certifies entanglement (nu_pt_min < 1). Photon-subtracted states
    built here are never detected this way: the subtraction only adds
    Gaussian noise at the second-moment level.
    """
    nu = check_physical(cov)
    nu_pt = symplectic_eigenvalues(_PT @ np.asarray(cov, dtype=float) @ _PT)
    return SeparabilityVerdict(
        detected=bool(nu_pt.min() < 1.0 - SYMPLECTIC_TOL),
        nu_min=float(nu.min()),
        nu_pt_min=float(nu_pt.min()),
    )
