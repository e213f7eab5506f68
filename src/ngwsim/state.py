"""Two-mode photon-subtracted squeezed states and their quadrature densities.

The state after delocalized single-photon subtraction is represented exactly
as a degree-2 polynomial times a Gaussian over phase space
(x_A, p_A, x_B, p_B). That class is closed under symplectic maps,
displacements, uniform loss and marginalization, so every operation here is
in closed form. The measured joint quadrature density for any pair of
homodyne angles follows by rotating and marginalizing the conjugate pair.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateStateError
from .gaussian import (
    convolve_params,
    local_rotation,
    marginal_params,
    mode_mixing,
    poly_gauss_moment,
)

TWO_PI = 2.0 * np.pi


def squeezing_db(r):
    """Squeezing depth in dB, s = 10 log10(e^{-2r}). Negative for r > 0."""
    return 10.0 * np.log10(np.exp(-2.0 * r))


def squeezing_r(s_db):
    """Inverse of squeezing_db."""
    return -s_db * np.log(10.0) / 20.0


@dataclass(frozen=True)
class StateSpec:
    """Physical parameters of the probe state.

    r_a, r_b : squeezing parameters (sign selects the squeezed quadrature,
        r > 0 squeezes x). phi_sub : photon-subtraction mixing angle in
        [0, pi/2]. eta : uniform loss fraction in [0, 1), applied to the
        covariance matrix as V -> (1 - eta) V + eta I.
    """

    r_a: float
    r_b: float
    phi_sub: float = np.pi / 4
    eta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.r_a) and np.isfinite(self.r_b)):
            raise ValueError(f"r_a and r_b must be finite, got {self.r_a}, {self.r_b}")
        if not 0.0 <= self.phi_sub <= np.pi / 2:
            raise ValueError(f"phi_sub must lie in [0, pi/2], got {self.phi_sub}")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        wa = np.cos(self.phi_sub) * np.sinh(self.r_a)
        wb = np.sin(self.phi_sub) * np.sinh(self.r_b)
        if abs(wa) < 1e-12 and abs(wb) < 1e-12:
            raise DegenerateStateError(
                "both subtraction weights vanish; the post-subtraction state has zero norm"
            )


@dataclass(frozen=True)
class QuadratureBasis:
    """Measurement basis: local homodyne angles, optionally preceded by a
    two-mode mixing rotation. nonlocal_mix = -pi/4 gives the basis measuring
    x'_A = (x_A - x_B)/sqrt2 (at phi_a = 0) and p'_B = (p_A + p_B)/sqrt2
    (at phi_b = pi/2)."""

    phi_a: float = 0.0
    phi_b: float = 0.0
    nonlocal_mix: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.phi_a, self.phi_b, self.nonlocal_mix])):
            raise ValueError("basis angles must be finite")
        object.__setattr__(self, "phi_a", float(self.phi_a) % TWO_PI)
        object.__setattr__(self, "phi_b", float(self.phi_b) % TWO_PI)
        object.__setattr__(self, "nonlocal_mix", float(self.nonlocal_mix) % TWO_PI)

    def symplectic(self):
        s = local_rotation(self.phi_a, self.phi_b)
        if self.nonlocal_mix != 0.0:
            s = s @ mode_mixing(self.nonlocal_mix)
        return s


X_BASIS = QuadratureBasis(0.0, 0.0)
P_BASIS = QuadratureBasis(np.pi / 2, np.pi / 2)


@dataclass(frozen=True)
class PolyGaussianState:
    """Degree-2 polynomial times Gaussian phase-space density.

    density(xi) = norm * ((xi-mean)^T polyQ (xi-mean) + poly0)
                       * exp(-(xi-mean)^T cov^{-1} (xi-mean) / 2)

    cov is the covariance of the Gaussian factor, not of the state; physical
    second moments are given by second_moments(). The polynomial is kept
    canonical, Tr(polyQ cov) + poly0 = 1, so norm = 1/((2 pi)^2 sqrt(det cov)).
    """

    cov: np.ndarray
    polyQ: np.ndarray
    poly0: float
    mean: np.ndarray = field(default_factory=lambda: np.zeros(4))
    pure: bool = True

    def __post_init__(self):
        total = float(np.trace(self.polyQ @ self.cov) + self.poly0)
        if not np.isfinite(total) or total <= 1e-14:
            raise DegenerateStateError("polynomial prefactor integrates to zero norm")
        if abs(total - 1.0) > 1e-12:
            object.__setattr__(self, "polyQ", self.polyQ / total)
            object.__setattr__(self, "poly0", self.poly0 / total)

    @property
    def norm(self):
        """Normalization constant of the phase-space density."""
        return 1.0 / ((2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(self.cov)))

    def second_moments(self):
        """Physical 4x4 covariance matrix (the matrix V of the state)."""
        return self.cov + 2.0 * self.cov @ self.polyQ @ self.cov

    def moment(self, indices):
        """Central phase-space (Weyl) moment for the given coordinate indices."""
        return poly_gauss_moment(indices, self.cov, self.polyQ, self.poly0)

    def transformed(self, symplectic):
        """Push the density through xi -> S xi."""
        s = np.asarray(symplectic, dtype=float)
        s_inv = np.linalg.inv(s)
        return replace(
            self,
            cov=s @ self.cov @ s.T,
            polyQ=s_inv.T @ self.polyQ @ s_inv,
            mean=s @ self.mean,
        )

    def displaced(self, shift):
        return replace(self, mean=self.mean + np.asarray(shift, dtype=float))


def build_state(spec):
    """Construct the lossless photon-subtracted state for a StateSpec.

    The (x_A, x_B) marginal of the result is the squared wavefunction of the
    subtracted state; the second moments reproduce the noisy-covariance
    construction V0 + 2 (V0-1) P (V0-1) / Tr[(V0-1) P]. Loss is applied
    separately (apply_loss), also when spec.eta > 0.
    """
    a = np.exp(2.0 * spec.r_a)
    b = np.exp(2.0 * spec.r_b)
    alpha = (a - 1.0) * np.cos(spec.phi_sub)
    beta = (b - 1.0) * np.sin(spec.phi_sub)
    if abs(alpha) < 1e-12 and abs(beta) < 1e-12:
        raise DegenerateStateError("photon subtraction weight vanishes for this spec")
    sigma = np.diag([1.0 / a, a, 1.0 / b, b])
    u = np.array([alpha, 0.0, beta, 0.0])
    v = np.array([0.0, alpha / a, 0.0, beta / b])
    poly_q = np.outer(u, u) + np.outer(v, v)
    poly0 = -(alpha**2 / a + beta**2 / b)
    state = PolyGaussianState(cov=sigma, polyQ=poly_q, poly0=poly0)
    if spec.eta > 0.0:
        state = apply_loss(state, spec.eta)
    return state


def apply_loss(state, eta):
    """Uniform loss channel: V -> (1 - eta) V + eta I on the covariance level,
    implemented exactly on the polynomial-times-Gaussian representation."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if eta == 0.0:
        return state
    keep = 1.0 - eta
    # scale xi -> sqrt(keep) xi, then convolve with vacuum noise eta * I
    scaled_cov = keep * state.cov
    scaled_q = state.polyQ / keep
    cov, poly_q, poly0 = convolve_params(scaled_cov, scaled_q, state.poly0, eta * np.eye(4))
    return PolyGaussianState(
        cov=cov,
        polyQ=poly_q,
        poly0=poly0,
        mean=np.sqrt(keep) * state.mean,
        pure=False,
    )


def evolve(state, gen, theta):
    """Apply the affine-symplectic phase-space map of a GeneratorSpec
    (GeneratorSpec.flow).

    Displacement follows the postprocessing convention: the measured density
    obeys p_theta(x_A, x_B) = p_0(x_A + theta d_A, x_B + theta d_B). The
    squeeze map scales Var(x_A) by e^{-2 theta} for positive sign.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    s, shift, _, _ = gen.flow(theta)
    out = state.transformed(s) if not np.array_equal(s, np.eye(4)) else state
    if np.any(shift):
        out = out.displaced(shift)
    return out


@dataclass(frozen=True)
class JointDensity:
    """Normalized bivariate density (poly * Gaussian) over measured quadratures."""

    sigma: np.ndarray
    polyQ: np.ndarray
    poly0: float
    mean: np.ndarray

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.mean
        sig_inv = np.linalg.inv(self.sigma)
        gauss = np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, sig_inv, pts))
        gauss /= 2.0 * np.pi * np.sqrt(np.linalg.det(self.sigma))
        quad = np.einsum("ni,ij,nj->n", pts, self.polyQ, pts) + self.poly0
        return quad * gauss

    def grid(self, xs, ys):
        """Density evaluated on the outer grid of two 1-D arrays."""
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return self(pts).reshape(len(xs), len(ys))

    def covariance(self):
        """Physical 2x2 second-moment matrix of the measured pair."""
        return self.sigma + 2.0 * self.sigma @ self.polyQ @ self.sigma

    def moment(self, i_power, j_power):
        """Central Weyl moment <y_1^n y_2^m> of the measured pair."""
        idx = [0] * i_power + [1] * j_power
        return poly_gauss_moment(idx, self.sigma, self.polyQ, self.poly0)


def measurement_pdf(state, basis=X_BASIS):
    """Joint density of the homodyne outcomes selected by a QuadratureBasis.

    The state is rotated so the measured quadratures become the x components,
    then the conjugate pair is integrated out analytically.
    """
    rotated = state.transformed(basis.symplectic())
    sigma, poly_q, poly0 = marginal_params(rotated.cov, rotated.polyQ, rotated.poly0, keep=[0, 2])
    return JointDensity(sigma=sigma, polyQ=poly_q, poly0=poly0, mean=rotated.mean[[0, 2]])
