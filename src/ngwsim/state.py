"""Two-mode photon-subtracted squeezed states and their quadrature densities.

The state after delocalized single-photon subtraction is represented exactly
as a Gaussian plus its own second derivatives over phase space
(x_A, p_A, x_B, p_B): G_cov(u) + sum_ij t_ij d_i d_j G_cov(u), u = xi - mean
(Walschaers, Fabre, Parigi & Treps, PRL 119, 183601 (2017)). Every operation
here is linear in the pair (cov, t): symplectic maps and uniform loss act on
both as on a covariance matrix, and marginalization keeps their rows and
columns. The measured joint quadrature density for any pair of homodyne
angles follows by rotating and keeping the x components.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateStateError
from .gaussian import local_rotation, mode_mixing, poly_gauss_moment

TWO_PI = 2.0 * np.pi


def squeezing_db(r):
    """Squeezing depth in dB, s = 10 log10(e^{-2r}). Negative for r > 0."""
    return 10.0 * np.log10(np.exp(-2.0 * r))


def squeezing_r(s_db):
    """Inverse of squeezing_db."""
    return -s_db * np.log(10.0) / 20.0


def _check_finite(obj, names):
    for name in names:
        value = np.asarray(getattr(obj, name))
        if not all(map(math.isfinite, value.flat)):
            raise ValueError(f"{name} must be finite, got {value.tolist()}")


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
        _check_finite(self, ("r_a", "r_b"))
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
        _check_finite(self, ("phi_a", "phi_b", "nonlocal_mix"))
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
    """A Gaussian plus its second derivatives over phase space.

    density(xi) = G_cov(u) + sum_ij t_ij d_i d_j G_cov(u),  u = xi - mean,

    with G_cov the normalized centered Gaussian of covariance cov. The
    derivative terms integrate to zero, so the density is normalized for any
    t; as a polynomial times G_cov it is (u^T Q u + c) G_cov(u) with
    Q = cov^-1 t cov^-1 and c = 1 - tr(cov^-1 t). The physical second moments
    are cov + 2 t (second_moments()). Non-finite fields raise ValueError.
    """

    cov: np.ndarray
    t: np.ndarray
    mean: np.ndarray = field(default_factory=lambda: np.zeros(4))
    pure: bool = True

    def __post_init__(self):
        _check_finite(self, ("cov", "t", "mean"))

    def second_moments(self):
        """Physical 4x4 covariance matrix (the matrix V of the state)."""
        return self.cov + 2.0 * self.t

    def displaced(self, shift):
        return replace(self, mean=self.mean + np.asarray(shift, dtype=float))


def build_state(spec):
    """Construct the lossless photon-subtracted state for a StateSpec.

    The (x_A, x_B) marginal of the result is the squared wavefunction of the
    subtracted state. cov is the squeezed vacuum V0 and
    t = (V0 - 1) P (V0 - 1) / Tr[(V0 - 1) P], with P the projector on the
    subtracted mode, so the second moments cov + 2 t are those of the
    noisy-covariance construction. Loss is applied separately (apply_loss),
    also when spec.eta > 0.
    """
    a = np.exp(2.0 * spec.r_a)
    b = np.exp(2.0 * spec.r_b)
    alpha = (a - 1.0) * np.cos(spec.phi_sub)
    beta = (b - 1.0) * np.sin(spec.phi_sub)
    # (V0 - 1) applied to the subtracted mode's x and p directions, up to sign
    u = np.array([alpha / a, 0.0, beta / b, 0.0])
    v = np.array([0.0, alpha, 0.0, beta])
    t = (np.outer(u, u) + np.outer(v, v)) / (alpha**2 / a + beta**2 / b)
    state = PolyGaussianState(cov=np.diag([1.0 / a, a, 1.0 / b, b]), t=t)
    if spec.eta > 0.0:
        state = apply_loss(state, spec.eta)
    return state


def apply_loss(state, eta):
    """Uniform loss channel: V -> (1 - eta) V + eta I on the covariance level.

    It scales xi -> sqrt(1 - eta) xi and convolves with vacuum noise eta I;
    the derivative terms commute with the convolution, so
    cov -> (1 - eta) cov + eta I and t -> (1 - eta) t.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if eta == 0.0:
        return state
    keep = 1.0 - eta
    return PolyGaussianState(cov=keep * state.cov + eta * np.eye(4), t=keep * state.t,
                             mean=np.sqrt(keep) * state.mean, pure=False)


def evolve(state, gen, theta):
    """Push the state through the affine-symplectic phase-space map
    xi -> S xi + shift of a GeneratorSpec (GeneratorSpec.flow): cov and t go
    to S cov S^T and S t S^T.

    Displacement follows the postprocessing convention: the measured density
    obeys p_theta(x_A, x_B) = p_0(x_A + theta d_A, x_B + theta d_B). The
    squeeze map scales Var(x_A) by e^{-2 theta} for positive sign.
    """
    s, shift, _, _ = gen.flow(theta)
    return replace(state, cov=s @ state.cov @ s.T, t=s @ state.t @ s.T, mean=s @ state.mean + shift)


def _whitened(sigma, t, magnitude):
    """Unrounded weights (c, d_1, d_2), their roundoff floor, L V and V^T L^-1,
    where sigma = L L^T and L^-1 t L^-T = V diag(d) V^T.

    An error eps * magnitude in sigma or t moves c = 1 - tr(sigma^-1 t) by up to
    about eps * magnitude * tr(sigma^-1); the floor is ten times that, at least
    1e-12, times the largest weight.
    """
    chol = np.linalg.cholesky(sigma)
    chol_inv = np.linalg.inv(chol)
    d, vecs = np.linalg.eigh(chol_inv @ t @ chol_inv.T)
    d_1, d_2 = d.tolist()
    weights = [1.0 - (d_1 + d_2), d_1, d_2]
    roundoff = 10.0 * np.finfo(float).eps * magnitude * float(np.vdot(chol_inv, chol_inv))
    return weights, max(1e-12, roundoff) * max(weights), chol @ vecs, vecs.T @ chol_inv


@dataclass(frozen=True)
class JointDensity:
    """Normalized bivariate density G_sigma(u) + sum_ij t_ij d_i d_j G_sigma(u),
    u = y - mean, over the measured quadratures. At y - mean = frame v it is
    (c + d_1 v_1^2 + d_2 v_2^2) phi(v): with weights (c, d_1, d_2) summing to 1,
    a standard normal and, per axis k, a signed chi-3 on axis k times a normal
    on the other.

    magnitude is the size of the terms sigma and t were summed from, the entry
    sum of |m| (|cov| + |t|) |m|^T for sigma = m cov m^T (measured_density). It
    sets the weights' roundoff floor (_whitened): weights below the floor are
    set to 0, and a non-finite field or a weight below minus the floor raises
    ValueError.
    """

    sigma: np.ndarray
    t: np.ndarray
    mean: np.ndarray
    magnitude: float
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    frame: np.ndarray = field(init=False, repr=False, compare=False)
    frame_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_finite(self, ("sigma", "t", "mean", "magnitude"))
        weights, floor, frame, frame_inv = _whitened(self.sigma, self.t, self.magnitude)
        if min(weights) < -floor:
            raise ValueError(f"density polynomial is negative somewhere (weights {weights})")
        weights = np.array([w if w >= floor else 0.0 for w in weights])
        for name, value in zip(("weights", "frame", "frame_inv"), (weights, frame, frame_inv)):
            object.__setattr__(self, name, value)

    def __call__(self, points):
        """(c + d_1 v_1^2 + d_2 v_2^2) phi(v) / |det frame| at y = mean + frame v."""
        v = (np.atleast_2d(np.asarray(points, dtype=float)) - self.mean) @ self.frame_inv.T
        v *= v
        gauss = np.exp(-0.5 * v.sum(axis=1)) / (2.0 * np.pi * abs(np.linalg.det(self.frame)))
        return (self.weights[0] + v @ self.weights[1:]) * gauss

    def grid(self, xs, ys):
        """Density evaluated on the outer grid of two 1-D arrays."""
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return self(pts).reshape(len(xs), len(ys))

    def covariance(self):
        """Physical 2x2 second-moment matrix of the measured pair."""
        return self.sigma + 2.0 * self.t

    def moment(self, i_power, j_power):
        """Central Weyl moment <y_1^n y_2^m> of the measured pair."""
        idx = [0] * i_power + [1] * j_power
        return poly_gauss_moment(idx, self.sigma, self.t)


def measured_density(m, state, mean):
    """JointDensity of the quadratures m xi for the 2 x 4 rows m of a phase-space
    map: sigma = m cov m^T, t = m t m^T, with the magnitude of their terms."""
    abs_m = np.abs(m)
    magnitude = float(np.sum(abs_m @ (np.abs(state.cov) + np.abs(state.t)) * abs_m))
    return JointDensity(sigma=m @ state.cov @ m.T, t=m @ state.t @ m.T, mean=mean,
                        magnitude=magnitude)


def measurement_pdf(state, basis=X_BASIS):
    """Joint density of the homodyne outcomes selected by a QuadratureBasis.

    The measured quadratures are rows 0 and 2 of the basis map; integrating
    out the conjugate pair keeps those rows and columns of (cov, t).
    """
    m = basis.symplectic()[[0, 2]]
    return measured_density(m, state, m @ state.mean)
