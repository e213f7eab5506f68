"""The generator model, quadrature moments and generator statistics.

Every generator is a quadratic Hamiltonian H = xi^T A xi / 2 + b^T xi with A
block-diagonal (local), and its statistics follow from (A, b) alone.
Phase-space moments are Weyl (symmetrically) ordered; with [x, p] = 2i the
Weyl symbol of a quadratic H is H_W = xi^T A xi / 2 + b^T xi, and the Moyal
product gives, for any two quadratic H_1, H_2,

    <(H_1 H_2 + H_2 H_1) / 2> = <H_1W H_2W>_W + tr(A_1 Omega A_2 Omega) / 2.

So Var H = <H_W^2>_W - <H_W>_W^2 + tr((A Omega)^2) / 2. The ordering term is
+1/4 for squeezing, <(x p + p x)^2> = 4 <x^2 p^2>_W + 4, and -1/4 for the
photon number, <N^2> = <N_W^2>_W - 1/4; it vanishes between modes, so
Cov(H_A, H_B) is the covariance of the Weyl symbols.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import OMEGA, poly_gauss_moment

# kind -> (orientation, local A, local b); the one place that tells the kinds
# apart. Orientation -1 stores -H for the gates that follow e^{+i theta H}.
_LOCAL_PARTS = {
    "displacement": (-1.0, np.zeros((2, 2)), np.array([0.0, 0.5])),
    "phase": (1.0, 0.5 * np.eye(2), np.zeros(2)),
    "shear": (1.0, np.diag([0.5, 0.0]), np.zeros(2)),
    "squeeze": (-1.0, np.array([[0.0, 0.5], [0.5, 0.0]]), np.zeros(2)),
}
GENERATOR_KINDS = tuple(_LOCAL_PARTS)


def displacement_direction(sign, delta=0.0):
    """Unbalanced displacement direction (d_A, d_B); (1, +-1) at delta = 0."""
    return np.array([
        np.sqrt(2.0) * np.cos(delta + np.pi / 4),
        sign * np.sqrt(2.0) * np.sin(delta + np.pi / 4),
    ])


def _block_flow(k, v, theta):
    """exp(theta k) and the integral of exp(s k) v over s in [0, theta] for a
    traceless 2x2 k, in closed form because k^2 = q I with q = -det(k)."""
    eye = np.eye(2)
    q = k[0, 0] ** 2 + k[0, 1] * k[1, 0]
    w = math.sqrt(abs(q))
    if q > 0.0:
        # eigenvalues +-w: weighting the eigenprojectors avoids cosh - sinh
        up = 0.5 * (eye + k / w)
        return (math.exp(w * theta) * up + math.exp(-w * theta) * (eye - up),
                (math.expm1(w * theta) * up - math.expm1(-w * theta) * (eye - up)) @ v / w)
    if q < 0.0:
        c, s = math.cos(w * theta), math.sin(w * theta) / w
        return c * eye + s * k, (s * eye + (c - 1.0) / q * k) @ v
    return eye + theta * k, (theta * eye + 0.5 * theta**2 * k) @ v


@dataclass(frozen=True)
class GeneratorSpec:
    """One of the four joint local Gaussian-gate Hamiltonians.

    kind selects among H = (p_A +- p_B)/2, H = N_A +- N_B,
    H = (x_A^2 +- x_B^2)/4 and H = (x_A p_A + p_A x_A +- x_B p_B +- p_B x_B)/4;
    sign is the relative sign; delta is the displacement unbalancing angle.

    Orientation: phase and shear act as e^{-i theta H} (phase rotates the
    quadratures clockwise, shear maps p -> p - theta x); squeeze and
    displacement act as e^{+i theta H} (squeeze scales x by e^{-theta},
    displacement shifts x by -theta d). The fields a and b hold H, or -H for
    the last two, so that every gate is e^{-i theta H} with that H; variances,
    covariances and the QFI are the same for H and -H.
    """

    kind: str
    sign: int = +1
    delta: float = 0.0
    a: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"kind must be one of {GENERATOR_KINDS}, got {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.delta != 0.0 and self.kind != "displacement":
            raise ValueError("delta applies to the displacement generator only")
        orientation, a_local, b_local = _LOCAL_PARTS[self.kind]
        d = displacement_direction(self.sign, self.delta)
        object.__setattr__(self, "a", orientation * np.kron(np.diag([1.0, self.sign]), a_local))
        object.__setattr__(self, "b", orientation * np.kron(d, b_local))

    def flow(self, theta):
        """Affine phase-space map xi -> S xi + shift of e^{-i theta H} and its
        theta-derivatives: S = exp(theta K) with K = 2 Omega A, so
        dS/dtheta = K S, and d shift/dtheta = K shift + 2 Omega b.
        Returns (S, shift, dS/dtheta, d shift/dtheta)."""
        if not np.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        k, drift = 2.0 * OMEGA @ self.a, 2.0 * OMEGA @ self.b
        s, shift = np.zeros((4, 4)), np.zeros(4)
        for block in (slice(0, 2), slice(2, 4)):
            s[block, block], shift[block] = _block_flow(k[block, block], drift[block], theta)
        return s, shift, k @ s, k @ shift + drift

    def part(self, mode):
        """(A, b) of the local part H_A or H_B alone (the sign is in H_B)."""
        if mode not in ("A", "B"):
            raise ValueError("mode must be 'A' or 'B'")
        keep = np.repeat([mode == "A", mode == "B"], 2)
        return self.a * np.outer(keep, keep), self.b * keep


def quad_moment(state, x_a=0, p_a=0, x_b=0, p_b=0):
    """Weyl-ordered raw moment (about zero) of a quadrature monomial, total
    order <= 4: the binomial expansion of the monomial around the mean."""
    powers = (x_a, p_a, x_b, p_b)
    if min(powers) < 0 or sum(powers) > 4:
        raise ValueError(f"unsupported moment order {powers} (total must be <= 4)")
    total = 0.0
    for sub in itertools.product(*(range(n + 1) for n in powers)):
        weight = math.prod(math.comb(n, j) * m ** (n - j)
                           for n, j, m in zip(powers, sub, state.mean))
        if weight:
            indices = [i for i, j in enumerate(sub) for _ in range(j)]
            total += weight * poly_gauss_moment(indices, state.cov, state.t)
    return total


def _covariance(state, part_1, part_2):
    """Symmetrized Cov(H_1, H_2) of two quadratic Hamiltonians (A_i, b_i).

    With u = xi - mean, H_iW = u^T A_i u / 2 + g_i^T u + const and
    g_i = A_i mean + b_i. Under G_cov(u) + sum t_ij d_i d_j G_cov(u), with V
    the state's second moments, Gaussian trace identities give
    tr(A_1 cov A_2 cov) / 2 + 2 tr(A_1 cov A_2 t) - tr(A_1 t) tr(A_2 t)
    + g_1^T V g_2; the linear-quadratic cross terms vanish because the density
    is even in u.
    """
    (a_1, b_1), (a_2, b_2) = part_1, part_2
    x_1, x_2 = a_1 @ state.cov, a_2 @ state.cov
    g_1, g_2 = a_1 @ state.mean + b_1, a_2 @ state.mean + b_2
    return (0.5 * np.trace(x_1 @ x_2) + 2.0 * np.trace(x_1 @ a_2 @ state.t)
            - np.trace(a_1 @ state.t) * np.trace(a_2 @ state.t)
            + g_1 @ state.second_moments() @ g_2 + 0.5 * np.trace(a_1 @ OMEGA @ a_2 @ OMEGA))


def generator_variance(state, gen, mode):
    """Variance of the local generator part H_A or H_B on the reduced state."""
    part = gen.part(mode)
    return _covariance(state, part, part)


def generator_covariance(state, gen):
    """Cov(H_A, H_B) on the joint state, including the relative sign.

    For a pure state the witness bound 8 Cov(H_A, H_B) reproduces the
    closed-form optimal witness of the matching generator.
    """
    return _covariance(state, gen.part("A"), gen.part("B"))


def generator_total_variance(state, gen):
    """Var(H_A + H_B) with the relative sign folded into H_B."""
    return _covariance(state, (gen.a, gen.b), (gen.a, gen.b))
