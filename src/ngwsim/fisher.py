"""Classical Fisher information of homodyne outcome distributions.

The measured joint density for any generator, parameter point and basis is a
bivariate Gaussian plus its second derivatives, fixed by a pair (Sigma, T)
that is linear in the state's (cov, t): Sigma = m cov m^T and T = m t m^T for
the measured rows m of the total symplectic map. Their exact
theta-derivatives follow from the product rule. In the whitened eigenframe a
Laplace transform of 1/p leaves closed-form Gaussian moments, so the only
numerical step is one fixed exp-sinh sum over the transform variable.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .moments import generator_total_variance
from .state import QuadratureBasis, X_BASIS, measured_density

NONLOCAL_SATURATING_BASIS = QuadratureBasis(0.0, np.pi / 2, -np.pi / 4)

_DOUBLE_FACTORIAL = np.array([1.0, 1.0, 3.0, 15.0, 105.0])  # (2i - 1)!!


def _measured_family_with_derivative(state, gen, basis, theta0):
    """Measured density at theta0, a JointDensity (Sigma, T, mean), and the
    exact theta-derivatives (dSigma, dT, dmean) of its fields.

    With the measured rows m = (S_basis S(theta))[[0, 2]] and their
    derivative dm, Sigma = m cov m^T, T = m t m^T and
    dSigma = dm cov m^T + m cov dm^T, and likewise for T.
    """
    rows = basis.symplectic()[[0, 2]]
    s, shift, ds, d_shift = gen.flow(theta0)
    m, dm = rows @ s, rows @ ds
    density = measured_density(m, state, m @ state.mean + rows @ shift)
    d_sigma, d_t = dm @ state.cov @ m.T, dm @ state.t @ m.T
    return density, (d_sigma + d_sigma.T, d_t + d_t.T, dm @ state.mean + rows @ d_shift)


def _laplace_integrand(density, derivs):
    """FI integrand over the Laplace variable s, the Gaussian moments in closed form.

    In the whitened eigenframe y - mean = M v of the measured density
    (JointDensity.frame: M^-1 Sigma M^-T = 1, M^-1 T M^-T = diag(d)), the
    density is q(v) phi(v) with q = c + d_1 v_1^2 + d_2 v_2^2 for the
    weights (c, d_1, d_2), and dp/dtheta = N(v) phi(v) with N a quartic. Writing
    1/q as the integral of e^(-s q) over s >= 0 turns the FI, the integral of
    N^2 phi / q, into the integral over s of e^(-s c) times Gaussian moments
    of N^2 with variances tau_k = 1 / (1 + 2 s d_k):
    sum_ij C_ij (2i-1)!! (2j-1)!! tau_1^(i+1/2) tau_2^(j+1/2), where C_ij is
    the v_1^(2i) v_2^(2j) coefficient of N^2; odd powers have zero moments.
    """
    d_sigma, d_t, d_mean = derivs
    c, d, m_inv = density.weights[0], density.weights[1:], density.frame_inv
    s_w, t_w = m_inv @ d_sigma @ m_inv.T, m_inv @ d_t @ m_inv.T
    # P = M^T (dQ/dtheta) M for the polynomial form (u^T Q u + c) G_Sigma(u), and dc
    p = t_w - s_w * d - d[:, None] * s_w
    # A zero weight (JointDensity zeroes roundoff) makes p vanish on a line (or at
    # the centre); as p >= 0 for every theta, dp vanishes there too: P_kk and dc are
    # zeroed, so N = 0 wherever p = 0 and no coefficient that would not decay is left.
    flat = d == 0.0
    p[flat, flat] = 0.0
    d_c = s_w.diagonal() @ d - np.trace(t_w) if c else 0.0
    r = 0.5 * s_w
    h = m_inv @ d_mean
    tr_r = -np.trace(r)
    # n[i, j] is the v_1^i v_2^j coefficient of N = dc + c tr_r + ((c - 2d) o h).v
    # + v^T (P + c R + tr_r D) v + (v^T D v)(h.v + v^T R v)
    n = np.zeros((5, 9))
    n[:3, :3] = _quadratic_table(d_c + c * tr_r, (c - 2.0 * d) * h,
                                 p + c * r + tr_r * np.diag(d))
    tail = _quadratic_table(0.0, h, r)
    n[2:, :3] += d[0] * tail
    n[:3, 2:5] += d[1] * tail
    # with the rows flattened at stride 9 the powers of v_2 never carry into
    # v_1, so one 1-D convolution squares the bivariate polynomial
    square = np.convolve(n.ravel(), n.ravel())[:81].reshape(9, 9)
    moments = square[::2, ::2] * _DOUBLE_FACTORIAL[:, None] * _DOUBLE_FACTORIAL

    def integrand(s):
        tau = 1.0 / (1.0 + 2.0 * s[:, None] * d)
        powers = np.sqrt(tau)[:, :, None] * tau[:, :, None] ** np.arange(5)
        return np.exp(-s * c) * np.einsum("ni,ij,nj->n", powers[:, 0], moments, powers[:, 1])

    return integrand


def _quadratic_table(constant, linear, quadratic):
    """3 x 3 table of the v_1^i v_2^j coefficients of
    constant + linear.v + v^T quadratic v."""
    return np.array([[constant, linear[1], quadratic[1, 1]],
                     [linear[0], 2.0 * quadratic[0, 1], 0.0],
                     [quadratic[0, 0], 0.0, 0.0]])


def fi_continuous(state, gen, basis=X_BASIS, theta0=0.0):
    """Fisher information of the measured joint density at theta0."""
    density, derivs = _measured_family_with_derivative(state, gen, basis, theta0)
    value, _err = quadrature.integrate_adaptive(_laplace_integrand(density, derivs))
    return value


def qfi_pure(state, gen):
    """Quantum Fisher information 4 Var(H_A + H_B) of a pure state."""
    if not state.pure:
        raise ValueError("the 4 Var(H) identity requires a pure (lossless) state")
    return 4.0 * generator_total_variance(state, gen)


def _golden_section(fun, lo, hi):
    """Deterministic golden-section maximization on [lo, hi], 26 steps."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(26):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def angle_grid_scan(state, gen, grid_step):
    """Fisher information on the (phi_A, phi_B) grid covering [0, pi)^2.

    Returns (angles, matrix) with matrix[i, j] the FI at (angles[i], angles[j]).
    A grid step that is not positive and finite raises ValueError.
    """
    if not (np.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"angle grid step must be positive and finite, got {grid_step!r}")
    angles = np.arange(0.0, np.pi - 1e-12, grid_step)
    values = np.array([
        fi_continuous(state, gen, QuadratureBasis(pa, pb))
        for pa in angles for pb in angles
    ])
    return angles, values.reshape(len(angles), len(angles))


@dataclass(frozen=True)
class AngleScanResult:
    grid_phi_a: float
    grid_phi_b: float
    f_grid_max: float
    phi_a: float
    phi_b: float
    f_max: float
    angles: np.ndarray
    f_grid: np.ndarray


def optimize_angles(state, gen, grid_step=np.pi / 20, refine=True):
    """Exhaustive grid scan of the FI over local angles with local refinement.

    The grid argmax breaks ties toward the lexicographically smallest pair;
    refinement runs golden-section sweeps along each axis within one grid step.
    """
    angles, grid = angle_grid_scan(state, gen, grid_step)
    best = grid.max()
    # symmetric twin maxima agree to roundoff (within 7e-16 relative on the
    # appB grids); ties break toward the lexicographically smallest pair
    near = np.argwhere(grid >= best - 1e-12 * abs(best))
    ia, ib = min(map(tuple, near))
    pa, pb = angles[ia], angles[ib]
    f_best = grid[ia, ib]
    result = dict(grid_phi_a=pa, grid_phi_b=pb, f_grid_max=f_best,
                  phi_a=pa, phi_b=pb, f_max=f_best, angles=angles, f_grid=grid)
    if refine:
        for _ in range(2):
            pa, f_best = _golden_section(
                lambda t: fi_continuous(state, gen, QuadratureBasis(t, pb)),
                pa - grid_step, pa + grid_step)
            pb, f_best = _golden_section(
                lambda t: fi_continuous(state, gen, QuadratureBasis(pa, t)),
                pb - grid_step, pb + grid_step)
        result.update(phi_a=pa % np.pi, phi_b=pb % np.pi, f_max=f_best)
    return AngleScanResult(**result)

