"""Classical Fisher information of homodyne outcome distributions.

The measured joint density for any generator, parameter point and basis is a
bivariate Gaussian plus its second derivatives, fixed by a pair (Sigma, T)
that is linear in the state's (cov, t): Sigma = m cov m^T and T = m t m^T for
the measured rows m of the total symplectic map. Their exact
theta-derivatives follow from the product rule. In polar coordinates of the
whitened eigenframe the radial integral of p (d log p / d theta)^2 is
closed-form, so the only numerical step is a periodic 1-D integral over the
angle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .moments import generator_total_variance
from .quadrature import integrate_adaptive
from .state import JointDensity, QuadratureBasis, X_BASIS

NONLOCAL_SATURATING_BASIS = QuadratureBasis(0.0, np.pi / 2, -np.pi / 4)

# agreement of two successive angular levels; the finer level's own error is
# far smaller because the periodic rule converges geometrically
_REL_TOL = 1e-10
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(80)
_LAGUERRE_MOMENTS = _LAGUERRE_W[:, None] * (2.0 * _LAGUERRE_T[:, None]) ** np.arange(5)
_E1_SERIES = [0.0] + [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21)]


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
    density = JointDensity(sigma=m @ state.cov @ m.T, t=m @ state.t @ m.T,
                           mean=m @ state.mean + rows @ shift)
    d_sigma, d_t = dm @ state.cov @ m.T, dm @ state.t @ m.T
    return density, (d_sigma + d_sigma.T, d_t + d_t.T, dm @ state.mean + rows @ d_shift)


def _radial_integrals(a, c):
    """I[:, m] = integral over rho >= 0 of rho^(2m+1) e^(-rho^2/2) / (a rho^2 + c)
    for m = 0..4 at every a >= 0 (c >= 0 is a scalar).

    With t = rho^2 / 2 and s = c / 2a, I_m = 2^m J_m(s) / 2a where
    J_m(s) = integral of t^m e^(-t) / (t + s) over t >= 0: Gauss-Laguerre for
    s > 1 (a = 0 included), else the upward recursion
    J_m = (m - 1)! - s J_(m-1) from J_0 = e^s E_1(s), which is stable there.
    J_0 diverges at c = 0, where its coefficient vanishes; I[:, 0] is 0 there.
    """
    out = np.empty((len(a), 5))
    wide = c > 2.0 * a
    out[wide] = (1.0 / (2.0 * a[wide, None] * _LAGUERRE_T + c)) @ _LAGUERRE_MOMENTS
    two_a = 2.0 * a[~wide]
    s = c / two_a
    # J_0 = e^s E_1(s) from the convergent series of E_1; unused at c = 0
    j = (np.exp(s) * (np.polynomial.polynomial.polyval(s, _E1_SERIES) - np.euler_gamma - np.log(s))
         if c > 0.0 else np.zeros_like(s))
    out[~wide, 0] = j / two_a
    for m in range(1, 5):
        j = math.factorial(m - 1) - s * j
        out[~wide, m] = 2.0**m * j / two_a
    return out


def _polar_integrand(density, derivs):
    """FI integrand over the mapped angle psi, its radial part in closed form.

    In the whitened eigenframe y - mean = M v of the measured density
    (JointDensity.eigenframe: M^-1 Sigma M^-T = 1, M^-1 T M^-T = diag(d)),
    the density is (c + d_1 v_1^2 + d_2 v_2^2) phi(v) with c = 1 - d_1 - d_2,
    and the integrand is N(rho, w)^2 e^(-rho^2/2) / (2 pi (A(w) rho^2 + c))
    with A = d_1 cos^2 w + d_2 sin^2 w and N = (dp/dtheta) / gauss, a quartic
    in rho. Odd powers of rho in N^2 cancel between w and w + pi. Nodes are
    pulled toward w = 0 and pi, where A is smallest, by
    w = atan2(kappa sin psi, cos psi).
    """
    d_sigma, d_t, d_mean = derivs
    d, _, m_inv = density.eigenframe()
    s_w, t_w = m_inv @ d_sigma @ m_inv.T, m_inv @ d_t @ m_inv.T
    # P = M^T (dQ/dtheta) M for the polynomial form (u^T Q u + c) G_Sigma(u), and dc
    p = t_w - s_w * d - d[:, None] * s_w
    c, d_c = 1.0 - d.sum(), s_w.diagonal() @ d - np.trace(t_w)
    # Roundoff-level eigenvalues and c are zeroed. The density then vanishes on
    # a line (or at the centre); being >= 0 for every theta, so does its
    # derivative, so P_kk and dc are zeroed too and N = 0 wherever p = 0.
    scale = max(d[1], c)
    flat = d < 1e-12 * scale
    d[flat] = 0.0
    p[flat, flat] = 0.0
    c, d_c = (c, d_c) if c >= 1e-12 * scale else (0.0, 0.0)
    r = 0.5 * s_w
    h = m_inv @ d_mean
    tr_r = -np.trace(r)
    floor = max(d[0], c)
    kappa = (floor / d[1]) ** 0.25 if 0.0 < floor < d[1] else 1.0

    def integrand(psi):
        e = np.array([np.cos(psi), kappa * np.sin(psi)])
        norm_sq = np.sum(e * e, axis=0)
        e /= np.sqrt(norm_sq)
        a = d @ (e * e)
        e_h, e_r = h @ e, np.einsum("in,ij,jn->n", e, r, e)
        coef = [np.full_like(a, d_c + c * tr_r), (c - 2.0 * d) * h @ e,
                np.einsum("in,ij,jn->n", e, p, e) + c * e_r + a * tr_r, a * e_h, a * e_r]
        # even coefficients of N^2; the odd ones cancel over the circle
        even = [sum(coef[i] * coef[2 * m - i] for i in range(max(0, 2 * m - 4), min(2 * m, 4) + 1))
                for m in range(5)]
        # dw/dpsi = kappa / (cos^2 psi + kappa^2 sin^2 psi)
        return np.einsum("mn,nm->n", even, _radial_integrals(a, c)) * kappa / (2 * np.pi * norm_sq)

    return integrand


def fi_continuous(state, gen, basis=X_BASIS, theta0=0.0):
    """Fisher information of the measured joint density at theta0."""
    density, derivs = _measured_family_with_derivative(state, gen, basis, theta0)
    value, _err = integrate_adaptive(_polar_integrand(density, derivs), rel_tol=_REL_TOL)
    return value


def qfi_pure(state, gen):
    """Quantum Fisher information 4 Var(H_A + H_B) of a pure state."""
    if not state.pure:
        raise ValueError("the 4 Var(H) identity requires a pure (lossless) state")
    return 4.0 * generator_total_variance(state, gen)


def _golden_section(fun, lo, hi, iterations=26):
    """Deterministic golden-section maximization on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def angle_grid_scan(state, gen, grid_step, theta0=0.0):
    """Fisher information on the (phi_A, phi_B) grid covering [0, pi)^2.

    Returns (angles, matrix) with matrix[i, j] the FI at (angles[i], angles[j]).
    """
    angles = np.arange(0.0, np.pi - 1e-12, grid_step)
    values = np.array([
        fi_continuous(state, gen, QuadratureBasis(pa, pb), theta0)
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


def optimize_angles(state, gen, grid_step=np.pi / 20, theta0=0.0, refine=True):
    """Exhaustive grid scan of the FI over local angles with local refinement.

    The grid argmax breaks ties toward the lexicographically smallest pair;
    refinement runs golden-section sweeps along each axis within one grid step.
    """
    angles, grid = angle_grid_scan(state, gen, grid_step, theta0)
    best = grid.max()
    # ties within quadrature noise (symmetric twin maxima) break toward the
    # lexicographically smallest angle pair
    near = np.argwhere(grid >= best - 1e-5 * abs(best))
    ia, ib = min(map(tuple, near))
    pa, pb = angles[ia], angles[ib]
    f_best = grid[ia, ib]
    result = dict(grid_phi_a=pa, grid_phi_b=pb, f_grid_max=f_best,
                  phi_a=pa, phi_b=pb, f_max=f_best, angles=angles, f_grid=grid)
    if refine:
        for _ in range(2):
            pa, f_best = _golden_section(
                lambda t: fi_continuous(state, gen, QuadratureBasis(t, pb), theta0),
                pa - grid_step, pa + grid_step)
            pb, f_best = _golden_section(
                lambda t: fi_continuous(state, gen, QuadratureBasis(pa, t), theta0),
                pb - grid_step, pb + grid_step)
        result.update(phi_a=pa % np.pi, phi_b=pb % np.pi, f_max=f_best)
    return AngleScanResult(**result)


@dataclass(frozen=True)
class SaturationReport:
    qfi: float
    best_local_f: float
    best_local_angles: tuple
    nonlocal_f: float
    local_gap: float
    nonlocal_gap: float


def saturation_check(state, gen, grid_step=np.pi / 20):
    """Compare the best local-angle FI and the mixed-mode basis FI to the QFI."""
    qfi = qfi_pure(state, gen)
    scan = optimize_angles(state, gen, grid_step=grid_step)
    f_nonlocal = fi_continuous(state, gen, NONLOCAL_SATURATING_BASIS)
    return SaturationReport(
        qfi=qfi,
        best_local_f=scan.f_max,
        best_local_angles=(scan.phi_a, scan.phi_b),
        nonlocal_f=f_nonlocal,
        local_gap=qfi - scan.f_max,
        nonlocal_gap=qfi - f_nonlocal,
    )
