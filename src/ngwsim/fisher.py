"""Classical Fisher information of homodyne outcome distributions.

The measured joint density for any generator, parameter point and basis is a
bivariate polynomial-times-Gaussian whose parameters depend smoothly on the
estimation parameter. The integrand p (d log p / d theta)^2 is assembled from
exact parameter derivatives (forward-mode matrix calculus through the
symplectic family and the marginalization). In polar coordinates of the
whitened eigenframe its radial integral is closed-form, so the only
numerical step is a periodic 1-D integral over the angle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .moments import generator_total_variance
from .quadrature import integrate_adaptive
from .state import (
    QuadratureBasis,
    X_BASIS,
    _generator_symplectic,
    displacement_direction,
)

NONLOCAL_SATURATING_BASIS = QuadratureBasis(0.0, np.pi / 2, -np.pi / 4)

# agreement of two successive angular levels; the finer level's own error is
# far smaller because the periodic rule converges geometrically
_REL_TOL = 1e-10
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(80)
_LAGUERRE_MOMENTS = _LAGUERRE_W[:, None] * (2.0 * _LAGUERRE_T[:, None]) ** np.arange(5)
_E1_SERIES = [0.0] + [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21)]


def _generator_symplectic_derivative(gen, theta):
    """d/dtheta of the state-level symplectic map at the given theta."""
    sign = gen.sign
    if gen.kind == "displacement":
        return np.zeros((4, 4))
    if gen.kind == "phase":
        def d_clockwise(t, scale):
            c, s = np.cos(t), np.sin(t)
            return scale * np.array([[-s, c], [-c, -s]])
        blocks = (d_clockwise(theta, 1.0), d_clockwise(sign * theta, sign))
    elif gen.kind == "shear":
        blocks = (
            np.array([[0.0, 0.0], [-1.0, 0.0]]),
            np.array([[0.0, 0.0], [-sign, 0.0]]),
        )
    else:  # squeeze
        blocks = (
            np.diag([-np.exp(-theta), np.exp(theta)]),
            sign * np.diag([-np.exp(-sign * theta), np.exp(sign * theta)]),
        )
    out = np.zeros((4, 4))
    out[:2, :2] = blocks[0]
    out[2:, 2:] = blocks[1]
    return out


def _measured_family_with_derivative(state, gen, basis, theta0):
    """2-D marginal parameters (Sigma, Q, c) and their exact theta-derivatives
    (with that of the mean) at theta0."""
    s_meas = basis.symplectic()
    s4, _ = _generator_symplectic(gen, theta0)
    ds4 = _generator_symplectic_derivative(gen, theta0)
    m_tot = s_meas @ s4
    dm_tot = s_meas @ ds4

    sigma = m_tot @ state.cov @ m_tot.T
    d_sigma = dm_tot @ state.cov @ m_tot.T + m_tot @ state.cov @ dm_tot.T
    inv_m = np.linalg.inv(m_tot)
    d_inv = -inv_m @ dm_tot @ inv_m
    poly_q = inv_m.T @ state.polyQ @ inv_m
    d_poly_q = d_inv.T @ state.polyQ @ inv_m + inv_m.T @ state.polyQ @ d_inv

    if gen.kind == "displacement":
        d4 = displacement_direction(gen.sign, gen.delta)
        d_mean = s_meas @ np.array([-d4[0], 0.0, -d4[1], 0.0])
    else:
        d_mean = dm_tot @ state.mean

    keep, drop = [0, 2], [1, 3]
    syy = sigma[np.ix_(keep, keep)]
    swy = sigma[np.ix_(drop, keep)]
    sww = sigma[np.ix_(drop, drop)]
    d_syy = d_sigma[np.ix_(keep, keep)]
    d_swy = d_sigma[np.ix_(drop, keep)]
    d_sww = d_sigma[np.ix_(drop, drop)]
    syy_inv = np.linalg.inv(syy)
    reg = swy @ syy_inv
    d_reg = d_swy @ syy_inv - swy @ syy_inv @ d_syy @ syy_inv
    cond = sww - reg @ swy.T
    d_cond = d_sww - d_reg @ swy.T - reg @ d_swy.T

    qyy, qww = poly_q[np.ix_(keep, keep)], poly_q[np.ix_(drop, drop)]
    qyw = poly_q[np.ix_(keep, drop)]
    d_qyy, d_qww = d_poly_q[np.ix_(keep, keep)], d_poly_q[np.ix_(drop, drop)]
    d_qyw = d_poly_q[np.ix_(keep, drop)]

    q2 = qyy + qyw @ reg + reg.T @ qyw.T + reg.T @ qww @ reg
    d_q2 = (
        d_qyy + d_qyw @ reg + qyw @ d_reg
        + d_reg.T @ qyw.T + reg.T @ d_qyw.T
        + d_reg.T @ qww @ reg + reg.T @ d_qww @ reg + reg.T @ qww @ d_reg
    )
    c2 = state.poly0 + np.trace(qww @ cond)
    d_c2 = np.trace(d_qww @ cond + qww @ d_cond)

    params = (syy, q2, c2)
    derivs = (d_syy, d_q2, d_c2, d_mean[keep])
    return params, derivs


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


def _polar_integrand(params, derivs):
    """FI integrand over the mapped angle psi, its radial part in closed form.

    In the whitened eigenframe y - mean = M v of the measured density
    (M^T Sigma^-1 M = 1, M^T Q M = diag(d_1, d_2)), the integrand is
    N(rho, w)^2 e^(-rho^2/2) / (2 pi (A(w) rho^2 + c)) with
    A = d_1 cos^2 w + d_2 sin^2 w and N = (dp/dtheta) / gauss, a quartic in
    rho. Odd powers of rho in N^2 cancel between w and w + pi. Nodes are
    pulled toward w = 0 and pi, where A is smallest, by
    w = atan2(kappa sin psi, cos psi).
    """
    sigma, q2, c2 = params
    d_sigma, d_q2, d_c2, d_mean = derivs
    chol = np.linalg.cholesky(sigma)
    d, frame = np.linalg.eigh(chol.T @ q2 @ chol)
    m = chol @ frame
    m_inv = np.linalg.inv(m)
    p = m.T @ d_q2 @ m
    # Roundoff-level eigenvalues and c are zeroed. The density then vanishes on
    # a line (or at the centre); being >= 0 for every theta, so does its
    # derivative, so P_kk and dc are zeroed too and N = 0 wherever p = 0.
    scale = max(d[1], c2)
    flat = d < 1e-12 * scale
    d[flat] = 0.0
    p[flat, flat] = 0.0
    c, d_c = (c2, d_c2) if c2 >= 1e-12 * scale else (0.0, 0.0)
    r = 0.5 * m_inv @ d_sigma @ m_inv.T
    h = m_inv @ d_mean
    t = -np.trace(r)
    floor = max(d[0], c)
    kappa = (floor / d[1]) ** 0.25 if 0.0 < floor < d[1] else 1.0

    def integrand(psi):
        e = np.array([np.cos(psi), kappa * np.sin(psi)])
        norm_sq = np.sum(e * e, axis=0)
        e /= np.sqrt(norm_sq)
        a = d @ (e * e)
        e_h, e_r = h @ e, np.einsum("in,ij,jn->n", e, r, e)
        coef = [np.full_like(a, d_c + c * t), (c - 2.0 * d) * h @ e,
                np.einsum("in,ij,jn->n", e, p, e) + c * e_r + a * t, a * e_h, a * e_r]
        # even coefficients of N^2; the odd ones cancel over the circle
        even = [sum(coef[i] * coef[2 * m - i] for i in range(max(0, 2 * m - 4), min(2 * m, 4) + 1))
                for m in range(5)]
        # dw/dpsi = kappa / (cos^2 psi + kappa^2 sin^2 psi)
        return np.einsum("mn,nm->n", even, _radial_integrals(a, c)) * kappa / (2 * np.pi * norm_sq)

    return integrand


def fi_continuous(state, gen, basis=X_BASIS, theta0=0.0):
    """Fisher information of the measured joint density at theta0."""
    params, derivs = _measured_family_with_derivative(state, gen, basis, theta0)
    value, _err = integrate_adaptive(_polar_integrand(params, derivs), rel_tol=_REL_TOL)
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
