"""Independent oracles used by the test suite.

These deliberately avoid the package's phase-space representation: moments
come either from the position wavefunction (analytic Gaussian integrals of
polynomial products, using p -> -2i d/dx) or from trapezoid quadrature of the
measured densities; the reference covariance comes from the noisy-projector
construction; the lossy Fisher information has a one-dimensional rotated-mode
oracle. The binned displaced family is integrated cell by cell from a density
callable. Lossy states of any squeezing pair come from a truncated Fock-space
density matrix (squeezed-vacuum amplitudes, photon subtraction, pure-loss Kraus
operators), which gives homodyne Fisher information through Hermite functions,
the mixed-state quantum Fisher information and the generator variances. The
Fisher information of any family of measured densities comes from central
differences of three density callables, integrated by adaptive 2-D
Gauss-Legendre panels. The module uses numpy only and never imports ngwsim.
"""

import math

import numpy as np

SHIM = 0.0037  # offsets grids so no node sits exactly on a density nodal line


def wavefunction_coeffs(r_a, r_b, phi):
    a, b = np.exp(2.0 * r_a), np.exp(2.0 * r_b)
    return a, b, (a - 1.0) * np.cos(phi), (b - 1.0) * np.sin(phi)


def _poly_mul(p1, p2):
    out = {}
    for (i1, j1), c1 in p1.items():
        for (i2, j2), c2 in p2.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _poly_dx(poly, mode, gauss_coef):
    """d/dx of poly * exp(-(a xA^2 + b xB^2)/4), acting on the given mode."""
    out = {}
    for (i, j), c in poly.items():
        power = i if mode == 0 else j
        if power >= 1:
            key = (i - 1, j) if mode == 0 else (i, j - 1)
            out[key] = out.get(key, 0.0) + c * power
        key_up = (i + 1, j) if mode == 0 else (i, j + 1)
        out[key_up] = out.get(key_up, 0.0) - c * gauss_coef / 2.0
    return out


def _gauss_int_1d(power, coef):
    """Integral of x^power exp(-coef x^2 / 2) over the real line."""
    if power % 2:
        return 0.0
    value = np.sqrt(2.0 * np.pi / coef)
    for k in range(1, power, 2):
        value *= k / coef
    return value


def _poly_gauss_integral(poly, a, b):
    """Integral of poly(x_A, x_B) exp(-(a x_A^2 + b x_B^2)/2)."""
    return sum(c * _gauss_int_1d(i, a) * _gauss_int_1d(j, b)
               for (i, j), c in poly.items())


def wavefunction_moment(r_a, r_b, phi, x_a=0, p_a=0, x_b=0, p_b=0):
    """Operator moment <x_A^xa p_A^pa x_B^xb p_B^pb> from the wavefunction.

    Only monomials with a single quadrature type per mode are supported
    (ordering is then unambiguous and equals the Weyl moment).
    """
    if (x_a and p_a) or (x_b and p_b):
        raise ValueError("same-mode mixed products are operator-order dependent")
    a, b, alpha, beta = wavefunction_coeffs(r_a, r_b, phi)
    psi = {(1, 0): alpha, (0, 1): beta}
    deriv = dict(psi)
    for _ in range(p_a):
        deriv = _poly_dx(deriv, 0, a)
    for _ in range(p_b):
        deriv = _poly_dx(deriv, 1, b)
    integrand = _poly_mul(psi, deriv)
    integrand = _poly_mul(integrand, {(x_a, x_b): 1.0})
    raw = _poly_gauss_integral(integrand, a, b)
    norm = _poly_gauss_integral(_poly_mul(psi, psi), a, b)
    value = (-2.0j) ** (p_a + p_b) * raw / norm
    assert abs(value.imag) < 1e-12 * (1.0 + abs(value.real))
    return value.real


def wavefunction_density(r_a, r_b, phi):
    """Normalized |Psi(x_A, x_B)|^2 as a callable on (N, 2) points."""
    a, b, alpha, beta = wavefunction_coeffs(r_a, r_b, phi)
    psi = {(1, 0): alpha, (0, 1): beta}
    norm = _poly_gauss_integral(_poly_mul(psi, psi), a, b)

    def density(points):
        pts = np.atleast_2d(points)
        amp = alpha * pts[:, 0] + beta * pts[:, 1]
        return amp**2 * np.exp(-(a * pts[:, 0] ** 2 + b * pts[:, 1] ** 2) / 2.0) / norm

    return density


def grid_points(density, n=801, n_sigma=10.0):
    """Shimmed trapezoid grid covering +-n_sigma marginal deviations."""
    cov = density.covariance()
    mean = density.mean
    sx, sy = np.sqrt(np.diag(cov))
    xs = np.linspace(mean[0] - n_sigma * sx, mean[0] + n_sigma * sx, n) + SHIM * sx
    ys = np.linspace(mean[1] - n_sigma * sy, mean[1] + n_sigma * sy, n) + 0.31 * SHIM * sy
    return xs, ys


def grid_moment(density, i_pow, j_pow, n=801, n_sigma=10.0, central=True):
    """Trapezoid-quadrature moment of a JointDensity."""
    xs, ys = grid_points(density, n, n_sigma)
    vals = density.grid(xs, ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    if central:
        gx = gx - density.mean[0]
        gy = gy - density.mean[1]
    integrand = vals * gx**i_pow * gy**j_pow
    return np.trapezoid(np.trapezoid(integrand, ys, axis=1), xs)


def grid_norm(density, n=801, n_sigma=10.0):
    xs, ys = grid_points(density, n, n_sigma)
    return np.trapezoid(np.trapezoid(density.grid(xs, ys), ys, axis=1), xs)


def vnoisy_reference(r_a, r_b, phi):
    """Covariance of the subtracted state from the noisy-projector formula."""
    v0 = np.diag([np.exp(-2 * r_a), np.exp(2 * r_a), np.exp(-2 * r_b), np.exp(2 * r_b)])
    c, s = np.cos(phi), np.sin(phi)
    proj = np.array([
        [c * c, 0.0, c * s, 0.0],
        [0.0, c * c, 0.0, c * s],
        [c * s, 0.0, s * s, 0.0],
        [0.0, c * s, 0.0, s * s],
    ])
    m = v0 - np.eye(4)
    return v0 + 2.0 * m @ proj @ m / np.trace(m @ proj)


def tmsv_covariance(r):
    """Two-mode squeezed vacuum covariance (entangled Gaussian control)."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])


def fi_lossy_symmetric_1d(r, eta, n=400001, half=14.0):
    """Displacement FI of the symmetric lossy state via the rotated mode.

    In u = (x_A + x_B)/sqrt2 the lossy density factorizes; the balanced
    displacement shifts only u, by sqrt2 theta, so F = 2 F_u.
    """
    sigma_sq = (1.0 - eta) * np.exp(-2.0 * r) + eta
    if eta > 0:
        floor = eta * np.exp(2.0 * r) * sigma_sq / (1.0 - eta)
    else:
        floor = 0.0
    u = np.linspace(-half, half, n) + 1.3e-5
    weight = floor + u**2
    f = weight * np.exp(-(u**2) / (2.0 * sigma_sq))
    norm = np.trapezoid(f, u)
    f /= norm
    fp = (2.0 * u - weight * u / sigma_sq) * np.exp(-(u**2) / (2.0 * sigma_sq)) / norm
    return 2.0 * np.trapezoid(fp**2 / f, u)


def hellinger_sq_exact(density_a, density_b, n=1201, n_sigma=10.0):
    """Continuous squared Hellinger distance by trapezoid quadrature."""
    xs, ys = grid_points(density_a, n, n_sigma)
    pa = np.clip(density_a.grid(xs, ys), 0.0, None)
    pb = np.clip(density_b.grid(xs, ys), 0.0, None)
    integrand = (np.sqrt(pa) - np.sqrt(pb)) ** 2
    return 0.5 * np.trapezoid(np.trapezoid(integrand, ys, axis=1), xs)


# --- binned displaced family -------------------------------------------------
#
# Cells are [k delta, (k + 1) delta) for integer k, the geometry bin_samples
# uses; probabilities come from tensor Gauss-Legendre quadrature of a density
# callable inside every cell. Four nodes per axis reproduce six to 1e-10 for
# bins up to 0.2 on the r = 0.2 state.

CELL_NODES = 4


def _cell_nodes(delta, half_range):
    """Gauss-Legendre abscissae and weights of every cell, shape (cells, nodes)."""
    n_cells = int(round(2.0 * half_range / delta))
    t, w = np.polynomial.legendre.leggauss(CELL_NODES)
    edges = -half_range + delta * np.arange(n_cells + 1)
    xs = edges[:-1, None] + 0.5 * delta * (1.0 + t)
    return edges, xs, np.broadcast_to(0.5 * delta * w, xs.shape)


def _tensor_integrals(density, xs, wx, ys, wy):
    """Sum of density * wx * wy over the nodes of every (x-cell, y-cell) pair,
    evaluated in blocks of x-cells to bound memory."""
    out = np.empty((xs.shape[0], ys.shape[0]))
    flat_y, flat_wy = ys.ravel(), wy.ravel()
    block = 64
    for start in range(0, xs.shape[0], block):
        bx, bw = xs[start:start + block].ravel(), wx[start:start + block].ravel()
        gx, gy = np.meshgrid(bx, flat_y, indexing="ij")
        vals = density(np.column_stack([gx.ravel(), gy.ravel()])).reshape(gx.shape)
        vals = vals * bw[:, None] * flat_wy[None, :]
        out[start:start + block] = vals.reshape(
            -1, xs.shape[1], ys.shape[0], ys.shape[1]).sum(axis=(1, 3))
    return out


def binned_probabilities(density, delta, half_range, shift=(0.0, 0.0)):
    """Cell probabilities of the law of X - shift, X ~ density, on the
    (2 half_range / delta)^2 grid of cells; half_range is a multiple of delta."""
    _, xs, wx = _cell_nodes(delta, half_range)
    return _tensor_integrals(density, xs + shift[0], wx, xs + shift[1], wx)


def fi_binned(density, delta, half_range, direction):
    """Fisher information of the binned family theta -> P_cell(theta), where
    P_cell(theta) is the probability of X - theta d falling in the cell.

    dP_cell/dtheta is the flux of density * d through the cell boundary, so it
    needs only line integrals of the density along the cell edges.
    """
    edges, xs, wx = _cell_nodes(delta, half_range)
    probs = _tensor_integrals(density, xs, wx, xs, wx)
    on_edge, unit = edges[:, None], np.ones((len(edges), 1))
    # [edge i, cell j]: the density integrated along x = edges[i] over y-cell j
    across_x = _tensor_integrals(density, on_edge, unit, xs, wx)
    # [cell i, edge j]: the density integrated along y = edges[j] over x-cell i
    across_y = _tensor_integrals(density, xs, wx, on_edge, unit)
    flux = (direction[0] * np.diff(across_x, axis=0)
            + direction[1] * np.diff(across_y, axis=1))
    keep = probs > 0.0
    return float(np.sum(flux[keep] ** 2 / probs[keep]))


def binned_hellinger_curvature(density, delta, half_range, thetas, direction):
    """8 a of the unweighted least-squares fit c0 + a theta^2 to the squared
    Hellinger distances between the exact binned law and its displaced copies:
    the curvature the sampled estimator converges to as the sample grows."""
    ref = np.sqrt(binned_probabilities(density, delta, half_range))
    d2 = []
    for theta in thetas:
        shifted = binned_probabilities(
            density, delta, half_range,
            shift=(theta * direction[0], theta * direction[1]))
        d2.append(0.5 * np.sum((ref - np.sqrt(shifted)) ** 2))
    thetas = np.asarray(thetas, dtype=float)
    design = np.column_stack([np.ones_like(thetas), thetas**2])
    coef = np.linalg.lstsq(design, np.array(d2), rcond=None)[0]
    return float(8.0 * coef[1])


def binned_witness_reference(r_a, r_b, phi, delta, thetas):
    """Witness the sampled estimator converges to at bin size delta:
    (E_ref, 8 a, Var p_A + Var p_B, half range).

    8 a is binned_hellinger_curvature of the wavefunction density on cells at
    multiples of delta over +-8 standard deviations, displaced along
    x_A = x_B; the variances come from wavefunction_moment.
    """
    density = wavefunction_density(r_a, r_b, phi)

    def moment(**powers):
        return wavefunction_moment(r_a, r_b, phi, **powers)

    var_p = (moment(p_a=2) - moment(p_a=1) ** 2) + (moment(p_b=2) - moment(p_b=1) ** 2)
    spread = np.sqrt(max(moment(x_a=2), moment(x_b=2)))
    half = delta * np.ceil(8 * spread / delta)
    f_fit = binned_hellinger_curvature(density, delta, half, thetas, (1.0, 1.0))
    return f_fit - var_p, f_fit, var_p, half


# --- truncated Fock-space model ------------------------------------------------
#
# Conventions: x = a + a^dagger, p = i (a^dagger - a), so [x, p] = 2i and the
# vacuum has unit quadrature variances; r > 0 squeezes x. A two-mode density
# matrix is a real array rho[m, n, m', n'] (m: mode A, n: mode B).

FOCK_TAIL = 1e-12


def _squeezed_vacuum(r, length):
    """Fock amplitudes of the vacuum squeezed to Var x = e^{-2r}."""
    amps = np.zeros(length)
    amps[0] = 1.0 / np.sqrt(np.cosh(r))
    for n in range(2, length, 2):
        amps[n] = -np.tanh(r) * np.sqrt((n - 1) / n) * amps[n - 2]
    return amps


def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _cutoff(marginal, tail):
    """Smallest N whose photon-number tail, sum over m >= N of (2m + 1) P(m),
    is below tail; the weight bounds the tail's share of <x^2> and <p^2>."""
    weighted = (2.0 * np.arange(len(marginal)) + 1.0) * marginal
    below = np.cumsum(weighted[::-1])[::-1] < tail
    return int(np.argmax(below)) if below.any() else len(marginal)


def fock_subtracted_state(r_a, r_b, phi):
    """(cos phi a + sin phi b) applied to two squeezed vacua, normalized, as an
    amplitude matrix psi[m, n]. Each mode is cut where its (2m + 1)-weighted
    photon-number tail, an upper bound on the tail mass, is below
    FOCK_TAIL / 2."""
    length = 32
    while True:
        vac_a, vac_b = _squeezed_vacuum(r_a, length + 1), _squeezed_vacuum(r_b, length + 1)
        sub_a = (_lowering(length + 1) @ vac_a)[:length]
        sub_b = (_lowering(length + 1) @ vac_b)[:length]
        psi = (np.cos(phi) * np.outer(sub_a, vac_b[:length])
               + np.sin(phi) * np.outer(vac_a[:length], sub_b))
        psi /= np.linalg.norm(psi)
        n_a = _cutoff(np.sum(psi**2, axis=1), FOCK_TAIL / 2)
        n_b = _cutoff(np.sum(psi**2, axis=0), FOCK_TAIL / 2)
        if max(n_a, n_b) <= length // 2:
            psi = psi[:n_a, :n_b]
            return psi / np.linalg.norm(psi)
        length *= 2


def _lose_first_mode(rho, eta):
    """Pure loss with transmissivity 1 - eta on axes 0 and 2 of rho, through
    the Kraus operators <m - k| K_k |m> = sqrt(C(m, k) eta^k (1 - eta)^(m - k))."""
    dim = rho.shape[0]
    m = np.arange(dim)
    out = np.zeros_like(rho)
    for k in range(dim):
        amp = np.sqrt(np.array([math.comb(int(j), k) for j in m[k:]], dtype=float)
                      * eta**k * (1.0 - eta) ** (m[k:] - k))
        out[:dim - k, :, :dim - k, :] += (amp[:, None, None, None] * rho[k:, :, k:, :]
                                          * amp[None, None, :, None])
    return out


def fock_density(r_a, r_b, phi=np.pi / 4, eta=0.0):
    """Density matrix rho[m, n, m', n'] of the subtracted state after uniform
    pure loss eta on both modes."""
    psi = fock_subtracted_state(r_a, r_b, phi)
    rho = np.einsum("ab,cd->abcd", psi, psi)
    if eta > 0.0:
        rho = _lose_first_mode(rho, eta)
        rho = _lose_first_mode(rho.transpose(1, 0, 3, 2), eta).transpose(1, 0, 3, 2)
    return rho


def _reduced(rho):
    """Reduced density matrices (rho_A, rho_B)."""
    return np.einsum("anbn->ab", rho), np.einsum("nanb->ab", rho)


def _antisym_p(dim):
    """Real Q with p = i Q on dim + 1 levels: p|N> reaches |N + 1>, so the
    padded matrix represents p on states supported on the first dim levels."""
    low = _lowering(dim + 1)
    return low.T - low


def fock_p_variances(rho):
    """(Var p_A, Var p_B) of a real two-mode density matrix (<p> = 0 then)."""
    out = []
    for reduced in _reduced(rho):
        dim = reduced.shape[0]
        q = _antisym_p(dim)
        p_sq = (q.T @ q)[:dim, :dim]  # <m| p^2 |m'> = (Q^T Q)_{m m'}
        out.append(float(np.sum(reduced * p_sq)))
    return tuple(out)


def _generator_matrix(kind, levels):
    """Local generator p / 2, N, x^2 / 4 or (x p + p x) / 4 on the first
    levels Fock levels, exact there because x and p act on one level more."""
    low = _lowering(levels + 1)
    x, p = low + low.T, 1j * (low.T - low)
    h = {"displacement": p / 2, "phase": low.T @ low, "shear": x @ x / 4,
         "squeeze": (x @ p + p @ x) / 4}[kind]
    return h[:levels, :levels]


def fock_generator_stats(rho, kind, sign):
    """(Var H_A, Var H_B, Cov(H_A, sign H_B)) of a real two-mode density matrix
    for the local generator of the given kind on each mode. H^2 on the dim
    levels of a mode is exact with H built on dim + 2 levels, so the cutoff is
    padded by two; the local terms use the reduced density matrices."""
    stats = []
    for reduced in _reduced(rho):
        dim = reduced.shape[0]
        h = _generator_matrix(kind, dim + 2)
        h1, h2 = h[:dim, :dim], (h @ h)[:dim, :dim]
        mean = np.sum(reduced.T * h1).real  # tr(rho H) = sum rho_mn H_nm
        stats.append((mean, np.sum(reduced.T * h2).real - mean**2, h1))
    (mean_a, var_a, h_a), (mean_b, var_b, h_b) = stats
    joint = np.einsum("mnkl,km,ln->", rho, h_a, h_b).real
    return var_a, var_b, sign * (joint - mean_a * mean_b)


def fock_displacement_qfi(rho, sign):
    """Quantum Fisher information of rho for G = (p_A + sign p_B) / 2.

    Uses the symmetric-logarithmic-derivative eigen formula
    F_Q = 2 sum_{l_i + l_j > 0} (l_i - l_j)^2 / (l_i + l_j) |G_ij|^2,
    rewritten with the kernel of rho summed in closed form,
    F_Q = 4 sum_i l_i <i|G^2|i> - 8 sum_ij l_i l_j / (l_i + l_j) |G_ij|^2,
    so G v_i is taken on one padded level per mode.
    """
    n_a, n_b = rho.shape[:2]
    dim = n_a * n_b
    lam, vecs = np.linalg.eigh(rho.reshape(dim, dim))
    lam = np.clip(lam, 0.0, None)
    padded = np.zeros((n_a + 1, n_b + 1, dim))
    padded[:n_a, :n_b] = vecs.reshape(n_a, n_b, dim)
    # G = i R with R real antisymmetric, so |G_ij| = |R_ij| and |G v| = |R v|
    r_vecs = 0.5 * (np.einsum("ij,jkd->ikd", _antisym_p(n_a), padded)
                    + sign * np.einsum("kj,ijd->ikd", _antisym_p(n_b), padded))
    g_sq = np.sum(r_vecs**2, axis=(0, 1))
    g_ij = vecs.T @ r_vecs[:n_a, :n_b].reshape(dim, dim)
    total = lam[:, None] + lam[None, :]
    harmonic = np.divide(lam[:, None] * lam[None, :], total,
                         out=np.zeros_like(total), where=total > 0.0)
    return float(4.0 * lam @ g_sq - 8.0 * np.sum(harmonic * g_ij**2))


def _hermite_functions(dim, x):
    """<x|n> for n < dim + 1 (rows) and their x-derivatives for n < dim."""
    psi = np.empty((dim + 1, len(x)))
    psi[0] = np.exp(-x**2 / 4.0) / (2.0 * np.pi) ** 0.25
    psi[1] = x * psi[0]
    for n in range(1, dim):
        psi[n + 1] = (x * psi[n] - np.sqrt(n) * psi[n - 1]) / np.sqrt(n + 1)
    n = np.arange(dim)
    lower = np.vstack([np.zeros((1, len(x))), psi[:dim - 1]])
    dpsi = 0.5 * (np.sqrt(n)[:, None] * lower - np.sqrt(n + 1)[:, None] * psi[1:dim + 1])
    return psi[:dim], dpsi


def fock_displacement_fi(rho, sign):
    """Fisher information of the x-x homodyne density of a mixed state for
    the displacement p(x_A, x_B) -> p(x_A + theta, x_B + sign theta).

    The density is the Hermite-function expansion of rho, integrated with the
    trapezoid rule on 301 points over +-9 standard deviations per axis. A pure
    state has exact zeros where this ratio is 0/0; use it for eta > 0.
    """
    points = 301
    n_a, n_b = rho.shape[:2]
    axes = []
    for reduced in _reduced(rho):
        dim = reduced.shape[0]
        low = _lowering(dim + 1)
        x_sq = ((low + low.T) @ (low + low.T))[:dim, :dim]
        half = 9.0 * np.sqrt(np.sum(reduced * x_sq))
        grid = np.linspace(-half, half, points) + 1.3e-3 * half
        psi, dpsi = _hermite_functions(dim, grid)
        pair = np.einsum("mg,ng->mng", psi, psi).reshape(dim * dim, points)
        dpair = (np.einsum("mg,ng->mng", dpsi, psi)
                 + np.einsum("mg,ng->mng", psi, dpsi)).reshape(dim * dim, points)
        axes.append((grid[1] - grid[0], pair, dpair))
    (h_a, pair_a, dpair_a), (h_b, pair_b, dpair_b) = axes
    coupling = rho.transpose(0, 2, 1, 3).reshape(n_a * n_a, n_b * n_b)
    left = coupling.T @ pair_a
    dens = left.T @ pair_b
    deriv = (coupling.T @ dpair_a).T @ pair_b + sign * left.T @ dpair_b
    # below 1e-14 of the peak the expansion is at roundoff and carries nothing
    keep = dens > 1e-14 * dens.max()
    return float(np.sum(deriv[keep]**2 / dens[keep]) * h_a * h_b)


# --- adaptive 2-D quadrature and finite-difference Fisher information ----------
#
# The package integrates the Fisher information along rays in closed form and
# over the angle with a periodic rule, from exact parameter derivatives. The
# reference here integrates the central-difference integrand of three density
# callables over a box with adaptive tensor Gauss-Legendre panels.

PANEL_ORDERS = (15, 7)
_PANEL_NODES = {order: np.polynomial.legendre.leggauss(order) for order in PANEL_ORDERS}
PANEL_SHIM = (3.7e-4, 1.1e-4)  # box offsets breaking alignment with nodal lines


class PanelBudgetError(RuntimeError):
    """integrate_panels used up its panel budget before reaching the tolerance."""

    def __init__(self, achieved_tol):
        super().__init__(f"panel budget exhausted at relative tolerance {achieved_tol:.3e}")
        self.achieved_tol = achieved_tol


def _panel_integrals(f, cx, cy, hx, hy, order_x, order_y):
    """Tensor Gauss-Legendre integrals over panels given centres and half-widths (P,)."""
    nodes_x, weights_x = _PANEL_NODES[order_x]
    nodes_y, weights_y = _PANEL_NODES[order_y]
    px = cx[:, None, None] + hx[:, None, None] * nodes_x[None, :, None]
    py = cy[:, None, None] + hy[:, None, None] * nodes_y[None, None, :]
    px, py = np.broadcast_arrays(px, py)
    vals = f(np.column_stack([px.ravel(), py.ravel()])).reshape(px.shape)
    return hx * hy * np.einsum("i,j,pij->p", weights_x, weights_y, vals)


def integrate_panels(f, box, rel_tol=1e-6, max_panels=20000, initial_split=4):
    """Integrate f, which takes (N, 2) points, over box = (x0, x1, y0, y1).
    Returns (value, error_estimate).

    The difference of the 15- and 7-point tensor rules is each panel's error
    proxy; the worst panels are split until the summed proxy meets rel_tol.
    A panel is split only along the direction that mixed-order rules show to
    be underresolved, so narrow axis-aligned trenches are drilled into at
    logarithmic cost. Raises PanelBudgetError at max_panels.
    """
    hi, lo = PANEL_ORDERS
    x0, x1, y0, y1 = box
    hx0, hy0 = (x1 - x0) / (2 * initial_split), (y1 - y0) / (2 * initial_split)
    ix, iy = np.meshgrid(np.arange(initial_split), np.arange(initial_split), indexing="ij")
    cx = x0 + hx0 * (2 * ix.ravel() + 1.0)
    cy = y0 + hy0 * (2 * iy.ravel() + 1.0)
    hx, hy = np.full(cx.shape, hx0), np.full(cy.shape, hy0)

    def evaluate(cx_, cy_, hx_, hy_):
        fine = _panel_integrals(f, cx_, cy_, hx_, hy_, hi, hi)
        return fine, np.abs(fine - _panel_integrals(f, cx_, cy_, hx_, hy_, lo, lo))

    vals, errs = evaluate(cx, cy, hx, hy)
    while True:
        total, err = vals.sum(), errs.sum()
        if err <= rel_tol * max(abs(total), 1e-12):
            return float(total), float(err)
        if len(vals) >= max_panels:
            raise PanelBudgetError(err / max(abs(total), 1e-12))
        worst = np.argpartition(errs, -min(8, len(vals)))[-min(8, len(vals)):]
        # directional error probes decide whether to halve in x, in y, or both
        args = (cx[worst], cy[worst], hx[worst], hy[worst])
        err_y = np.abs(_panel_integrals(f, *args, hi, lo) - vals[worst])
        err_x = np.abs(_panel_integrals(f, *args, lo, hi) - vals[worst])
        new = []
        for pos, idx in enumerate(worst):
            split_x = err_x[pos] > 0.25 * err_y[pos]
            split_y = err_y[pos] > 0.25 * err_x[pos]
            for dx in ((-0.5, 0.5) if split_x else (0.0,)):
                for dy in ((-0.5, 0.5) if split_y else (0.0,)):
                    new.append((cx[idx] + dx * hx[idx], cy[idx] + dy * hy[idx],
                                hx[idx] * (0.5 if split_x else 1.0),
                                hy[idx] * (0.5 if split_y else 1.0)))
        ncx, ncy, nhx, nhy = map(np.array, zip(*new))
        new_vals, new_errs = evaluate(ncx, ncy, nhx, nhy)
        keep = np.setdiff1d(np.arange(len(vals)), worst)
        cx, cy = np.concatenate([cx[keep], ncx]), np.concatenate([cy[keep], ncy])
        hx, hy = np.concatenate([hx[keep], nhx]), np.concatenate([hy[keep], nhy])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def fi_central_difference(pdf_minus, pdf0, pdf_plus, step, rel_tol=1e-9, n_sigma=10.0):
    """Fisher information of a one-parameter family of measured densities
    from the central difference (pdf_plus - pdf_minus) / (2 step).

    The densities are callables on (N, 2) points; pdf0 also provides mean,
    sigma, t and covariance(). The integrand is integrated with
    integrate_panels over +-n_sigma standard deviations in the eigenframe of
    sigma^-1 t sigma^-1, the quadratic form of pdf0's polynomial, where
    near-nodal trenches are axis aligned.
    """
    sig_inv = np.linalg.inv(pdf0.sigma)
    _, frame = np.linalg.eigh(sig_inv @ pdf0.t @ sig_inv)
    spread = np.sqrt(np.einsum("ij,jk,ik->i", frame.T, pdf0.covariance(), frame.T))
    half = n_sigma * spread

    def integrand(points):
        pts = pdf0.mean + points @ frame.T
        dens = pdf0(pts)
        deriv = (pdf_plus(pts) - pdf_minus(pts)) / (2.0 * step)
        safe = np.where(dens > 0, dens, 1.0)
        return np.where(dens < 1e-300, 0.0, deriv * deriv / safe)

    box = (-half[0] * (1 - PANEL_SHIM[0]), half[0] * (1 + PANEL_SHIM[0]),
           -half[1] * (1 - PANEL_SHIM[1]), half[1] * (1 + PANEL_SHIM[1]))
    value, _ = integrate_panels(integrand, box, rel_tol=rel_tol)
    return value
