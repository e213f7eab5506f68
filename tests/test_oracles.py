"""Checks of the binned-family and Fock-space oracles against closed forms
and against the package where the two must agree."""

import math

import numpy as np
import pytest

from ngwsim import (
    GeneratorSpec,
    StateSpec,
    apply_loss,
    build_state,
    default_theta_grid,
    fi_continuous,
    generator_covariance,
    generator_variance,
    squeezing_r,
)

from oracles import (
    PanelBudgetError,
    binned_hellinger_curvature,
    binned_probabilities,
    binned_witness_reference,
    fi_binned,
    fi_lossy_symmetric_1d,
    fi_lossy_symmetric_exact,
    fock_density,
    fock_displacement_fi,
    fock_displacement_qfi,
    fock_generator_stats,
    fock_p_variances,
    integrate_panels,
    split_halves_hellinger_sq,
    vnoisy_reference,
    wavefunction_coeffs,
    wavefunction_density,
)

F_CONTINUOUS = 6 * np.exp(0.4)  # displacement FI = QFI of StateSpec(0.2, 0.2)
LOSSY_SPECS = [StateSpec(0.3, -0.5, 0.6), StateSpec(squeezing_r(-2.0), squeezing_r(6.0))]


def lossy_state(spec, eta):
    state = build_state(spec)
    return apply_loss(state, eta) if eta > 0 else state


class TestFockOracle:
    def test_pure_qfi_closed_form(self):
        rho = fock_density(0.2, 0.2)
        assert abs(fock_displacement_qfi(rho, +1) - F_CONTINUOUS) < 1e-10

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6])
    def test_lossy_variances(self, eta):
        gen = GeneratorSpec("displacement", +1)
        for spec in LOSSY_SPECS:
            var_pa, var_pb = fock_p_variances(
                fock_density(spec.r_a, spec.r_b, spec.phi_sub, eta))
            v = ((1 - eta) * vnoisy_reference(spec.r_a, spec.r_b, spec.phi_sub)
                 + eta * np.eye(4))
            assert abs(var_pa - v[1, 1]) < 1e-10 * v[1, 1]
            assert abs(var_pb - v[3, 3]) < 1e-10 * v[3, 3]
            state = lossy_state(spec, eta)
            # H_A = p_A / 2, so Var H_A = Var p_A / 4
            assert abs(var_pa / 4 - generator_variance(state, gen, "A")) < 1e-10
            assert abs(var_pb / 4 - generator_variance(state, gen, "B")) < 1e-10

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6])
    def test_generator_statistics(self, eta):
        # Var H_A, Var H_B and Cov(H_A, H_B) of all four generators, which
        # checks the operator-ordering term of the squeeze and phase variances
        for spec in LOSSY_SPECS:
            rho = fock_density(spec.r_a, spec.r_b, spec.phi_sub, eta)
            state = lossy_state(spec, eta)
            for kind in ("displacement", "phase", "shear", "squeeze"):
                for sign in (+1, -1):
                    gen = GeneratorSpec(kind, sign)
                    mine = (generator_variance(state, gen, "A"),
                            generator_variance(state, gen, "B"),
                            generator_covariance(state, gen))
                    for value, ref in zip(mine, fock_generator_stats(rho, kind, sign)):
                        assert abs(value - ref) < 1e-8, (spec, kind, sign)

    def test_homodyne_fi_matches_package(self):
        for spec, eta in zip(LOSSY_SPECS, (0.1, 0.6)):
            rho = fock_density(spec.r_a, spec.r_b, spec.phi_sub, eta)
            for sign in (+1, -1):
                fi = fi_continuous(lossy_state(spec, eta), GeneratorSpec("displacement", sign))
                assert abs(fock_displacement_fi(rho, sign) / fi - 1.0) < 1e-6

    def test_weak_squeezing_ceiling(self):
        # as r -> 0 the state tends to (|10> + |01>)/sqrt2, whose lossy QFI
        # ceiling is 2 (1 - eta)(1 - 4 eta); the correction is first order in r
        for eta in (0.1, 0.3, 0.6):
            rho = fock_density(1e-4, 1e-4, eta=eta)
            ceiling = fock_displacement_qfi(rho, +1) - sum(fock_p_variances(rho))
            assert abs(ceiling - 2 * (1 - eta) * (1 - 4 * eta)) < 1e-3


class TestBinnedOracle:
    STATE = (0.2, 0.2, np.pi / 4)

    def test_binned_fi_rises_to_continuous(self):
        values = np.array([fi_binned(*self.STATE, delta, 8.0, (1.0, 1.0))
                           for delta in (0.2, 0.1, 0.05)])
        deficit = F_CONTINUOUS - values
        assert np.all(deficit > 0) and np.all(np.diff(deficit) < 0)
        # the deficit is linear in the bin size, so it halves with the bin
        assert np.all(np.abs(deficit[1:] / deficit[:-1] - 0.5) < 0.01)
        assert abs(2 * values[2] - values[1] - F_CONTINUOUS) < 2e-3

    def test_small_theta_curvature_is_binned_fi(self):
        thetas = np.linspace(-1e-3, 1e-3, 10)
        curvature = binned_hellinger_curvature(*self.STATE, 0.1, 8.0, thetas, (1.0, 1.0))
        assert abs(curvature / fi_binned(*self.STATE, 0.1, 8.0, (1.0, 1.0)) - 1.0) < 1e-4

    def test_matches_cell_quadrature_references(self):
        # values of tensor 4-point Gauss-Legendre quadrature inside every cell
        for delta, expected in ((0.2, 7.7153599050725346), (0.1, 8.333188874998712),
                                (0.05, 8.642534748749057)):
            assert abs(fi_binned(*self.STATE, delta, 8.0, (1.0, 1.0)) / expected - 1.0) < 1e-9
        for delta, expected in ((0.1, (2.4066445350577794, 8.373943325622863)),
                                (0.02, (2.676997908358487, 8.64429669892357))):
            values = binned_witness_reference(*self.STATE, delta, default_theta_grid())[:2]
            assert np.all(np.abs(np.array(values) / expected - 1.0) < 1e-9)

    @pytest.mark.parametrize("state", [STATE, (0.5, -0.3, 1.0)])
    @pytest.mark.parametrize("delta", [0.1, 0.02])
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.013, -0.0071)])
    def test_cells_match_panel_quadrature(self, state, delta, shift):
        # the closed-form cells against the density integrated cell by cell,
        # on cells the nodal line alpha x_A + beta x_B = 0 and the diagonal
        # x_A = x_B cross. On the nodal line the three terms cancel, which
        # scales the ~1e-14 rounding of the edge differences by (x_A / delta)^2:
        # cells within 0.3 of the origin agree to 1e-10 relative, farther
        # ones (1e-9 at x_A = 1, bin 0.02) to 1e-16 of the unit total.
        _, _, alpha, beta = wavefunction_coeffs(*state)
        half = 4.0
        probs = binned_probabilities(*state, delta, half, shift)
        density = wavefunction_density(*state)
        edges = -half + delta * np.arange(probs.shape[0] + 1)
        xs = np.linspace(-1.0, 1.0, 21)
        for ys in (-alpha / beta * xs, xs):
            for x, y in zip(xs, ys):
                i, j = np.floor((np.array([x, y]) - shift + half) / delta).astype(int)
                box = (edges[i] + shift[0], edges[i + 1] + shift[0],
                       edges[j] + shift[1], edges[j + 1] + shift[1])
                value, _ = integrate_panels(density, box, rel_tol=1e-13)
                tol = 1e-10 * value if abs(x) < 0.3 + 1e-9 else 1e-16
                assert abs(probs[i, j] - value) < tol

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_split_halves_expectation_matches_full_binomial_sum(self, n):
        # against every count 0..n with exact binomial coefficients, on cells
        # of probability 2e-32 to 0.026
        probs = binned_probabilities(*self.STATE, 0.4, 7.2)
        roots = [sum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * math.sqrt(k / n)
                     for k in range(n + 1)) for p in probs.ravel().tolist()]
        expected = 1.0 - sum(r * r for r in roots)
        assert abs(split_halves_hellinger_sq(probs, n) - expected) < 1e-12


class TestPanelQuadrature:
    """The adaptive 2-D panel integrator behind fi_central_difference."""

    def test_gaussian_normalization(self):
        def gauss(pts):
            return np.exp(-0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)) / (2 * np.pi)

        value, err = integrate_panels(gauss, (-10, 10, -10, 10), rel_tol=1e-8)
        assert abs(value - 1.0) < 1e-8
        assert err < 1e-8

    def test_polynomial_times_gaussian(self):
        # E[x^2 y^4] for independent standard normals = 3
        def f(pts):
            g = np.exp(-0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)) / (2 * np.pi)
            return pts[:, 0] ** 2 * pts[:, 1] ** 4 * g

        value, _ = integrate_panels(f, (-12, 12, -12, 12), rel_tol=1e-9)
        assert abs(value - 3.0) < 1e-8

    def test_anisotropic_box(self):
        def f(pts):
            return np.exp(-0.5 * (pts[:, 0] ** 2 / 9 + pts[:, 1] ** 2)) / (2 * np.pi * 3)

        value, _ = integrate_panels(f, (-30, 30, -10, 10), rel_tol=1e-8)
        assert abs(value - 1.0) < 1e-7

    def test_budget_exhaustion_raises(self):
        def oscillatory(pts):
            g = np.exp(-0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 9)
            return np.cos(40 * pts[:, 0]) ** 2 * np.cos(40 * pts[:, 1]) ** 2 * g

        with pytest.raises(PanelBudgetError) as err:
            integrate_panels(oscillatory, (-10, 10, -10, 10), rel_tol=1e-10, max_panels=20)
        assert err.value.achieved_tol > 1e-10


class TestLossyRotatedModeOracle:
    @pytest.mark.parametrize("r,eta", [(0.2, 0.1), (0.5, 0.3), (-0.3, 0.9)])
    def test_closed_form_matches_trapezoid(self, r, eta):
        assert abs(fi_lossy_symmetric_exact(r, eta) / fi_lossy_symmetric_1d(r, eta) - 1.0) < 1e-12

    def test_lossless_limit(self):
        assert abs(fi_lossy_symmetric_exact(0.2, 0.0) - F_CONTINUOUS) < 1e-13
