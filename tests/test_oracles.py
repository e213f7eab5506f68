"""Checks of the binned-family and Fock-space oracles against closed forms
and against the package where the two must agree."""

import numpy as np
import pytest

from ngwsim import (
    GeneratorSpec,
    StateSpec,
    apply_loss,
    build_state,
    fi_continuous,
    generator_variance,
    squeezing_r,
)

from oracles import (
    PanelBudgetError,
    binned_hellinger_curvature,
    fi_binned,
    fock_density,
    fock_displacement_fi,
    fock_displacement_qfi,
    fock_p_variances,
    integrate_panels,
    vnoisy_reference,
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
    DENSITY = staticmethod(wavefunction_density(0.2, 0.2, np.pi / 4))

    def test_binned_fi_rises_to_continuous(self):
        values = np.array([fi_binned(self.DENSITY, delta, 8.0, (1.0, 1.0))
                           for delta in (0.2, 0.1, 0.05)])
        deficit = F_CONTINUOUS - values
        assert np.all(deficit > 0) and np.all(np.diff(deficit) < 0)
        # the deficit is linear in the bin size, so it halves with the bin
        assert np.all(np.abs(deficit[1:] / deficit[:-1] - 0.5) < 0.01)
        assert abs(2 * values[2] - values[1] - F_CONTINUOUS) < 2e-3

    def test_small_theta_curvature_is_binned_fi(self):
        thetas = np.linspace(-1e-3, 1e-3, 10)
        curvature = binned_hellinger_curvature(self.DENSITY, 0.1, 8.0, thetas, (1.0, 1.0))
        assert abs(curvature / fi_binned(self.DENSITY, 0.1, 8.0, (1.0, 1.0)) - 1.0) < 1e-4


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
