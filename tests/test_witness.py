import numpy as np
import pytest

from ngwsim import (
    DegenerateStateError,
    GeneratorSpec,
    StateSpec,
    UnphysicalCovarianceError,
    build_state,
    displacement_ridge_r_b,
    displacement_ridge_value,
    eq_displacement,
    eq_phase,
    eq_shear,
    eq_squeeze,
    gaussian_separability_check,
    generator_covariance,
    shear_ridge_r_b,
    shear_ridge_value,
    witness_value,
)
from ngwsim.gaussian import check_physical

from oracles import tmsv_covariance
from test_state import random_specs


class TestClosedForms:
    def test_displacement_symmetric(self):
        assert abs(eq_displacement(0.2, 0.2) - 2 * np.exp(0.4)) < 1e-12

    def test_displacement_delta_quarter_pi(self):
        assert abs(eq_displacement(0.4, 0.1, np.pi / 4, +1, np.pi / 4)) < 1e-12
        assert abs(eq_displacement(0.4, 0.1, np.pi / 4, -1, np.pi / 4)) < 1e-12

    def test_displacement_general_phi(self):
        # independently cross-checked against the moment engine below
        assert abs(eq_displacement(0.3, 0.1, np.pi / 3) - 2.5667) < 2e-4

    def test_displacement_sign_antisymmetry(self):
        for spec in random_specs(10, seed=1):
            plus = eq_displacement(spec.r_a, spec.r_b, spec.phi_sub, +1)
            minus = eq_displacement(spec.r_a, spec.r_b, spec.phi_sub, -1)
            assert abs(plus + minus) < 1e-12

    def test_phase_values(self):
        assert abs(eq_phase(0.2, 0.2, -1) - 2 * np.cosh(0.4) ** 2) < 1e-12
        assert abs(eq_phase(0.2, 0.2, +1) + 2 * np.cosh(0.4) ** 2) < 1e-12

    def test_phase_squeezing_sign_invariance(self):
        assert abs(eq_phase(0.2, -0.2, -1) - eq_phase(0.2, 0.2, -1)) < 1e-12
        assert abs(eq_phase(-0.3, 0.5, -1) - eq_phase(0.3, 0.5, -1)) < 1e-12

    def test_shear_values(self):
        assert abs(eq_shear(-0.2, -0.2, -1) - np.exp(0.8) / 2) < 1e-12
        assert abs(eq_shear(0.2, 0.2, -1) - np.exp(-0.8) / 2) < 1e-12

    def test_shear_plus_never_detects(self):
        for spec in random_specs(20, seed=2):
            assert eq_shear(spec.r_a, spec.r_b, +1, spec.phi_sub) <= 1e-15

    def test_squeeze_zero(self):
        assert eq_squeeze() == 0.0

    def test_degenerate_error(self):
        with pytest.raises(DegenerateStateError):
            eq_displacement(0.0, 0.0)
        with pytest.raises(DegenerateStateError):
            eq_phase(0.0, 0.3, -1, phi_sub=0.0)


class TestMomentEquivalence:
    def test_closed_forms_equal_8cov_50_random(self):
        for spec in random_specs(50, seed=5):
            state = build_state(spec)
            args = (spec.r_a, spec.r_b)
            cases = [
                (GeneratorSpec("displacement", +1), eq_displacement(*args, spec.phi_sub, +1)),
                (GeneratorSpec("displacement", -1, 0.3),
                 eq_displacement(*args, spec.phi_sub, -1, 0.3)),
                (GeneratorSpec("phase", -1), eq_phase(*args, -1, spec.phi_sub)),
                (GeneratorSpec("phase", +1), eq_phase(*args, +1, spec.phi_sub)),
                (GeneratorSpec("shear", -1), eq_shear(*args, -1, spec.phi_sub)),
                (GeneratorSpec("squeeze", +1), 0.0),
                (GeneratorSpec("squeeze", -1), 0.0),
            ]
            for gen, closed in cases:
                assert abs(8 * generator_covariance(state, gen) - closed) < 1e-8

    def test_delta_scan_optimal_at_zero(self):
        # balanced displacement is optimal; the witness follows cos(2 delta)
        base = eq_displacement(0.2, 0.2)
        deltas = np.linspace(0.0, np.pi, 181)
        values = np.array([eq_displacement(0.2, 0.2, np.pi / 4, +1, d) for d in deltas])
        assert np.all(np.abs(values) <= abs(base) + 1e-12)
        assert np.max(np.abs(values - base * np.cos(2 * deltas))) < 1e-12


class TestWitnessAssembly:
    def test_displacement_assembly(self):
        value = witness_value(8.951, 0.7459, 0.7459)
        assert abs(value - 2.9838) < 1e-3

    def test_boundary(self):
        assert witness_value(4.0 * (0.3 + 0.9), 0.3, 0.9) == 0.0

    def test_below_bound_negative(self):
        assert witness_value(1.0, 0.5, 0.5) < 0


class TestRidges:
    def test_displacement_ridge_matches_numeric_maximum(self):
        for r_a in (0.1, 0.3, 0.6):
            grid = np.linspace(-2.0, -1e-4, 200001)
            values = np.array([eq_displacement(r_a, rb, np.pi / 4, -1) for rb in grid])
            best = grid[np.argmax(values)]
            assert abs(best - displacement_ridge_r_b(r_a)) < 1e-4
            assert abs(values.max() - displacement_ridge_value(r_a)) < 1e-7

    def test_shear_ridge_matches_numeric_maximum(self):
        for r_a in (0.1, 0.3, 0.45):
            grid = np.linspace(-3.0, -1e-4, 300001)
            values = np.array([eq_shear(r_a, rb, -1) for rb in grid])
            best = grid[np.argmax(values)]
            assert abs(best - shear_ridge_r_b(r_a)) < 1e-4
            assert abs(values.max() - shear_ridge_value(r_a)) < 1e-7

    def test_ridge_domain_errors(self):
        with pytest.raises(ValueError):
            shear_ridge_r_b(0.6)
        with pytest.raises(ValueError):
            displacement_ridge_r_b(-1.0)


class TestSeparability:
    def test_subtracted_states_never_detected(self):
        for spec in random_specs(50, seed=7):
            verdict = gaussian_separability_check(build_state(spec).second_moments())
            assert not verdict.detected

    def test_two_mode_squeezed_vacuum_detected(self):
        verdict = gaussian_separability_check(tmsv_covariance(0.5))
        assert verdict.detected
        assert verdict.nu_pt_min < 1.0

    def test_vacuum_undetected(self):
        assert not gaussian_separability_check(np.eye(4)).detected

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalCovarianceError):
            gaussian_separability_check(0.5 * np.eye(4))

    def test_uncertainty_bound_slack_is_1e9(self):
        # mode A's symplectic eigenvalue is nu
        check_physical(np.diag([1.0 - 1e-10, 1.0 - 1e-10, 1.0, 1.0]))
        with pytest.raises(UnphysicalCovarianceError, match="uncertainty bound"):
            check_physical(np.diag([1.0 - 1e-8, 1.0 - 1e-8, 1.0, 1.0]))
