import numpy as np
import pytest

from ngwsim import (
    GeneratorSpec,
    P_BASIS,
    QuadratureBasis,
    StateSpec,
    X_BASIS,
    build_state,
    evolve,
    generator_covariance,
    generator_total_variance,
    generator_variance,
    measurement_pdf,
    quad_moment,
)

from oracles import grid_moment, wavefunction_moment
from test_state import random_specs


SYM = build_state(StateSpec(0.2, 0.2))


class TestMomentValues:
    def test_first_moments_vanish(self):
        for spec in random_specs(5, seed=1):
            state = build_state(spec)
            assert abs(quad_moment(state, x_a=1)) < 1e-12
            assert abs(quad_moment(state, p_b=1)) < 1e-12

    def test_pp_cross_moment(self):
        assert abs(quad_moment(SYM, p_a=1, p_b=1) - np.exp(0.4)) < 1e-12

    def test_xa_squared(self):
        assert abs(quad_moment(SYM, x_a=2) - 2 * np.exp(-0.4)) < 1e-12

    def test_against_wavefunction_oracle(self):
        combos = [
            dict(x_a=2), dict(p_a=2), dict(x_b=2), dict(p_b=2),
            dict(p_a=1, p_b=1), dict(x_a=1, x_b=1), dict(x_a=1, p_b=1),
            dict(x_a=2, x_b=2), dict(p_a=2, p_b=2), dict(x_a=4), dict(p_b=4),
            dict(x_a=2, p_b=2), dict(x_a=1, p_b=3),
        ]
        for spec in random_specs(6, seed=2):
            state = build_state(spec)
            for combo in combos:
                mine = quad_moment(state, **combo)
                ref = wavefunction_moment(spec.r_a, spec.r_b, spec.phi_sub, **combo)
                assert abs(mine - ref) < 1e-8, (spec, combo)

    def test_against_grid_quadrature(self):
        for spec in random_specs(4, seed=4):
            state = build_state(spec)
            pdf_x = measurement_pdf(state, X_BASIS)
            pdf_p = measurement_pdf(state, P_BASIS)
            pdf_xp = measurement_pdf(state, QuadratureBasis(0.0, np.pi / 2))
            checks = [
                (quad_moment(state, x_a=2), grid_moment(pdf_x, 2, 0)),
                (quad_moment(state, x_a=1, x_b=1), grid_moment(pdf_x, 1, 1)),
                (quad_moment(state, x_a=2, x_b=2), grid_moment(pdf_x, 2, 2)),
                (quad_moment(state, p_a=2), grid_moment(pdf_p, 2, 0)),
                (quad_moment(state, p_a=1, p_b=1), grid_moment(pdf_p, 1, 1)),
                (quad_moment(state, p_a=4), grid_moment(pdf_p, 4, 0)),
                (quad_moment(state, x_a=1, p_b=1), grid_moment(pdf_xp, 1, 1)),
                (quad_moment(state, x_a=2, p_b=2), grid_moment(pdf_xp, 2, 2)),
            ]
            for mine, ref in checks:
                assert abs(mine - ref) < 1e-6

    def test_same_mode_mixed_via_rotated_marginal(self):
        # Var of the 45-degree quadrature encodes the Weyl <x p> moment
        for spec in random_specs(4, seed=6):
            state = build_state(spec)
            pdf = measurement_pdf(state, QuadratureBasis(np.pi / 4, 0.0))
            var_rot = grid_moment(pdf, 2, 0)
            expect = 0.5 * (quad_moment(state, x_a=2) + quad_moment(state, p_a=2)) \
                + quad_moment(state, x_a=1, p_a=1)
            assert abs(var_rot - expect) < 1e-6

    def test_odd_moments_vanish(self):
        state = build_state(StateSpec(0.3, -0.5, 0.7))
        assert abs(quad_moment(state, x_a=1, x_b=2)) < 1e-10
        assert abs(quad_moment(state, p_a=3)) < 1e-10
        assert abs(quad_moment(state, x_a=1, p_a=1, x_b=1)) < 1e-10

    def test_order_cap(self):
        with pytest.raises(ValueError):
            quad_moment(SYM, x_a=3, p_b=2)
        with pytest.raises(ValueError):
            quad_moment(SYM, x_a=5)

    def test_displaced_state_mean(self):
        moved = evolve(SYM, GeneratorSpec("displacement", -1), 0.2)
        assert abs(quad_moment(moved, x_a=1) + 0.2) < 1e-12
        assert abs(quad_moment(moved, x_b=1) - 0.2) < 1e-12
        # second moments about zero gain the mean-square shift
        assert abs(quad_moment(moved, x_a=2)
                   - (2 * np.exp(-0.4) + 0.04)) < 1e-12


class TestGeneratorStatistics:
    def test_displacement_local_variance(self):
        gen = GeneratorSpec("displacement", +1)
        assert abs(generator_variance(SYM, gen, "A") - np.exp(0.4) / 2) < 1e-12

    def test_displacement_covariance(self):
        gen = GeneratorSpec("displacement", +1)
        assert abs(generator_covariance(SYM, gen) - np.exp(0.4) / 4) < 1e-12
        assert abs(8 * generator_covariance(SYM, gen) - 2 * np.exp(0.4)) < 1e-12

    def test_shear_variance_matches_grid(self):
        gen = GeneratorSpec("shear", -1)
        for spec in random_specs(10, seed=8):
            state = build_state(spec)
            pdf = measurement_pdf(state)
            ref = (grid_moment(pdf, 4, 0) - grid_moment(pdf, 2, 0) ** 2) / 16.0
            assert abs(generator_variance(state, gen, "A") - ref) < 1e-8

    def test_squeeze_variance_finite(self):
        gen = GeneratorSpec("squeeze", +1)
        for spec in random_specs(5, seed=9):
            value = generator_variance(build_state(spec), gen, "A")
            assert np.isfinite(value) and value > 0

    def test_squeeze_covariance_zero(self):
        for sign in (+1, -1):
            gen = GeneratorSpec("squeeze", sign)
            for spec in random_specs(10, seed=10, eta=True):
                state = build_state(spec)
                assert abs(8 * generator_covariance(state, gen)) < 1e-9

    def test_phase_covariance_closed_form(self):
        gen = GeneratorSpec("phase", -1)
        assert abs(8 * generator_covariance(SYM, gen) - 2 * np.cosh(0.4) ** 2) < 1e-9

    def test_qfi_anchors(self):
        # pure-state 4 Var(H) values for the symmetric probes
        assert abs(4 * generator_total_variance(SYM, GeneratorSpec("displacement", +1))
                   - 6 * np.exp(0.4)) < 1e-10
        assert abs(4 * generator_total_variance(SYM, GeneratorSpec("phase", -1))
                   - (2 * np.cosh(0.4) ** 2 + 5 * np.cosh(0.8) - 3)) < 1e-10
        sheared = build_state(StateSpec(-0.2, -0.2))
        assert abs(4 * generator_total_variance(sheared, GeneratorSpec("shear", -1))
                   - 3 * np.exp(0.8)) < 1e-10
