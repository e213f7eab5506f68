import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngwsim import (
    GeneratorSpec,
    NONLOCAL_SATURATING_BASIS,
    P_BASIS,
    QuadratureBasis,
    StateSpec,
    X_BASIS,
    apply_loss,
    build_state,
    evolve,
    fi_continuous,
    measurement_pdf,
    optimize_angles,
    qfi_pure,
    saturation_check,
)
from ngwsim.estimator import _mixture

from oracles import fi_central_difference, fi_lossy_symmetric_1d
from test_state import random_specs

DISP = GeneratorSpec("displacement", +1)
PANEL_GENERATORS = (
    ("displacement", +1, StateSpec(0.2, 0.2)),
    ("phase", -1, StateSpec(0.3, -0.5, 0.6)),
    ("shear", -1, StateSpec(-0.2, -0.4)),
    ("squeeze", +1, StateSpec(0.4, 0.1, 1.0)),
)


def panel_oracle_fi(state, gen, basis, step=1e-4, theta0=0.0):
    """FI at theta0 from the central difference of three measured densities,
    integrated by the adaptive 2-D panel oracle."""
    pdfs = [measurement_pdf(evolve(state, gen, theta0 + t), basis) for t in (-step, 0.0, step)]
    return fi_central_difference(*pdfs, step)


class TestDisplacementFI:
    def test_symmetric_value_and_saturation(self):
        state = build_state(StateSpec(0.2, 0.2))
        fi = fi_continuous(state, DISP)
        assert abs(fi - 6 * np.exp(0.4)) < 1e-5
        assert abs(fi / qfi_pure(state, DISP) - 1.0) < 1e-6

    def test_saturation_random_specs(self):
        rng = np.random.default_rng(21)
        for spec in random_specs(3, seed=21):
            sign = int(rng.choice([-1, 1]))
            gen = GeneratorSpec("displacement", sign)
            state = build_state(spec)
            fi = fi_continuous(state, gen)
            assert abs(fi / qfi_pure(state, gen) - 1.0) < 1e-5

    def test_theta0_invariance(self):
        state = build_state(StateSpec(0.2, 0.2))
        f0 = fi_continuous(state, DISP, theta0=0.0)
        f1 = fi_continuous(state, DISP, theta0=0.3)
        assert abs(f0 - f1) < 1e-8 * f0

    def test_lossy_value_matches_1d_oracle(self):
        r, eta = 0.2, 0.1
        state = apply_loss(build_state(StateSpec(r, r)), eta)
        fi = fi_continuous(state, DISP)
        assert abs(fi - fi_lossy_symmetric_1d(r, eta)) < 1e-6


class TestDerivativePaths:
    """fi_continuous (exact derivatives, polar quadrature) against the
    central-difference FI integrated by the 2-D panel oracle."""

    @pytest.mark.parametrize("kind,sign,basis", [
        ("displacement", +1, QuadratureBasis(0.0, 0.0)),
        ("phase", -1, QuadratureBasis(0.41, 2.73)),
        ("shear", -1, QuadratureBasis(1.1, 2.04)),
        ("squeeze", -1, QuadratureBasis(0.3, 1.2)),
    ])
    def test_fd_matches_analytic(self, kind, sign, basis):
        state = build_state(StateSpec(0.2, 0.2) if kind != "shear" else StateSpec(-0.2, -0.2))
        gen = GeneratorSpec(kind, sign)
        exact = fi_continuous(state, gen, basis)
        for step in (1e-4, 1e-5):
            approx = panel_oracle_fi(state, gen, basis, step)
            assert abs(approx / exact - 1.0) < 1e-6

    @pytest.mark.parametrize("kind,sign,spec,eta,basis", [
        *[(kind, sign, spec, eta, basis)
          for kind, sign, spec in PANEL_GENERATORS
          for eta, basis in ((1e-4, QuadratureBasis(0.41, 2.73)),
                             (1e-3, QuadratureBasis(0.41, 2.73)),
                             (1e-4, X_BASIS),
                             (0.0, QuadratureBasis(0.3, 1.2, 0.7)))],
        # x-x and p-p points of the benchmark's angle maps, where the FI is 0
        *[(kind, -1, StateSpec(r, r), 0.0, basis)
          for kind, r in (("shear", -0.2), ("phase", 0.2))
          for basis in (X_BASIS, P_BASIS)],
    ])
    def test_matches_panel_oracle(self, kind, sign, spec, eta, basis, theta0=0.0):
        state = build_state(spec)
        if eta > 0.0:
            state = apply_loss(state, eta)
        gen = GeneratorSpec(kind, sign)
        reference = panel_oracle_fi(state, gen, basis, theta0=theta0)
        assert (abs(fi_continuous(state, gen, basis, theta0) - reference)
                < 1e-6 * max(reference, 1.0))

    @pytest.mark.parametrize("kind,sign,spec", PANEL_GENERATORS)
    def test_matches_panel_oracle_away_from_zero(self, kind, sign, spec):
        # the generator maps and their theta-derivatives at theta0 != 0
        self.test_matches_panel_oracle(kind, sign, spec, 1e-3, QuadratureBasis(0.41, 2.73),
                                       theta0=0.3)


@st.composite
def fi_cases(draw):
    """Spec (pure or lossy) x basis (local or mixed-mode) x generator."""
    r_a, r_b = draw(st.floats(-1.2, 1.2)), draw(st.floats(-1.2, 1.2))
    phi = draw(st.floats(0.05, np.pi / 2 - 0.05))
    assume(abs(np.sinh(r_a) * np.cos(phi)) > 1e-2 or abs(np.sinh(r_b) * np.sin(phi)) > 1e-2)
    eta = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.95)))
    angle = st.floats(0.0, np.pi)
    basis = QuadratureBasis(draw(angle), draw(angle), draw(st.one_of(st.just(0.0), angle)))
    gen = GeneratorSpec(draw(st.sampled_from(("displacement", "phase", "shear", "squeeze"))),
                        draw(st.sampled_from((+1, -1))))
    return StateSpec(r_a, r_b, phi, eta), basis, gen


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(fi_cases())
    def test_fi_finite_and_bounded(self, case):
        spec, basis, gen = case
        state = build_state(spec)
        fi = fi_continuous(state, gen, basis)
        assert np.isfinite(fi) and fi >= 0.0
        if state.pure:
            assert fi <= qfi_pure(state, gen) * (1.0 + 1e-9)


    @settings(max_examples=300, deadline=None)
    @given(fi_cases(), st.floats(-1.0, 1.0))
    def test_evolved_density_nonnegative_normalized(self, case, theta):
        # the mixture weights (c, d_1, d_2) of the whitened density: _mixture
        # raises if one is below -1e-12, and they sum to its integral
        spec, basis, gen = case
        weights, _ = _mixture(measurement_pdf(evolve(build_state(spec), gen, theta), basis))
        assert abs(weights.sum() - 1.0) < 1e-12


class TestQfiPure:
    def test_values(self):
        state = build_state(StateSpec(0.2, 0.2))
        assert abs(qfi_pure(state, GeneratorSpec("phase", -1))
                   - (2 * np.cosh(0.4) ** 2 + 5 * np.cosh(0.8) - 3)) < 1e-10
        sheared = build_state(StateSpec(-0.2, -0.2))
        assert abs(qfi_pure(sheared, GeneratorSpec("shear", -1)) - 3 * np.exp(0.8)) < 1e-10
        assert abs(qfi_pure(state, DISP) - 6 * np.exp(0.4)) < 1e-10

    def test_rejects_lossy_states(self):
        lossy = apply_loss(build_state(StateSpec(0.2, 0.2)), 0.1)
        with pytest.raises(ValueError):
            qfi_pure(lossy, DISP)


class TestBounds:
    def test_fi_bounded_by_qfi(self):
        rng = np.random.default_rng(3)
        state = build_state(StateSpec(0.2, 0.2))
        for kind, sign in (("displacement", +1), ("phase", -1), ("shear", -1), ("squeeze", +1)):
            gen = GeneratorSpec(kind, sign)
            qfi = qfi_pure(state, gen)
            for _ in range(3):
                basis = QuadratureBasis(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
                fi = fi_continuous(state, gen, basis)
                assert fi <= qfi * (1 + 1e-6)


class TestAppendixValues:
    def test_shear_best_local_point(self):
        state = build_state(StateSpec(-0.2, -0.2))
        gen = GeneratorSpec("shear", -1)
        fi = fi_continuous(state, gen, QuadratureBasis(7 * np.pi / 20, 13 * np.pi / 20))
        assert abs(fi - 5.8871) < 5e-4
        swapped = fi_continuous(state, gen, QuadratureBasis(13 * np.pi / 20, 7 * np.pi / 20))
        assert abs(fi - swapped) < 1e-5

    def test_phase_best_local_point(self):
        state = build_state(StateSpec(0.2, 0.2))
        fi = fi_continuous(state, GeneratorSpec("phase", -1),
                           QuadratureBasis(13 * np.pi / 100, 87 * np.pi / 100))
        assert abs(fi - 4.1018) < 5e-4

    def test_nonlocal_basis_saturates(self):
        sheared = build_state(StateSpec(-0.2, -0.2))
        gen = GeneratorSpec("shear", -1)
        fi = fi_continuous(sheared, gen, NONLOCAL_SATURATING_BASIS)
        assert abs(fi / qfi_pure(sheared, gen) - 1.0) < 1e-4
        phased = build_state(StateSpec(0.2, 0.2))
        gen = GeneratorSpec("phase", -1)
        fi = fi_continuous(phased, gen, NONLOCAL_SATURATING_BASIS)
        assert abs(fi / qfi_pure(phased, gen) - 1.0) < 1e-4


class TestAngleOptimization:
    def test_shear_grid_argmax(self):
        state = build_state(StateSpec(-0.2, -0.2))
        scan = optimize_angles(state, GeneratorSpec("shear", -1), grid_step=np.pi / 20,
                               refine=True)
        assert abs(scan.grid_phi_a - 7 * np.pi / 20) < 1e-12
        assert abs(scan.grid_phi_b - 13 * np.pi / 20) < 1e-12
        assert abs(scan.f_grid_max - 5.887) < 0.01
        assert scan.f_max >= scan.f_grid_max - 1e-9

    def test_displacement_optimal_at_x_plane(self):
        state = build_state(StateSpec(0.2, 0.2))
        scan = optimize_angles(state, DISP, grid_step=np.pi / 10, refine=False)
        assert scan.grid_phi_a == 0.0 and scan.grid_phi_b == 0.0
        assert abs(scan.f_grid_max / qfi_pure(state, DISP) - 1.0) < 1e-5

    def test_saturation_report_displacement(self):
        # the x-plane already saturates; the mixed basis is blind to the
        # balanced displacement, so only the local gap is meaningful here
        state = build_state(StateSpec(0.2, 0.2))
        report = saturation_check(state, DISP, grid_step=np.pi / 10)
        assert report.local_gap < 1e-5 * report.qfi

    def test_max_local_fi_grows_with_squeezing(self):
        gen = GeneratorSpec("shear", -1)
        values = []
        for s_db in (1.0, 3.0, 5.0):
            r = -s_db * np.log(10) / 20
            scan = optimize_angles(build_state(StateSpec(r, r)), gen,
                                   grid_step=np.pi / 10)
            values.append(scan.f_max)
        assert values[0] < values[1] < values[2]
