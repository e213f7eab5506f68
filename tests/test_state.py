from dataclasses import replace

import numpy as np
import pytest

from ngwsim import (
    DegenerateStateError,
    GeneratorSpec,
    JointDensity,
    P_BASIS,
    QuadratureBasis,
    StateSpec,
    X_BASIS,
    apply_loss,
    build_state,
    evolve,
    fi_continuous,
    generator_variance,
    measurement_pdf,
    qfi_pure,
    sample,
    squeezing_db,
    squeezing_r,
)
from ngwsim.moments import GENERATOR_KINDS
from ngwsim.state import _whitened

from oracles import (
    grid_moment,
    grid_norm,
    grid_points,
    vnoisy_reference,
    wavefunction_density,
)


def random_specs(count, seed=0, eta=False):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r_a, r_b = rng.uniform(-1.0, 1.0, 2)
        phi = rng.uniform(0.05, np.pi / 2 - 0.05)
        if abs(np.sinh(r_a) * np.cos(phi)) < 1e-2 and abs(np.sinh(r_b) * np.sin(phi)) < 1e-2:
            continue
        kw = {"eta": rng.uniform(0.0, 0.6)} if eta else {}
        out.append(StateSpec(r_a, r_b, phi, **kw))
    return out


class TestStateSpec:
    def test_phi_range(self):
        with pytest.raises(ValueError):
            StateSpec(0.2, 0.2, phi_sub=2.0)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            StateSpec(0.2, 0.2, eta=1.0)
        with pytest.raises(ValueError):
            StateSpec(0.2, 0.2, eta=-0.1)

    @pytest.mark.parametrize("make", [
        lambda: StateSpec(np.nan, 0.2),
        lambda: StateSpec(0.2, np.inf),
        lambda: StateSpec(0.2, 0.2, phi_sub=np.nan),
        lambda: StateSpec(0.2, 0.2, eta=np.nan),
        lambda: QuadratureBasis(np.nan, 0.0),
        lambda: QuadratureBasis(0.0, 0.0, -np.inf),
    ])
    def test_non_finite_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateStateError):
            StateSpec(0.0, 0.0)
        # cos(pi/2) sinh(r_a) = 0 and sinh(0) = 0
        with pytest.raises(DegenerateStateError):
            StateSpec(0.2, 0.0, phi_sub=np.pi / 2)

    def test_db_roundtrip(self):
        for r in np.linspace(-1.2, 1.2, 17):
            assert abs(squeezing_r(squeezing_db(r)) - r) < 1e-12


class TestBuildState:
    def test_symmetric_variances(self):
        state = build_state(StateSpec(0.2, 0.2))
        cov = state.second_moments()
        assert abs(cov[0, 0] - 2 * np.exp(-0.4)) < 1e-12
        assert abs(cov[1, 1] - 2 * np.exp(0.4)) < 1e-12
        assert abs(cov[1, 3] - np.exp(0.4)) < 1e-12

    def test_second_moments_match_projector_construction(self):
        worst = 0.0
        for spec in random_specs(20, seed=3):
            state = build_state(StateSpec(spec.r_a, spec.r_b, spec.phi_sub))
            dev = np.max(np.abs(state.second_moments()
                                - vnoisy_reference(spec.r_a, spec.r_b, spec.phi_sub)))
            worst = max(worst, dev)
        assert worst < 1e-10

    def test_least_weight_that_passes_the_spec_builds(self):
        # |cos(phi) sinh(r_a)| = 1.8e-12 passes StateSpec's zero-norm rule, the
        # only one; beta = 0, so the state is that of subtracting from A alone
        spec = StateSpec(-2.0, 0.0, np.arccos(5e-13))
        state = build_state(spec)
        single = build_state(StateSpec(-2.0, 0.0, 0.0))
        np.testing.assert_allclose(state.second_moments(), single.second_moments(),
                                   rtol=1e-12, atol=1e-12)
        for basis in (X_BASIS, P_BASIS):
            np.testing.assert_allclose(measurement_pdf(state, basis).weights, [0.0, 0.0, 1.0],
                                       rtol=1e-12, atol=0.0)
        gen = GeneratorSpec("displacement", +1)
        fi = fi_continuous(state, gen)
        assert abs(fi - qfi_pure(state, gen)) < 1e-12 * fi
        assert abs(fi - fi_continuous(single, gen)) < 1e-12 * fi
        assert np.isfinite(sample(state, 1000, seed=1).pairs).all()

    def test_single_mode_subtraction_is_product(self):
        cov = build_state(StateSpec(0.2, 0.2, phi_sub=0.0)).second_moments()
        assert abs(cov[0, 2]) < 1e-14 and abs(cov[1, 3]) < 1e-14

    def test_xx_marginal_equals_wavefunction_density(self):
        for spec in random_specs(5, seed=7):
            pdf = measurement_pdf(build_state(spec))
            reference = wavefunction_density(spec.r_a, spec.r_b, spec.phi_sub)
            xs = np.linspace(-4, 4, 41)
            pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="ij")])
            assert np.max(np.abs(pdf(pts) - reference(pts))) < 1e-12

    def test_fig1a_density_shape(self):
        # r_A = r_B = 0.2, phi = pi/4: density prop exp(-e^{0.4}(x^2+y^2)/2)(x+y)^2
        pdf = measurement_pdf(build_state(StateSpec(0.2, 0.2)))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, (200, 2))
        target = np.exp(-np.exp(0.4) * (pts[:, 0]**2 + pts[:, 1]**2) / 2) * (pts[:, 0] + pts[:, 1])**2
        vals = pdf(pts)
        keep = target > 1e-12
        ratio = vals[keep] / target[keep]
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10


class TestMeasurementPdf:
    def test_p_basis_moments_equal_pp_block(self):
        state = build_state(StateSpec(0.2, 0.2))
        pdf = measurement_pdf(state, P_BASIS)
        cov = pdf.covariance()
        full = state.second_moments()
        assert abs(cov[0, 0] - full[1, 1]) < 1e-12
        assert abs(cov[0, 1] - full[1, 3]) < 1e-12
        assert abs(cov[1, 1] - full[3, 3]) < 1e-12

    def test_nonlocal_mix_basis_density(self):
        state = build_state(StateSpec(0.2, 0.2))
        basis = QuadratureBasis(0.0, np.pi / 2, -np.pi / 4)
        pdf = measurement_pdf(state, basis)
        assert abs(grid_norm(pdf, n=801) - 1.0) < 1e-8
        full = state.second_moments()
        # Var(x'_A) with x'_A = (x_A - x_B)/sqrt2
        expect = 0.5 * (full[0, 0] + full[2, 2] - 2 * full[0, 2])
        assert abs(pdf.covariance()[0, 0] - expect) < 1e-12

    def test_densities_nonnegative_normalized(self):
        rng = np.random.default_rng(11)
        for spec in random_specs(10, seed=13, eta=True):
            basis = QuadratureBasis(rng.uniform(0, np.pi), rng.uniform(0, np.pi),
                                    rng.choice([0.0, -np.pi / 4]))
            pdf = measurement_pdf(build_state(spec), basis)
            xs, ys = grid_points(pdf, n=301)
            vals = pdf.grid(xs, ys)
            assert vals.min() > -1e-13
            assert abs(grid_norm(pdf, n=801) - 1.0) < 1e-8

    def test_parity_even(self):
        pdf = measurement_pdf(build_state(StateSpec(0.3, -0.4, 0.9)))
        pts = np.random.default_rng(2).uniform(-3, 3, (50, 2))
        assert np.max(np.abs(pdf(pts) - pdf(-pts))) < 1e-14
        assert abs(grid_moment(pdf, 1, 0)) < 1e-10
        assert abs(grid_moment(pdf, 0, 1)) < 1e-10
        assert abs(pdf.moment(1, 2)) < 1e-10


_DISP = GeneratorSpec("displacement", +1)
# every reader of a state's measured density, and the moment layer
_STATE_READERS = {
    "fi_continuous": lambda state: fi_continuous(state, _DISP),
    "sample": lambda state: sample(state, 10, seed=1),
    "measurement_pdf": measurement_pdf,
    "generator_variance": lambda state: generator_variance(state, _DISP, "A"),
    "qfi_pure": lambda state: qfi_pure(state, _DISP),
}
_DENSITY_READERS = ("fi_continuous", "sample", "measurement_pdf")


def _margin_cases(count, seed, r_max):
    """Random (state, generator, theta, basis): r in [-r_max, r_max], eta in
    {0, 1e-12, 1e-6, 0.1, 0.5}, any generator kind and sign, theta in [-1, 1],
    local angles with a two-mode mixing angle half of the time."""
    rng = np.random.default_rng(seed)
    while count:
        r_a, r_b = rng.uniform(-r_max, r_max, 2)
        phi = rng.uniform(0.05, np.pi / 2 - 0.05)
        eta = rng.choice([0.0, 1e-12, 1e-6, 0.1, 0.5])
        gen = GeneratorSpec(GENERATOR_KINDS[rng.integers(4)], int(rng.choice([-1, 1])))
        theta = rng.uniform(-1.0, 1.0)
        angles = rng.uniform(0.0, np.pi, 3)
        basis = QuadratureBasis(*angles[:2], angles[2] if rng.random() < 0.5 else 0.0)
        if abs(np.sinh(r_a) * np.cos(phi)) < 1e-2 and abs(np.sinh(r_b) * np.sin(phi)) < 1e-2:
            continue
        count -= 1
        yield StateSpec(r_a, r_b, phi, eta), gen, theta, basis


def _roundoff_share(spec, gen, theta, basis):
    """Smallest weight (c, d_1, d_2) of the measured density before the
    roundoff rule, over the density's roundoff floor."""
    density = measurement_pdf(evolve(build_state(spec), gen, theta), basis)
    weights, floor, _, _ = _whitened(density.sigma, density.t, density.magnitude)
    return min(weights) / floor


# The first three are pure states whose roundoff weight crosses -1e-12 times
# the largest, so a gate fixed at 1e-12 rejected them: two theta = 0 states
# with 2 <= |r| <= 3 (c = -8.4e-13 and -9.3e-13) and an |r| = 4 state
# (c = -3.6e-11 relative). The last is the worst of 30,000 cases of the
# margin mix (seeds 0-9 of _margin_cases) against the fixed gate.
_SQUEEZED_PINS = [
    (StateSpec(2.7792178898361977, -2.0746505295417945, 0.4478388538554484), _DISP, 0.0,
     QuadratureBasis(0.389352815959969, 2.9356649209300487, 0.9475970147619116)),
    (StateSpec(-2.528000779546368, 2.5391274156140278, 1.1138528955187377), _DISP, 0.0,
     QuadratureBasis(0.71996096361758, 2.5323501637574437, 0.7313850954458018)),
    (StateSpec(4.0, -4.0, 1.2765818559130317), _DISP, 0.0,
     QuadratureBasis(1.280723959888521, 2.174116075323544, 2.1536112085238797)),
    (StateSpec(2.7446729697314876, -1.234523512404456, 1.3972448629915695),
     GeneratorSpec("squeeze", -1), 0.650541243348338,
     QuadratureBasis(2.6555244749976428, 1.0590378418987605, 0.5262531198010979)),
]


class TestDensityDomain:
    """One physical-domain check and one roundoff rule for every reader of
    the measured density: JointDensity rejects non-finite fields and
    weights (c, d_1, d_2) below minus its roundoff floor, and sets those
    below the floor to exactly 0."""

    @pytest.mark.parametrize("field", ["t", "mean"])
    @pytest.mark.parametrize("reader", list(_STATE_READERS))
    def test_non_finite_state_rejected(self, reader, field):
        state = build_state(StateSpec(0.2, 0.2))
        bad = getattr(state, field).copy()
        bad[2] = np.nan
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            _STATE_READERS[reader](replace(state, **{field: bad}))

    @pytest.mark.parametrize("field", ["sigma", "t", "mean", "magnitude"])
    def test_non_finite_density_rejected(self, field):
        fields = {"sigma": np.eye(2), "t": np.zeros((2, 2)), "mean": np.zeros(2),
                  "magnitude": 1.0}
        fields[field] = np.full_like(fields[field], np.inf)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            JointDensity(**fields)

    @pytest.mark.parametrize("t_scale, weights", [(3.0, (-2.0, 0.0, 3.0)),
                                                  (-0.3, (1.3, -0.3, 0.0))])
    @pytest.mark.parametrize("reader", _DENSITY_READERS)
    def test_negative_density_rejected_by_every_reader(self, reader, t_scale, weights):
        # the pure x-x density has weights (0, 0, 1); scaling t scales d
        state = build_state(StateSpec(0.2, 0.2))
        density = measurement_pdf(state)
        unrounded, _, _, _ = _whitened(density.sigma, t_scale * density.t, 1.0)
        np.testing.assert_allclose(unrounded, weights, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="negative somewhere"):
            _STATE_READERS[reader](replace(state, t=t_scale * state.t))

    @pytest.mark.parametrize("r", [0.2, 0.7])
    def test_pure_nodal_line_is_never_negative(self, r):
        # x-x density of a pure state: (alpha x_A + beta x_B)^2 times a
        # Gaussian, weights (0, 0, 1) up to roundoff. Along the zero-weight
        # axis only the squared roundoff of v_2 is left, and no point of the
        # pdf is negative
        density = measurement_pdf(build_state(StateSpec(r, r)))
        assert density.weights[0] == 0.0 and density.weights[1] == 0.0
        steps = np.linspace(-4.0, 4.0, 33)[:, None]
        along = density(density.mean + steps * density.frame[:, 0])
        assert along.min() >= 0.0 and along.max() < 1e-25
        xs = np.linspace(-3.0, 3.0, 61)
        assert density.grid(xs, xs).min() >= 0.0

    @pytest.mark.parametrize("case", _SQUEEZED_PINS[:3])
    def test_strongly_squeezed_pure_states_accepted(self, case):
        spec, _, _, basis = case
        state = build_state(spec)
        density = measurement_pdf(state, basis)
        assert density.weights[0] == 0.0 and density.weights.min() == 0.0
        assert np.isfinite(sample(state, 1000, seed=1, basis=basis).pairs).all()
        gen = GeneratorSpec("phase", +1)
        assert 0.0 < fi_continuous(state, gen, basis) <= qfi_pure(state, gen)

    def test_roundoff_margin_of_the_gate(self):
        # The roundoff of every weight must stay within a fifth of the gate:
        # above -2e-13 times the largest weight where the floor is 1e-12,
        # and above -0.2 times the floor where roundoff scales it up.
        worst = min(_roundoff_share(*case)
                    for case in [*_SQUEEZED_PINS, *_margin_cases(3000, seed=0, r_max=3.0)])
        assert -0.2 < worst <= 0.0


class TestApplyLoss:
    def test_eta_zero_identity(self):
        state = build_state(StateSpec(0.2, 0.2))
        assert apply_loss(state, 0.0) is state

    def test_eta_domain(self):
        state = build_state(StateSpec(0.2, 0.2))
        for bad in (1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                apply_loss(state, bad)

    def test_symmetric_lossy_marginal_closed_form(self):
        r, eta = 0.2, 0.3
        pdf = measurement_pdf(apply_loss(build_state(StateSpec(r, r)), eta))
        sig_sq = (1 - eta) * np.exp(-2 * r) + eta
        xs = np.linspace(-5.0, 5.0, 41)
        pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="ij")])
        target = np.exp(-(pts[:, 0]**2 + pts[:, 1]**2) / (2 * sig_sq)) * (
            2 * eta * np.exp(2 * r) * sig_sq + (1 - eta) * (pts[:, 0] + pts[:, 1])**2)
        norm = 2 * np.pi * sig_sq * (2 * eta * np.exp(2 * r) * sig_sq
                                     + 2 * (1 - eta) * sig_sq)
        assert np.max(np.abs(pdf(pts) - target / norm)) < 1e-10

    def test_lossy_covariance_mixing(self):
        state = build_state(StateSpec(0.3, -0.2, 0.7))
        eta = 0.25
        lossy = apply_loss(state, eta)
        expect = (1 - eta) * state.second_moments() + eta * np.eye(4)
        assert np.max(np.abs(lossy.second_moments() - expect)) < 1e-12
        assert not lossy.pure

    def test_asymmetric_lossy_density_valid(self):
        pdf = measurement_pdf(apply_loss(build_state(StateSpec(0.2, -0.2)), 0.5))
        xs, ys = grid_points(pdf, n=501)
        assert pdf.grid(xs, ys).min() > -1e-14
        assert abs(grid_norm(pdf) - 1.0) < 1e-8

    def test_loss_commutes_with_phase_rotation(self):
        state = build_state(StateSpec(0.3, 0.1, 0.6))
        gen = GeneratorSpec("phase", -1)
        theta = 0.37
        one = apply_loss(evolve(state, gen, theta), 0.2)
        two = evolve(apply_loss(state, 0.2), gen, theta)
        assert np.max(np.abs(one.cov - two.cov)) < 1e-10
        assert np.max(np.abs(one.t - two.t)) < 1e-10


class TestEvolve:
    def test_theta_zero_identity(self):
        state = build_state(StateSpec(0.2, -0.3, 0.8))
        for kind in ("displacement", "phase", "shear", "squeeze"):
            out = evolve(state, GeneratorSpec(kind, +1), 0.0)
            assert np.allclose(out.cov, state.cov)
            assert np.allclose(out.mean, state.mean)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_displacement_postprocessing_shift(self, sign):
        state = build_state(StateSpec(0.2, 0.2))
        theta = 0.1
        moved = evolve(state, GeneratorSpec("displacement", sign), theta)
        pdf0 = measurement_pdf(state)
        pdf1 = measurement_pdf(moved)
        pts = np.random.default_rng(0).uniform(-3, 3, (100, 2))
        shifted = pts + theta * np.array([1.0, sign])
        assert np.max(np.abs(pdf1(pts) - pdf0(shifted))) < 1e-13

    def test_squeeze_variance_scaling(self):
        state = build_state(StateSpec(0.2, 0.2))
        theta = 0.23
        out = evolve(state, GeneratorSpec("squeeze", +1), theta)
        v0, v1 = state.second_moments(), out.second_moments()
        assert abs(v1[0, 0] - v0[0, 0] * np.exp(-2 * theta)) < 1e-12
        assert abs(v1[1, 1] - v0[1, 1] * np.exp(2 * theta)) < 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_phase_rotation_preserves_photon_number(self, sign):
        state = build_state(StateSpec(0.2, 0.2))
        gen = GeneratorSpec("phase", sign)
        for theta in (0.4, 1.1):
            out = evolve(state, gen, theta)
            for mode in (0, 2):
                n0 = state.second_moments()[mode, mode] + state.second_moments()[mode + 1, mode + 1]
                n1 = out.second_moments()[mode, mode] + out.second_moments()[mode + 1, mode + 1]
                assert abs(n0 - n1) < 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("theta", [-0.7, 0.3, 1.1])
    def test_maps_match_explicit_forms(self, sign, theta):
        def clockwise(t):
            return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])

        def shear(t):
            return np.array([[1.0, 0.0], [-t, 1.0]])

        def squeeze(t):
            return np.diag([np.exp(-t), np.exp(t)])

        state = build_state(StateSpec(0.3, -0.2, 0.7)).displaced([0.1, -0.4, 0.3, 0.2])
        for kind, block in (("phase", clockwise), ("shear", shear), ("squeeze", squeeze)):
            gen = GeneratorSpec(kind, sign)
            s, shift, _, _ = gen.flow(theta)
            expect = np.zeros((4, 4))
            expect[:2, :2], expect[2:, 2:] = block(theta), block(sign * theta)
            assert np.max(np.abs(s - expect)) < 1e-14, kind
            assert not np.any(shift), kind
            out = evolve(state, gen, theta)
            assert np.max(np.abs(out.cov - expect @ state.cov @ expect.T)) < 1e-13, kind
            assert np.max(np.abs(out.mean - expect @ state.mean)) < 1e-14, kind
        gen = GeneratorSpec("displacement", sign)
        s, shift, _, _ = gen.flow(theta)
        assert np.array_equal(s, np.eye(4))
        assert np.max(np.abs(shift - np.array([-theta, 0.0, -sign * theta, 0.0]))) < 1e-14
        out = evolve(state, gen, theta)
        assert np.max(np.abs(out.mean - state.mean - shift)) < 1e-15

    def test_finite_theta_required(self):
        state = build_state(StateSpec(0.2, 0.2))
        with pytest.raises(ValueError):
            evolve(state, GeneratorSpec("phase", +1), np.inf)

    def test_delta_restricted_to_displacement(self):
        with pytest.raises(ValueError):
            GeneratorSpec("phase", +1, delta=0.3)
        with pytest.raises(ValueError):
            GeneratorSpec("displacement", +1, delta=np.nan)
