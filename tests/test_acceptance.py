"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Criteria 5 (binned estimator) and 7 (loss thresholds) take their references
from independent oracles in oracles.py rather than from figure readings:
criterion 5 from exact cell probabilities of the wavefunction density run
through the estimator's own fit, criterion 7 from a truncated Fock-space model
of the lossy state and its mixed-state quantum Fisher information. Both print
the computed analysis with their PASS/FAIL line.
"""

import numpy as np
import pytest

from ngwsim import (
    GeneratorSpec,
    NONLOCAL_SATURATING_BASIS,
    StateSpec,
    apply_loss,
    build_state,
    default_theta_grid,
    eq_displacement,
    eq_phase,
    eq_shear,
    eq_squeeze,
    estimate_fi,
    fi_continuous,
    gaussian_separability_check,
    generator_covariance,
    generator_variance,
    optimize_angles,
    qfi_pure,
    replicate,
    sample,
    squeezing_r,
    witness_value,
)

from oracles import (
    binned_witness_reference,
    fi_binned,
    fock_density,
    fock_displacement_fi,
    fock_displacement_qfi,
    fock_p_variances,
    vnoisy_reference,
)
from test_state import random_specs


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def test_criterion_1_closed_form_suite():
    checks = [
        ("displacement", eq_displacement(0.2, 0.2, np.pi / 4, +1, 0.0), 2 * np.exp(0.4),
         GeneratorSpec("displacement", +1), StateSpec(0.2, 0.2)),
        ("phase", eq_phase(0.2, 0.2, -1), 2 * np.cosh(0.4) ** 2,
         GeneratorSpec("phase", -1), StateSpec(0.2, 0.2)),
        ("shear", eq_shear(-0.2, -0.2, -1), np.exp(0.8) / 2,
         GeneratorSpec("shear", -1), StateSpec(-0.2, -0.2)),
        ("squeeze", eq_squeeze(), 0.0,
         GeneratorSpec("squeeze", +1), StateSpec(0.2, 0.2)),
    ]
    worst_closed = 0.0
    worst_cov = 0.0
    for _name, value, target, gen, spec in checks:
        worst_closed = max(worst_closed, abs(value - target))
        eight_cov = 8 * generator_covariance(build_state(spec), gen)
        worst_cov = max(worst_cov, abs(eight_cov - value))
    ok = worst_closed < 1e-12 and worst_cov < 1e-8
    assert report(
        "criterion 1 closed-form suite",
        ok,
        f"max closed-form deviation {worst_closed:.2e} (tol 1e-12), "
        f"max deviation from 8*Cov {worst_cov:.2e} (tol 1e-8)",
    )


def test_criterion_2_covariance_equivalence():
    worst = 0.0
    detected = 0
    for spec in random_specs(50, seed=101):
        state = build_state(spec)
        dev = np.max(np.abs(state.second_moments()
                            - vnoisy_reference(spec.r_a, spec.r_b, spec.phi_sub)))
        worst = max(worst, dev)
        if gaussian_separability_check(state.second_moments()).detected:
            detected += 1
    ok = worst < 1e-10 and detected == 0
    assert report(
        "criterion 2 covariance equivalence",
        ok,
        f"max |V - projector construction| = {worst:.2e} (tol 1e-10) over 50 specs, "
        f"partial-transpose detections {detected}/50 (expected 0)",
    )


def test_criterion_3_fi_saturation_displacement():
    rng = np.random.default_rng(202)
    worst = 0.0
    for spec in random_specs(10, seed=202):
        sign = int(rng.choice([-1, 1]))
        gen = GeneratorSpec("displacement", sign)
        state = build_state(spec)
        gap = abs(fi_continuous(state, gen) / qfi_pure(state, gen) - 1.0)
        worst = max(worst, gap)
    ok = worst < 1e-5
    assert report(
        "criterion 3 FI saturation (displacement)",
        ok,
        f"max relative |F/QFI - 1| = {worst:.2e} over 10 random specs (tol 1e-5)",
    )


def test_criterion_4_appendix_reproduction():
    failures = []
    # shearing at r = -0.2 on the pi/20 grid
    state = build_state(StateSpec(-0.2, -0.2))
    gen = GeneratorSpec("shear", -1)
    scan = optimize_angles(state, gen, grid_step=np.pi / 20, refine=False)
    if not (abs(scan.grid_phi_a - 7 * np.pi / 20) < 1e-9
            and abs(scan.grid_phi_b - 13 * np.pi / 20) < 1e-9):
        failures.append(f"shear argmax ({scan.grid_phi_a:.4f}, {scan.grid_phi_b:.4f})")
    if abs(scan.f_grid_max - 5.89) > 0.05:
        failures.append(f"shear max FI {scan.f_grid_max:.4f} outside 5.89 +- 0.05")
    qfi_shear = qfi_pure(state, gen)
    if abs(qfi_shear - 6.67) > 0.02:
        failures.append(f"shear QFI {qfi_shear:.4f} outside 6.67 +- 0.02")
    gap_shear = abs(fi_continuous(state, gen, NONLOCAL_SATURATING_BASIS)
                    / qfi_shear - 1.0)
    if gap_shear > 1e-3:
        failures.append(f"shear nonlocal gap {gap_shear:.2e}")
    shear_detail = (f"shear: argmax ({scan.grid_phi_a / np.pi:.3f} pi, "
                    f"{scan.grid_phi_b / np.pi:.3f} pi), max FI {scan.f_grid_max:.4f}, "
                    f"QFI {qfi_shear:.4f}, nonlocal gap {gap_shear:.1e}")

    # phase shift at r = 0.2 on the pi/100 grid
    state = build_state(StateSpec(0.2, 0.2))
    gen = GeneratorSpec("phase", -1)
    scan = optimize_angles(state, gen, grid_step=np.pi / 100, refine=False)
    if not (abs(scan.grid_phi_a - 13 * np.pi / 100) < 1e-9
            and abs(scan.grid_phi_b - 87 * np.pi / 100) < 1e-9):
        failures.append(f"phase argmax ({scan.grid_phi_a:.4f}, {scan.grid_phi_b:.4f})")
    if abs(scan.f_grid_max - 4.1) > 0.05:
        failures.append(f"phase max FI {scan.f_grid_max:.4f} outside 4.1 +- 0.05")
    qfi_phase = qfi_pure(state, gen)
    if abs(qfi_phase - 6.02) > 0.02:
        failures.append(f"phase QFI {qfi_phase:.4f} outside 6.02 +- 0.02")
    gap_phase = abs(fi_continuous(state, gen, NONLOCAL_SATURATING_BASIS)
                    / qfi_phase - 1.0)
    if gap_phase > 1e-3:
        failures.append(f"phase nonlocal gap {gap_phase:.2e}")
    phase_detail = (f"phase: argmax ({scan.grid_phi_a / np.pi:.3f} pi, "
                    f"{scan.grid_phi_b / np.pi:.3f} pi), max FI {scan.f_grid_max:.4f}, "
                    f"QFI {qfi_phase:.4f}, nonlocal gap {gap_phase:.1e}")

    assert report(
        "criterion 4 appendix reproduction",
        not failures,
        shear_detail + "; " + phase_detail +
        ("" if not failures else "; FAILURES: " + "; ".join(failures)),
    )


def test_criterion_5_estimator_end_to_end():
    spec = StateSpec(0.2, 0.2)
    delta = 0.1
    continuous = 2 * np.exp(0.4)
    summary = replicate(spec, 2_000_000, 30, seed=515,
                        delta=delta, theory=continuous, workers=2)
    # Reference: the witness the estimator converges to as the sample grows.
    # Exact cell probabilities of the wavefunction density on the estimator's
    # cells (edges at multiples of delta) and theta grid, fitted by the same
    # unweighted parabola, minus the exact local variances.
    reference, f_fit, var_p, half = binned_witness_reference(
        spec.r_a, spec.r_b, spec.phi_sub, delta, default_theta_grid())
    # balanced x_A = x_B
    f_binned = fi_binned(spec.r_a, spec.r_b, spec.phi_sub, delta, half, (1.0, 1.0))
    gap = abs(summary.mean - reference)
    ok = gap <= 3 * summary.std
    bias = summary.mean - reference
    detail = (
        f"mean E = {summary.mean:.4f}, replicate std = {summary.std:.4f}, "
        f"reference E_ref = {reference:.4f}, |gap| = {gap:.4f} vs 3 sigma = "
        f"{3 * summary.std:.4f}. Analysis: binning removes information, because the "
        f"nodal line x_A = -x_B crosses the displacement direction. The bin-{delta:g} "
        f"family carries F = {f_binned:.4f}, against {continuous + var_p:.4f} in the "
        f"continuum. On exact cell probabilities the estimator's parabola fit gives "
        f"8a = {f_fit:.4f}, so E_ref = {f_fit:.4f} - {var_p:.4f} = {reference:.4f}. "
        f"The continuous witness {continuous:.4f} lies "
        f"{(continuous - reference) / summary.std:.1f} replicate sigma above E_ref and "
        f"is out of reach of binned records. Residual finite-sample bias at M = 2e6: "
        f"mean - E_ref = {bias:+.4f}, {bias / summary.stderr_mean:.1f} standard errors "
        f"of the mean. E > 0 in all 30 replicates: {bool(np.all(summary.values > 0))}."
    )
    assert report("criterion 5 estimator end-to-end", ok, detail)


def test_criterion_6_coarse_bin_detection():
    summary = replicate(StateSpec(0.2, 0.2), 1_000_000, 30, seed=616,
                        delta=0.4, theory=2 * np.exp(0.4), workers=2)
    positive = int(np.sum(summary.values > 0))
    ok = positive >= 28
    assert report(
        "criterion 6 coarse-bin detection",
        ok,
        f"E > 0 in {positive}/30 replicates at bin 0.4, M = 1e6 "
        f"(mean E = {summary.mean:.4f} +- {summary.std:.4f}); "
        f"no overestimation beyond 3 sigma: "
        f"{bool(summary.mean - summary.theory <= 3 * summary.std)}",
    )


def _witness_of_lossy(r_a, r_b, sign, eta):
    state = build_state(StateSpec(r_a, r_b))
    if eta > 0:
        state = apply_loss(state, eta)
    gen = GeneratorSpec("displacement", sign)
    return witness_value(fi_continuous(state, gen),
                         generator_variance(state, gen, "A"),
                         generator_variance(state, gen, "B"))


def _bisect_zero(fun):
    """Zero crossing in [0, 0.9] of a witness that is positive below it, by
    22 bisection steps; returns the crossing and every (eta, value) evaluated."""
    lo, hi = 0.0, 0.9
    evaluated = []
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        value = fun(mid)
        evaluated.append((mid, value))
        if value > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), evaluated


def _fock_witness(fisher, r_a, r_b, sign, eta):
    """Fock-space oracle witness fisher(rho, sign) - 4 (Var H_A + Var H_B).

    With fock_displacement_fi it is the x-x homodyne witness; with
    fock_displacement_qfi it is the QFI ceiling, which bounds the witness of
    every measurement.
    """
    rho = fock_density(r_a, r_b, eta=eta)
    return fisher(rho, sign) - sum(fock_p_variances(rho))  # H = p / 2 per mode


def test_criterion_7_loss_thresholds():
    lines = []
    failures = []
    margin = np.inf  # smallest (oracle ceiling - program witness) evaluated
    for s_db in (1.0, 2.0):
        r = squeezing_r(-s_db)
        eta_star, evaluated = _bisect_zero(lambda eta: _witness_of_lossy(r, r, +1, eta))
        for eta, e_val in evaluated:
            margin = min(margin, _fock_witness(fock_displacement_qfi, r, r, +1, eta) - e_val)
        below = _fock_witness(fock_displacement_fi, r, r, +1, eta_star - 1e-3)
        above = _fock_witness(fock_displacement_fi, r, r, +1, eta_star + 1e-3)
        if not below > 0 > above:
            failures.append(f"{s_db:g} dB: oracle does not change sign across eta*")
        eta_q, _ = _bisect_zero(
            lambda eta: _fock_witness(fock_displacement_qfi, r, r, +1, eta))
        lines.append(f"in-phase {s_db:g} dB: eta* = {eta_star:.4f}, oracle "
                     f"E(eta* -+ 1e-3) = {below:+.4f} / {above:+.4f}, "
                     f"QFI ceiling crosses zero at eta = {eta_q:.3f}")
    quad_configs = [(1.0, -1.0), (1.0, -2.0), (2.0, -2.0), (2.0, -6.0)]
    for sa, sb in quad_configs:
        r_a, r_b = squeezing_r(-sa), squeezing_r(-sb)
        e_val = _witness_of_lossy(r_a, r_b, -1, 0.6)
        e_oracle = _fock_witness(fock_displacement_fi, r_a, r_b, -1, 0.6)
        ceiling = _fock_witness(fock_displacement_qfi, r_a, r_b, -1, 0.6)
        margin = min(margin, ceiling - e_val)
        if abs(e_val - e_oracle) > 1e-4:
            failures.append(f"({sa:g}, {sb:g}) dB: E = {e_val:.6f} vs oracle {e_oracle:.6f}")
        if ceiling >= 0:
            failures.append(f"({sa:g}, {sb:g}) dB: QFI ceiling {ceiling:.4f} is not negative")
        lines.append(f"in-quadrature ({sa:g}, {sb:g}) dB at eta=0.6: E = {e_val:.4f} "
                     f"(oracle {e_oracle:.4f}), QFI ceiling {ceiling:.4f}")
    if margin < 0:
        failures.append(f"program witness exceeds the QFI ceiling by {-margin:.2e}")
    detail = (
        "; ".join(lines)
        + f"; smallest ceiling margin over all evaluated points {margin:.4f}. "
        "Analysis: a truncated Fock-space model (squeezed vacua, subtraction, "
        "pure-loss Kraus operators, Hermite-function homodyne densities) "
        "reproduces the covariance loss model V -> (1-eta) V + eta I: it brackets "
        "each bisected eta* within 1e-3 and matches the in-quadrature witnesses. "
        "The mixed-state QFI ceiling F_Q - 4 (Var H_A + Var H_B) bounds every "
        "measurement; it is negative for all in-quadrature configurations at "
        "eta = 0.6, so no measurement detects entanglement there. In the "
        "weak-squeezing limit it is 2 (1-eta)(1-4 eta), negative for eta > 1/4."
        + ("" if not failures else " FAILURES: " + "; ".join(failures))
    )
    assert report("criterion 7 loss thresholds", not failures, detail)


def test_criterion_8_hellinger_intercept():
    state = build_state(StateSpec(0.2, 0.2))
    c0_hats = []
    theories = []
    for i in range(30):
        record = sample(state, 4_000_000, seed=818, stream=i)
        fit = estimate_fi(record, delta=0.4)
        c0_hats.append(fit.c0_hat)
        theories.append((fit.n_occ - 1) / (4 * fit.m_half))
    c0_hats = np.array(c0_hats)
    theory = float(np.mean(theories))
    spread = float(c0_hats.std(ddof=1))
    gap = abs(float(c0_hats.mean()) - theory)
    ok = gap <= 3 * spread
    assert report(
        "criterion 8 Hellinger intercept",
        ok,
        f"mean fitted c0 = {c0_hats.mean():.3e}, (n-1)/(4 M/2) = {theory:.3e}, "
        f"|gap| = {gap:.2e} vs 3 sigma = {3 * spread:.2e} over 30 replicates "
        f"(M = 4e6, bin 0.4; the counting model holds where occupied cells are "
        f"well populated)",
    )
