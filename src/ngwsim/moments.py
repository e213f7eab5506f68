"""Quadrature moments and generator statistics.

Moments are computed from the phase-space representation through
Gaussian-polynomial integral identities (Isserlis expansion); phase-space
moments are Weyl (symmetrically) ordered. Where a generator involves
same-mode products of x and p, the operator expectations pick up ordering
corrections relative to the Weyl moments; those are applied here so that
variances and covariances refer to the actual Hamiltonians.

With [x, p] = 2i the corrections used below are
    <x p + p x>           = 2 <x p>_W
    <(x p + p x)^2>       = 4 <x^2 p^2>_W + 4
    <x^2 p^2 + p^2 x^2>   = 2 <x^2 p^2>_W - 4
"""

from dataclasses import dataclass

import numpy as np

GENERATOR_KINDS = ("displacement", "phase", "shear", "squeeze")

_COORD = {("A", "x"): 0, ("A", "p"): 1, ("B", "x"): 2, ("B", "p"): 3}


@dataclass(frozen=True)
class GeneratorSpec:
    """One of the four joint local Gaussian-gate Hamiltonians.

    kind selects among H = (p_A +- p_B)/2, H = N_A +- N_B,
    H = (x_A^2 +- x_B^2)/4 and H = (x_A p_A + p_A x_A +- x_B p_B +- p_B x_B)/4;
    sign is the relative sign; delta is the displacement unbalancing angle.
    """

    kind: str
    sign: int = +1
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"kind must be one of {GENERATOR_KINDS}, got {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.delta != 0.0 and self.kind != "displacement":
            raise ValueError("delta applies to the displacement generator only")


def moment_xp(state, i, n, j, m):
    """Weyl-ordered moment <x_i^n p_j^m> of the state (modes 'A'/'B').

    Same-mode mixed products (i == j) are symmetrically ordered. Orders with
    n + m > 4 are rejected.
    """
    if i not in ("A", "B") or j not in ("A", "B"):
        raise ValueError("modes must be 'A' or 'B'")
    if n < 0 or m < 0 or n + m > 4:
        raise ValueError(f"unsupported moment order n={n}, m={m} (need n + m <= 4)")
    idx = [_COORD[(i, "x")]] * n + [_COORD[(j, "p")]] * m
    return state.raw_moment(idx)


def quad_moment(state, x_a=0, p_a=0, x_b=0, p_b=0):
    """Weyl-ordered moment of a general quadrature monomial, total order <= 4."""
    powers = (x_a, p_a, x_b, p_b)
    if min(powers) < 0 or sum(powers) > 4:
        raise ValueError(f"unsupported moment order {powers} (total must be <= 4)")
    idx = [0] * x_a + [1] * p_a + [2] * x_b + [3] * p_b
    return state.raw_moment(idx)


def _displacement_coeffs(gen):
    c_a = np.cos(gen.delta + np.pi / 4) / np.sqrt(2.0)
    c_b = gen.sign * np.sin(gen.delta + np.pi / 4) / np.sqrt(2.0)
    return c_a, c_b


def _local_stats(state, mode):
    x = _COORD[(mode, "x")]
    p = _COORD[(mode, "p")]
    mom = state.raw_moment
    return x, p, mom


def generator_variance(state, gen, mode):
    """Variance of the local generator part H_A or H_B on the reduced state."""
    if mode not in ("A", "B"):
        raise ValueError("mode must be 'A' or 'B'")
    x, p, mom = _local_stats(state, mode)
    if gen.kind == "displacement":
        c_a, c_b = _displacement_coeffs(gen)
        c = c_a if mode == "A" else c_b
        return c * c * (mom([p, p]) - mom([p]) ** 2)
    if gen.kind == "phase":
        mean_n = (mom([x, x]) + mom([p, p])) / 4.0 - 0.5
        sq = (mom([x] * 4) + mom([p] * 4) + 2.0 * mom([x, x, p, p]) - 4.0) / 16.0 \
            - (mom([x, x]) + mom([p, p])) / 4.0 + 0.25
        return sq - mean_n**2
    if gen.kind == "shear":
        return (mom([x] * 4) - mom([x, x]) ** 2) / 16.0
    # squeeze: H = S(x p)/2 per mode
    mean_h = mom([x, p]) / 2.0
    sq = (mom([x, x, p, p]) + 1.0) / 4.0
    return sq - mean_h**2


def generator_covariance(state, gen):
    """Cov(H_A, H_B) on the joint state, including the relative sign.

    For a pure state the witness bound 8 Cov(H_A, H_B) reproduces the
    closed-form optimal witness of the matching generator.
    """
    mom = state.raw_moment
    xa, pa, xb, pb = 0, 1, 2, 3
    if gen.kind == "displacement":
        c_a, c_b = _displacement_coeffs(gen)
        return c_a * c_b * (mom([pa, pb]) - mom([pa]) * mom([pb]))
    if gen.kind == "phase":
        na = (mom([xa, xa]) + mom([pa, pa])) / 4.0 - 0.5
        nb = (mom([xb, xb]) + mom([pb, pb])) / 4.0 - 0.5
        cross = (
            mom([xa, xa, xb, xb]) + mom([xa, xa, pb, pb])
            + mom([pa, pa, xb, xb]) + mom([pa, pa, pb, pb])
            - 2.0 * (mom([xa, xa]) + mom([pa, pa]))
            - 2.0 * (mom([xb, xb]) + mom([pb, pb])) + 4.0
        ) / 16.0
        return gen.sign * (cross - na * nb)
    if gen.kind == "shear":
        cross = (mom([xa, xa, xb, xb]) - mom([xa, xa]) * mom([xb, xb])) / 16.0
        return gen.sign * cross
    # squeeze
    cross = mom([xa, pa, xb, pb]) / 4.0 - (mom([xa, pa]) / 2.0) * (mom([xb, pb]) / 2.0)
    return gen.sign * cross


def generator_total_variance(state, gen):
    """Var(H_A + H_B) with the relative sign folded into H_B."""
    return (
        generator_variance(state, gen, "A")
        + generator_variance(state, gen, "B")
        + 2.0 * generator_covariance(state, gen)
    )
