"""Sampled estimation pipeline: exact mixture sampling, binning, Hellinger fit.

Reproduces the measurement-side procedure: draw homodyne outcomes from the
exact joint density, split the record in half, bin reference and displaced
probe halves, average squared Hellinger distances over a theta grid and fit a
parabola whose curvature gives the Fisher information, bias-corrected for the
finite sample and occupied-bin count. Randomness comes from the counter-based
Philox generator, so replicate streams are splittable and order-independent.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .moments import displacement_direction
from .state import QuadratureBasis, P_BASIS, X_BASIS, build_state, measurement_pdf

@dataclass(frozen=True)
class SampleSet:
    """Homodyne outcome record: (x_A, x_B) pairs plus provenance."""

    pairs: np.ndarray
    seed: int = -1
    spec: object = None
    basis: QuadratureBasis = X_BASIS
    acceptance_rate: float = float("nan")

    def __len__(self):
        return len(self.pairs)


def _rng_for(seed, stream=0):
    bitgen = np.random.Philox(seed)
    if stream:
        bitgen = bitgen.jumped(stream)
    return np.random.Generator(bitgen)


def _mixture(density):
    """Exact mixture form of a measured density.

    In its whitened eigenframe y - mean = M v (JointDensity.eigenframe) the
    density is (c + d_1 v_1^2 + d_2 v_2^2) phi(v) with c = 1 - d_1 - d_2: the
    mixture of a standard normal (weight c) and, for each axis k (weight d_k),
    a chi distribution with 3 degrees of freedom and random sign on axis k
    times a standard normal on the other axis. Returns the weights
    (c, d_1, d_2) and M.
    """
    d, frame, _ = density.eigenframe()
    weights = np.array([1.0 - d.sum(), d[0], d[1]])
    if weights.min() < -1e-12:
        raise ValueError(f"density polynomial is negative somewhere (weights {weights})")
    return np.maximum(weights, 0.0), frame


def sample(state, m, seed, basis=X_BASIS, spec=None, stream=0):
    """Draw m i.i.d. outcomes from the measured joint density.

    Exact mixture sampling (see _mixture): every pair starts as a standard
    normal in the eigenframe; pairs drawn into an axis component get that
    coordinate z replaced by sign(z) sqrt(z^2 + 2E), E ~ Exp(1), which is
    chi-3 distributed with a random sign. Deterministic for a given
    (seed, stream) pair, where nonzero streams select jumped Philox
    substreams. No draw is rejected, so the acceptance rate is exactly 1.
    """
    if m < 1:
        raise ValueError("sample count must be at least 1")
    density = measurement_pdf(state, basis)
    weights, axes = _mixture(density)
    rng = _rng_for(seed, stream)
    v = rng.standard_normal((m, 2))
    comp = np.searchsorted(np.cumsum(weights)[:2], rng.random(m), side="right")
    rows = np.flatnonzero(comp)
    cols = comp[rows] - 1
    z = v[rows, cols]
    v[rows, cols] = np.copysign(np.sqrt(z * z + 2.0 * rng.standard_exponential(rows.size)), z)
    return SampleSet(
        pairs=v @ axes.T + density.mean,
        seed=seed,
        spec=spec,
        basis=basis,
        acceptance_rate=1.0,
    )


def displace_samples(data, theta, sign=+1, delta=0.0):
    """Shift every pair so the empirical law matches the displaced density:
    (x_A, x_B) -> (x_A - theta d_A, x_B - theta d_B)."""
    d = displacement_direction(sign, delta)
    return replace(data, pairs=data.pairs - theta * d)


@dataclass(frozen=True)
class BinnedHistogram:
    """2-D count table on a symmetric grid of even bin number per axis."""

    delta: float
    half_range: float
    counts: np.ndarray
    total: int
    dropped: int

    @property
    def n_bins(self):
        return self.counts.shape[0]

    def frequencies(self):
        if self.total == 0:
            raise ValueError("histogram holds no samples")
        return self.counts / self.total


def _finite_pairs(data):
    pairs = data.pairs if isinstance(data, SampleSet) else np.asarray(data)
    if not np.isfinite(pairs).all():
        raise ValueError("sample record holds non-finite pairs")
    return pairs


def _histogram(columns, shift, delta, half_range, n_bins):
    """Histogram of the pairs (columns[0] - shift[0], columns[1] - shift[1]),
    counted in one np.bincount pass over flat cell indices.

    Along each axis the cell is floor((x - shift + half_range) / delta) + 1,
    clipped to [0, n_bins + 1]: the border rows and columns of the padded
    table collect the pairs outside the grid. The floating-point steps are
    those of binning a shifted copy, so both give the same counts.
    """
    side = n_bins + 2
    flat = 0
    for x, s in zip(columns, shift):
        t = x - s
        t += half_range
        t /= delta
        np.floor(t, out=t)
        t += 1.0
        np.clip(t, 0.0, side - 1.0, out=t)
        flat = flat * side + t.astype(np.intp)
    padded = np.bincount(flat, minlength=side * side).reshape(side, side)
    counts = np.ascontiguousarray(padded[1:-1, 1:-1])
    total = int(counts.sum())
    return BinnedHistogram(delta=float(delta), half_range=float(half_range), counts=counts,
                           total=total, dropped=len(flat) - total)


def _check_bin_size(delta):
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"bin size delta must be positive and finite, got {delta!r}")


def bin_samples(data, delta, half_range):
    """Histogram sample pairs into half-open cells [edge, edge + delta).

    half_range must be a positive multiple of delta so the grid is symmetric
    about zero with an even number of bins per axis; out-of-range samples are
    dropped and counted. Non-finite pairs, delta or half_range raise ValueError.
    """
    _check_bin_size(delta)
    n_half = half_range / delta
    if not (np.isfinite(half_range) and half_range > 0.0) or abs(n_half - round(n_half)) > 1e-9:
        raise ValueError(f"half_range must be a finite positive multiple of delta: {half_range!r}")
    pairs = _finite_pairs(data)
    return _histogram(pairs.T, (0.0, 0.0), delta, half_range, 2 * int(round(n_half)))


def default_half_range(data, delta):
    """6 max-axis standard deviations, rounded up to a multiple of delta."""
    pairs = _finite_pairs(data)
    # one column at a time: a 1-D reduction is about 4x faster than axis=0 of (M, 2)
    spread = 6.0 * max(pairs[:, 0].std(ddof=1), pairs[:, 1].std(ddof=1))
    return math.ceil(spread / delta - 1e-9) * delta


def hellinger_sq(ref, probe):
    """Squared Hellinger distance between two equally-binned histograms."""
    if (ref.delta != probe.delta or ref.half_range != probe.half_range
            or ref.counts.shape != probe.counts.shape):
        raise ValueError("histograms must share the same binning geometry")
    diff = np.sqrt(ref.frequencies()) - np.sqrt(probe.frequencies())
    return 0.5 * float(np.sum(diff * diff))


def default_theta_grid(theta_max=0.05, steps=20):
    """Symmetric displacement grid excluding zero (20 points by default)."""
    if steps < 4 or steps % 2:
        raise ValueError("steps must be an even number >= 4")
    half = steps // 2
    pos = np.arange(1, half + 1) * (theta_max / half)
    return np.concatenate([-pos[::-1], pos])


@dataclass(frozen=True)
class HellingerFit:
    """Parabola fit of mean squared Hellinger distances over a theta grid."""

    thetas: np.ndarray
    d2: np.ndarray
    c0_hat: float
    a_hat: float
    n_occ: int
    f_raw: float
    f_corrected: float
    stderr: float
    stderr_c0: float
    m_half: int
    delta: float
    half_range: float


def estimate_fi(data, theta_grid=None, delta=0.1, half_range=None, sign=+1,
                delta_axis=0.0):
    """Hellinger-distance Fisher-information estimate from one sample record.

    The record of total size M is split in half; the first half is binned as
    the reference, the second half is displaced by each theta, binned, and the
    squared Hellinger distance is fit against c0 + a theta^2. The curvature
    gives F_raw = 8 a and the bias-corrected value
    F = a / (1/8 + (1 + n)/(32 (M/2))) with n the occupied-bin count.
    """
    if theta_grid is None:
        theta_grid = default_theta_grid()
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size < 4:
        raise ValueError("need at least 4 theta points for the parabola fit")
    if not np.isfinite(theta_grid).all():
        raise ValueError("theta grid must be finite")
    pairs = data.pairs
    m_half = len(pairs) // 2
    if m_half < 1:
        raise ValueError("sample record too small to split")
    _check_bin_size(delta)
    if half_range is None:
        half_range = default_half_range(pairs, delta)
    ref = bin_samples(pairs[:m_half], delta, half_range)
    probe0 = bin_samples(pairs[m_half:2 * m_half], delta, half_range)
    if ref.total == 0 or probe0.total == 0:
        raise ValueError("all samples fell outside the binning range")
    n_occ = int(np.count_nonzero((ref.counts > 0) | (probe0.counts > 0)))
    probe = np.ascontiguousarray(pairs[m_half:2 * m_half].T)
    direction = displacement_direction(sign, delta_axis)
    d2 = np.empty(theta_grid.size)
    for k, theta in enumerate(theta_grid):
        shifted = _histogram(probe, theta * direction, delta, half_range, ref.n_bins)
        d2[k] = hellinger_sq(ref, shifted)
    c0_hat, a_hat, se_c0, se_a = parabola_fit(theta_grid, d2)
    corr = 1.0 / 8.0 + (1.0 + n_occ) / (32.0 * m_half)
    return HellingerFit(
        thetas=theta_grid,
        d2=d2,
        c0_hat=c0_hat,
        a_hat=a_hat,
        n_occ=n_occ,
        f_raw=8.0 * a_hat,
        f_corrected=a_hat / corr,
        stderr=se_a / corr,
        stderr_c0=se_c0,
        m_half=m_half,
        delta=float(delta),
        half_range=float(half_range),
    )


def parabola_fit(thetas, d2):
    """Unweighted least squares of d2 on {1, theta^2} with free intercept.

    Returns (c0, a, se_c0, se_a) with standard errors from the residuals.
    """
    thetas = np.asarray(thetas, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    design = np.column_stack([np.ones_like(thetas), thetas**2])
    coef, *_ = np.linalg.lstsq(design, d2, rcond=None)
    resid = d2 - design @ coef
    dof = thetas.size - 2
    resid_var = float(resid @ resid) / dof if dof > 0 else 0.0
    param_cov = resid_var * np.linalg.inv(design.T @ design)
    return (float(coef[0]), float(coef[1]),
            float(np.sqrt(param_cov[0, 0])), float(np.sqrt(param_cov[1, 1])))


def _variance_with_error(values):
    n = len(values)
    var = float(np.var(values, ddof=1))
    centered = values - values.mean()
    centered *= centered
    m4 = float(np.mean(centered * centered))
    se_sq = (m4 - var**2 * (n - 3) / (n - 1)) / n
    return var, math.sqrt(max(se_sq, 0.0))


@dataclass(frozen=True)
class WitnessEstimate:
    e_value: float
    stderr: float
    fit: HellingerFit
    var_pa: float
    var_pb: float
    var_pa_err: float
    var_pb_err: float


def estimate_witness(x_data, p_data, theta_grid=None, delta=0.1,
                     half_range=None, sign=+1, delta_axis=0.0):
    """Assemble E = F - 4 (Var H_A + Var H_B) from an x-basis record (Fisher
    information via the Hellinger fit) and a companion p-basis record, with
    4 Var H_k = d_k^2 Var p_k for the displacement direction d (var_pa and
    var_pb hold the raw Var p_k). Errors combine in quadrature."""
    fit = estimate_fi(x_data, theta_grid, delta, half_range, sign, delta_axis)
    var_pa, err_a = _variance_with_error(p_data.pairs[:, 0])
    var_pb, err_b = _variance_with_error(p_data.pairs[:, 1])
    weight_a, weight_b = (displacement_direction(sign, delta_axis) ** 2).tolist()
    e_value = fit.f_corrected - (weight_a * var_pa + weight_b * var_pb)
    stderr = math.sqrt(fit.stderr**2 + (weight_a * err_a)**2 + (weight_b * err_b)**2)
    return WitnessEstimate(
        e_value=e_value,
        stderr=stderr,
        fit=fit,
        var_pa=var_pa,
        var_pb=var_pb,
        var_pa_err=err_a,
        var_pb_err=err_b,
    )


@dataclass(frozen=True)
class ReplicateSummary:
    values: np.ndarray
    mean: float
    std: float           # nan when reps == 1
    stderr_mean: float   # nan when reps == 1
    theory: float
    raw_mean: float      # witness from the uncorrected curvature
    overestimated: bool
    estimates: tuple


def replicate(spec, samples, reps, seed, delta=0.1, theta_grid=None,
              half_range=None, sign=+1, delta_axis=0.0, theory=None,
              workers=None):
    """Run the full witness estimate on independent seeded replicates.

    Each replicate draws its own x- and p-basis records of the given size from
    split Philox streams, so results do not depend on execution order. The
    overestimation flag marks configurations whose uncorrected witness exceeds
    the theory value by more than twice the standard error of the mean; the
    bias-corrected estimate removes most of that excess, so the raw value is
    the sensitive diagnostic for the small-bin, few-samples regime.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    state = build_state(spec)

    def one(i):
        x_data = sample(state, samples, seed, basis=X_BASIS, spec=spec, stream=2 * i)
        p_data = sample(state, samples, seed, basis=P_BASIS, spec=spec, stream=2 * i + 1)
        return estimate_witness(x_data, p_data, theta_grid, delta, half_range,
                                sign, delta_axis)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(one, range(reps)))
    else:
        estimates = [one(i) for i in range(reps)]
    values = np.array([est.e_value for est in estimates])
    raw_values = np.array([est.e_value - est.fit.f_corrected + est.fit.f_raw for est in estimates])
    mean = float(values.mean())
    raw_mean = float(raw_values.mean())
    if reps > 1:
        std = float(values.std(ddof=1))
        stderr_mean = std / math.sqrt(reps)
        raw_se = float(raw_values.std(ddof=1)) / math.sqrt(reps)
    else:
        std = float("nan")
        stderr_mean = float("nan")
        raw_se = float("nan")
    if theory is None:
        theory = float("nan")
    over = bool(reps > 1 and np.isfinite(theory) and raw_mean - theory > 2.0 * raw_se)
    return ReplicateSummary(
        values=values,
        mean=mean,
        std=std,
        stderr_mean=stderr_mean,
        theory=float(theory),
        raw_mean=raw_mean,
        overestimated=over,
        estimates=tuple(estimates),
    )


def _opened(path_or_buffer, mode):
    """An ASCII text file opened at a path, or an open handle left open."""
    if isinstance(path_or_buffer, (str, bytes, os.PathLike)):
        return open(path_or_buffer, mode, encoding="ascii")
    return nullcontext(path_or_buffer)


def save_samples_csv(data, path_or_buffer):
    """Write a sample record as CSV: the header x_a,x_b, then one line
    repr(x_a),repr(x_b) per pair, so every float reads back exactly."""
    with _opened(path_or_buffer, "w") as handle:
        handle.write("x_a,x_b\n")
        columns = np.asarray(data.pairs, dtype=float).T.tolist()
        handle.writelines(map("{!r},{!r}\n".format, *columns))


def load_samples_csv(path_or_buffer):
    """Read a sample record written by save_samples_csv; raise ValueError
    unless the header x_a,x_b precedes at least one line and every line holds
    two finite floats."""
    with _opened(path_or_buffer, "r") as handle:
        if handle.readline().strip() != "x_a,x_b":
            raise ValueError("expected CSV header 'x_a,x_b'")
        first = handle.readline()
        if not first.strip():
            raise ValueError("sample record has no pair on the line after its header")
        pairs = np.loadtxt(chain([first], handle), delimiter=",", comments=None, ndmin=2)
    if pairs.shape[1] != 2:
        raise ValueError(f"sample record rows must hold 2 fields, got {pairs.shape[1]}")
    return SampleSet(pairs=_finite_pairs(pairs))
