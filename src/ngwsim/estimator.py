"""Sampled estimation pipeline: exact mixture sampling, binning, Hellinger fit.

Reproduces the measurement-side procedure: draw homodyne outcomes from the
exact joint density, split the record in half, bin reference and displaced
probe halves, average squared Hellinger distances over a theta grid and fit a
parabola whose curvature gives the Fisher information, bias-corrected for the
finite sample and occupied-bin count. Randomness comes from the counter-based
Philox generator, so replicate streams are splittable and order-independent.
"""

import math
import numbers
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
    chi-3 distributed with a random sign. The draws come in a fixed order
    (m normal pairs, m uniforms choosing the components, one exponential per
    axis-component pair in record order), so the record is deterministic for
    a given (seed, stream) pair, where nonzero streams select jumped Philox
    substreams. No draw is rejected, so the acceptance rate is exactly 1.
    m must be an integer of at least 1; anything else raises ValueError.
    """
    if isinstance(m, (bool, np.bool_)) or not isinstance(m, numbers.Integral):
        raise ValueError(f"sample count must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("sample count must be at least 1")
    density = measurement_pdf(state, basis)
    weights, axes = _mixture(density)
    rng = _rng_for(seed, stream)
    v = rng.standard_normal((m, 2))
    u = rng.random(m)
    # uniforms below c keep the normal pair; the rest pick axis 1 below
    # c + d_1 and axis 2 above, as flat indices 2 row + axis into v
    flat = np.flatnonzero(u >= weights[0])
    axis = u[flat] >= weights[0] + weights[1]
    del u
    flat *= 2
    flat += axis
    del axis
    v_flat = v.reshape(-1)
    z = v_flat[flat]
    chi = rng.standard_exponential(flat.size)
    chi *= 2.0
    chi += z * z
    np.sqrt(chi, out=chi)
    np.copysign(chi, z, out=chi)
    v_flat[flat] = chi
    # the output matmul sets the peak memory: free the temporaries first
    del flat, z, chi
    pairs = v @ axes.T
    pairs += density.mean
    return SampleSet(
        pairs=pairs,
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


def _flat_cells(columns, shift, delta, half_range, side, positions=None):
    """Flat indices into the padded (side, side) table of the pairs
    (columns[0] - shift[0], columns[1] - shift[1]).

    Along each axis the cell is floor(((x - shift) + half_range) / delta) + 1,
    clipped to [0, side - 1]: the border rows and columns collect the pairs
    outside the grid. The floating-point steps are those of binning a shifted
    copy, so both give the same cells. A list passed as positions receives,
    per axis, each pair's position within its cell in units of delta.
    """
    flat = None
    for x, s in zip(columns, shift):
        t = x - s
        t += half_range
        t /= delta
        if positions is None:
            cell = np.floor(t, out=t)
        else:
            cell = np.floor(t)
            t -= cell
            positions.append(t)
        np.clip(cell, -1.0, side - 2.0, out=cell)
        if flat is None:
            flat = cell
        else:
            flat *= side
            flat += cell
    flat += side + 1.0
    return flat.astype(np.intp)


def _table(padded, n_pairs, delta, half_range):
    """BinnedHistogram of a padded (side, side) count table of n_pairs pairs."""
    counts = np.ascontiguousarray(padded[1:-1, 1:-1])
    total = int(counts.sum())
    return BinnedHistogram(delta=float(delta), half_range=float(half_range), counts=counts,
                           total=total, dropped=n_pairs - total)


def _histogram(columns, shift, delta, half_range, n_bins):
    """Histogram of the pairs (columns[0] - shift[0], columns[1] - shift[1]),
    counted in one np.bincount pass over the cells of _flat_cells."""
    side = n_bins + 2
    flat = _flat_cells(columns, shift, delta, half_range, side)
    return _table(np.bincount(flat, minlength=side * side).reshape(side, side),
                  flat.size, delta, half_range)


def _displaced_histograms(probe, thetas, direction, delta, half_range, n_bins):
    """Histograms of the probe pairs (columns) as they are and displaced by
    -theta * direction for each theta, re-binning only pairs a shift can move.

    One pass per axis gives each pair's cell and its position within it.
    Every theta of one sign moves a coordinate toward the same cell edge, by
    at most reach = max |theta d_k| / delta (+1e-9, far above the roundoff
    of a position inside the grid; pairs farther out stay clipped to the
    border). A pair farther than reach from that edge on both axes keeps its
    cell, so only the other pairs are binned again, with the exact steps of
    _flat_cells, and their counts replace their unshifted ones. When a shift
    reaches a whole cell every pair is binned again and nothing is gathered.

    Returns the unshifted histogram and an iterator over (k, histogram of
    the pairs displaced by thetas[k]).
    """
    side = n_bins + 2
    n_pairs = probe.shape[1]
    positions = []
    flat0 = _flat_cells(probe, (0.0, 0.0), delta, half_range, side, positions)
    table0 = np.bincount(flat0, minlength=side * side)

    def displaced():
        for group in (np.flatnonzero(thetas >= 0.0), np.flatnonzero(thetas < 0.0)):
            if group.size == 0:
                continue
            shifts = np.outer(thetas[group], direction)
            reach = np.abs(shifts).max(axis=0) / delta + 1e-9
            if reach.max() >= 1.0:
                columns, rest = probe, 0
            else:
                near = np.zeros(n_pairs, dtype=bool)
                for pos, toward_lower, r in zip(positions, shifts.sum(axis=0) > 0.0, reach):
                    near |= pos < r if toward_lower else pos > 1.0 - r
                near = np.flatnonzero(near)
                columns = probe.take(near, axis=1)
                rest = table0 - np.bincount(flat0.take(near), minlength=side * side)
            for k, shift in zip(group, shifts):
                flat = _flat_cells(columns, shift, delta, half_range, side)
                padded = rest + np.bincount(flat, minlength=side * side)
                yield k, _table(padded.reshape(side, side), n_pairs, delta, half_range)

    return _table(table0.reshape(side, side), n_pairs, delta, half_range), displaced()


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
    return _hellinger_sq(np.sqrt(ref.frequencies()), probe)


def _hellinger_sq(root_ref, probe):
    """hellinger_sq with the reference's square-root frequencies given."""
    diff = root_ref - np.sqrt(probe.frequencies())
    diff *= diff
    return 0.5 * float(np.sum(diff))


def default_theta_grid(theta_max=0.05, steps=20):
    """Symmetric displacement grid excluding zero (20 points by default)."""
    if not (np.isfinite(theta_max) and theta_max > 0.0):
        raise ValueError(f"theta grid needs a positive finite theta_max, got {theta_max!r}")
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
    F = a / (1/8 + (1 + n)/(32 (M/2))) with n the occupied-bin count. The
    displaced halves are binned by _displaced_histograms. A grid needs at
    least 4 finite points and two distinct |theta|.
    """
    if theta_grid is None:
        theta_grid = default_theta_grid()
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size < 4:
        raise ValueError("need at least 4 theta points for the parabola fit")
    if not np.isfinite(theta_grid).all():
        raise ValueError("theta grid must be finite")
    _check_distinct_squares(theta_grid)
    pairs = data.pairs
    m_half = len(pairs) // 2
    if m_half < 1:
        raise ValueError("sample record too small to split")
    _check_bin_size(delta)
    if half_range is None:
        half_range = default_half_range(pairs, delta)
    ref = bin_samples(pairs[:m_half], delta, half_range)
    probe = np.ascontiguousarray(_finite_pairs(pairs[m_half:2 * m_half]).T)
    direction = displacement_direction(sign, delta_axis)
    probe0, displaced = _displaced_histograms(probe, theta_grid, direction, delta,
                                              half_range, ref.n_bins)
    if ref.total == 0 or probe0.total == 0:
        raise ValueError("all samples fell outside the binning range")
    n_occ = int(np.count_nonzero((ref.counts > 0) | (probe0.counts > 0)))
    root_ref = np.sqrt(ref.frequencies())
    d2 = np.empty(theta_grid.size)
    for k, shifted in displaced:
        d2[k] = _hellinger_sq(root_ref, shifted)
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


def _check_distinct_squares(thetas):
    # one distinct theta^2 leaves the fit's normal matrix singular
    if np.unique(thetas * thetas).size < 2:
        raise ValueError("theta grid needs at least two distinct |theta| for the parabola fit")


def parabola_fit(thetas, d2):
    """Unweighted least squares of d2 on {1, theta^2} with free intercept.

    Returns (c0, a, se_c0, se_a) with standard errors from the residuals.
    Fewer than two distinct theta^2 raise ValueError.
    """
    thetas = np.asarray(thetas, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    _check_distinct_squares(thetas)
    design = np.column_stack([np.ones_like(thetas), thetas**2])
    coef, *_ = np.linalg.lstsq(design, d2, rcond=None)
    resid = d2 - design @ coef
    dof = thetas.size - 2
    resid_var = float(resid @ resid) / dof if dof > 0 else 0.0
    param_cov = resid_var * np.linalg.inv(design.T @ design)
    return (float(coef[0]), float(coef[1]),
            float(np.sqrt(param_cov[0, 0])), float(np.sqrt(param_cov[1, 1])))


def _variance_with_error(values):
    """Sample variance and its standard error from one centred pass; the
    variance takes np.var's steps (ddof=1), so it equals np.var bit for bit."""
    n = len(values)
    centered = values - values.mean()
    centered *= centered
    var = float(centered.sum() / (n - 1))
    centered *= centered
    m4 = float(np.mean(centered))
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
