"""Sampled estimation pipeline: exact mixture sampling, binning, Hellinger fit.

Reproduces the measurement-side procedure: draw homodyne outcomes from the
exact joint density, split the record in half, bin reference and displaced
probe halves, average squared Hellinger distances over a theta grid and fit a
parabola whose curvature gives the Fisher information, bias-corrected for the
finite sample and occupied-bin count. Every record comes from an SFC64
generator keyed by the seed and a structural spawn key of numpy's
SeedSequence: a replicate draws, bins and reduces its records block by
block, each block from its own keyed stream, so results are
order-independent and memory does not grow with the sample count.
"""

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .moments import displacement_direction
from .state import P_BASIS, X_BASIS, build_state, measurement_pdf

@dataclass(frozen=True)
class SampleSet:
    """Homodyne outcome record: (x_A, x_B) pairs and the sampler's acceptance
    rate (nan for a record it did not draw)."""

    pairs: np.ndarray
    acceptance_rate: float = float("nan")

    def __len__(self):
        return len(self.pairs)


# Rows per block of the finiteness check and of the CSV writer. A block's
# temporaries stay near a megabyte while the per-block overhead is negligible.
BLOCK = 1 << 14

# Pairs per block of every drawn record: sample and replicate draw this many
# pairs at a time, each block from its own keyed stream, and every record is
# binned and reduced a block at a time, so no step holds temporaries the size
# of a record.
STREAM_BLOCK = 1 << 16


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


def _check_seed(seed):
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # SeedSequence pads a seed to its 128-bit pool and appends the key, so
    # the high words of a larger seed would read as key entries
    if seed >= 2**128:
        raise ValueError(f"seed must be below 2**128, got {seed}")


def _check_stream(stream):
    # SeedSequence splits a larger key entry into 32-bit words, so (2**32,)
    # would be the key (0, 1); below 2**32 keys of different lengths differ
    if not (_is_integer(stream) and 0 <= stream < 2**32):
        raise ValueError(f"stream must be a non-negative integer below 2**32, got {stream}")


def _check_count(m, least, what):
    if not (_is_integer(m) and m >= least):
        raise ValueError(f"{what} must be an integer of at least {least}, got {m!r}")


def _rng_for(seed, key):
    """Generator on SFC64, seeded by SeedSequence(seed, spawn_key=key). Keys
    are structural: (stream, block) for sample and (i, part, block) for
    replicate, so a replicate block never repeats a sample record's stream."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _draw_block(density, rng, n):
    """(2, n) column block of n pairs drawn from a JointDensity's mixture
    form (see sample): (2, n) standard normals, then n uniforms choosing each
    pair's component and n exponentials, one per pair."""
    v = rng.standard_normal((2, n))
    u = rng.random(n)
    two_e = rng.standard_exponential(n)
    two_e *= 2.0
    # a uniform below c keeps the normal pair; below c + d_1 it replaces
    # axis 1, above it axis 2
    c, c_d1 = density.weights[0], density.weights[0] + density.weights[1]
    for z, chosen in zip(v, ((u >= c) & (u < c_d1), u >= c_d1)):
        np.copyto(z, np.copysign(np.sqrt(z * z + two_e), z), where=chosen)
    block = density.frame @ v
    block += density.mean[:, None]
    return block


def _blocks_drawn(density, seed, key, count):
    """count pairs as (2, n) column blocks of at most STREAM_BLOCK pairs,
    block b drawn from the stream keyed key + (b,)."""
    for b, s in enumerate(range(0, count, STREAM_BLOCK)):
        yield _draw_block(density, _rng_for(seed, (*key, b)), min(STREAM_BLOCK, count - s))


def sample(state, m, seed, basis=X_BASIS, stream=0):
    """Draw m i.i.d. outcomes from the measured joint density.

    Exact sampling of the density's mixture form (JointDensity): every pair
    starts as a standard normal in the eigenframe; pairs drawn into an axis
    component get that coordinate z replaced by sign(z) sqrt(z^2 + 2E),
    E ~ Exp(1), a signed chi-3 draw. The record is drawn STREAM_BLOCK pairs
    at a time, block b from one SFC64 generator keyed by (seed, (stream, b))
    (_rng_for), in a fixed order: the block's normal pairs, one uniform per
    pair choosing its component, then one exponential per pair. So the
    record is deterministic for a given (seed, stream) pair, and the memory
    peak is the record plus one block's temporaries. No draw is rejected, so
    the acceptance rate is exactly 1. m must be an integer of at least 1,
    seed a non-negative integer below 2^128 and stream one below 2^32;
    anything else raises ValueError.
    """
    _check_count(m, 1, "sample count")
    _check_seed(seed)
    _check_stream(stream)
    density = measurement_pdf(state, basis)
    pairs = np.empty((m, 2))
    for s, block in zip(range(0, m, STREAM_BLOCK), _blocks_drawn(density, seed, (stream,), m)):
        pairs[s:s + STREAM_BLOCK] = block.T
    return SampleSet(pairs=pairs, acceptance_rate=1.0)


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


def _finite_pairs(data):
    pairs = data.pairs if isinstance(data, SampleSet) else np.asarray(data)
    # a block at a time: no mask the size of the record
    if not all(np.isfinite(pairs[s:s + BLOCK]).all() for s in range(0, len(pairs), BLOCK)):
        raise ValueError("sample record holds non-finite pairs")
    return pairs


def _blocks(pairs, start=0, stop=None):
    """Consecutive (2, n) column views of at most STREAM_BLOCK pairs of
    pairs[start:stop], the layout of a drawn block."""
    stop = len(pairs) if stop is None else stop
    for s in range(start, stop, STREAM_BLOCK):
        yield pairs[s:min(s + STREAM_BLOCK, stop)].T


def _flat_cells(columns, shift, delta, half_range, side):
    """Flat indices into the padded (side, side) table of the pairs
    (columns[0] - shift[0], columns[1] - shift[1]).

    Along each axis the cell is floor(((x - shift) + half_range) / delta) + 1,
    clipped to [0, side - 1]: the border rows and columns collect the pairs
    outside the grid. The floating-point steps are those of binning a shifted
    copy, so both give the same cells.
    """
    flat = None
    for x, s in zip(columns, shift):
        t = x - s
        t += half_range
        t /= delta
        cell = np.floor(t, out=t)
        np.clip(cell, -1.0, side - 2.0, out=cell)
        if flat is None:
            flat = cell
        else:
            flat *= side
            flat += cell
    flat += side + 1.0
    return flat.astype(np.intp)


def _add_cells(table, flat):
    """Count the flat cell indices into a flat padded table."""
    table += np.bincount(flat, minlength=table.size)


def _interior(table, side):
    """The (side - 2, side - 2) grid cells of a flat padded table, a view."""
    return table.reshape(side, side)[1:-1, 1:-1]


def _check_bin_size(delta):
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"bin size delta must be positive and finite, got {delta!r}")


def _grid_bins(delta, half_range):
    """Bins per axis of the grid [-half_range, half_range)^2 of cell size
    delta; raise ValueError unless delta is positive and finite and
    half_range is a finite positive multiple of it."""
    _check_bin_size(delta)
    n_half = half_range / delta
    if not (np.isfinite(half_range) and half_range > 0.0) or abs(n_half - round(n_half)) > 1e-9:
        raise ValueError(f"half_range must be a finite positive multiple of delta: {half_range!r}")
    return 2 * int(round(n_half))


def bin_samples(data, delta, half_range):
    """Histogram sample pairs into half-open cells [edge, edge + delta).

    half_range must be a positive multiple of delta so the grid is symmetric
    about zero with an even number of bins per axis; out-of-range samples are
    dropped and counted. Non-finite pairs, delta or half_range raise ValueError.
    """
    side = _grid_bins(delta, half_range) + 2
    pairs = _finite_pairs(data)
    table = np.zeros(side * side, dtype=np.int64)
    for block in _blocks(pairs):
        _add_cells(table, _flat_cells(block, (0.0, 0.0), delta, half_range, side))
    counts = np.ascontiguousarray(_interior(table, side))
    total = int(counts.sum())
    return BinnedHistogram(delta=float(delta), half_range=float(half_range), counts=counts,
                           total=total, dropped=len(pairs) - total)


class _Moments:
    """Count and power sums S_1 ... S_4 of each column of a stream of (2, n)
    column blocks of finite pairs, taken about the first block's column
    means, so the sums of a record far from the origin do not cancel.
    """

    def __init__(self):
        self.n = 0
        self.shift = None
        self.sums = np.zeros((4, 2))

    def add(self, columns):
        if self.shift is None:
            self.shift = columns.mean(axis=1)[:, None]
        dev = columns - self.shift
        sq = dev * dev
        self.sums += (dev.sum(axis=1), sq.sum(axis=1), np.einsum("ij,ij->i", sq, dev),
                      np.einsum("ij,ij->i", sq, sq))
        self.n += columns.shape[1]

    def variances(self):
        """(sample variances, their standard errors) of the two columns: the
        ddof=1 variance and sqrt((m_4 - var^2 (n - 3) / (n - 1)) / n), with
        m_4 the fourth central moment; both are formed from the sums here."""
        n = self.n
        mu, s2, s3, s4 = self.sums / n
        mu_sq = mu * mu
        var = (s2 - mu_sq) * n / (n - 1)
        m4 = s4 - 4.0 * mu * s3 + 6.0 * mu_sq * s2 - 3.0 * mu_sq * mu_sq
        se_sq = (m4 - var * var * (n - 3) / (n - 1)) / n
        return var.tolist(), np.sqrt(np.maximum(se_sq, 0.0)).tolist()


def _six_sigma(variance, delta):
    """6 standard deviations, rounded up to a multiple of delta."""
    return math.ceil(6.0 * math.sqrt(variance) / delta - 1e-9) * delta


def _record_variances(data):
    """_Moments.variances of a record, reduced a block at a time."""
    moments = _Moments()
    for block in _blocks(_finite_pairs(data)):
        moments.add(block)
    return moments.variances()


def default_half_range(data, delta):
    """6 max-axis standard deviations of the record, rounded up to a multiple
    of delta; a record whose spread rounds to 0 raises ValueError."""
    variance = max(_record_variances(data)[0])
    half_range = _six_sigma(variance, delta) if variance > 0.0 else 0.0
    if half_range == 0.0:
        raise ValueError("sample record has zero spread, so it sets no binning half range; "
                         "give half_range")
    return half_range


def hellinger_sq(ref, probe):
    """Squared Hellinger distance between two equally-binned histograms."""
    if (ref.delta != probe.delta or ref.half_range != probe.half_range
            or ref.counts.shape != probe.counts.shape):
        raise ValueError("histograms must share the same binning geometry")
    return _hellinger_sq(_root_frequencies(ref.counts), _root_frequencies(probe.counts))


def _hellinger_sq(root_ref, root_probe):
    """hellinger_sq of two tables' square-root frequencies."""
    diff = root_ref - root_probe
    diff *= diff
    return 0.5 * float(np.sum(diff))


def _root_frequencies(counts):
    total = int(counts.sum())
    if total == 0:
        raise ValueError("histogram holds no samples")
    return np.sqrt(counts / total)


def default_theta_grid(theta_max=0.05, steps=20):
    """Symmetric displacement grid excluding zero (20 points by default)."""
    if not (np.isfinite(theta_max) and theta_max > 0.0):
        raise ValueError(f"theta grid needs a positive finite theta_max, got {theta_max!r}")
    if steps < 4 or steps % 2:
        raise ValueError("steps must be an even number >= 4")
    half = steps // 2
    pos = np.arange(1, half + 1) * (theta_max / half)
    return np.concatenate([-pos[::-1], pos])


def _checked_grid(theta_grid):
    """The theta grid as a float array (default_theta_grid() for None), after
    checking it holds at least 4 finite points and two distinct |theta|."""
    thetas = np.asarray(default_theta_grid() if theta_grid is None else theta_grid, dtype=float)
    if thetas.size < 4:
        raise ValueError("need at least 4 theta points for the parabola fit")
    if not np.isfinite(thetas).all():
        raise ValueError("theta grid must be finite")
    _check_distinct_squares(thetas)
    return thetas


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
    m_half: int
    delta: float
    half_range: float


class _HellingerTally:
    """The count tables of one Hellinger fit, filled a (2, n) column block of
    pairs at a time.

    Reference blocks are counted into one table; probe blocks into the
    unshifted table and into one table per theta of the pairs displaced by
    -theta * direction. Tables are flat padded tables (_flat_cells) of int32
    counts, int64 above 2^31 pairs per half. Counts add up exactly, so the
    tables and the fit do not depend on how the halves are cut into blocks.
    Blocks must hold finite pairs; the callers check records.

    A probe block re-bins only the pairs a shift can move. Every theta of one
    sign moves a coordinate toward the same cell edge, by at most
    reach = max |theta d_k| / delta (+1e-9, far above the roundoff of a
    position inside the grid; pairs farther out stay clipped to the border).
    The pairs whose unshifted position within their cell lies within reach of
    that edge on either axis are marked. The other pairs keep their cells and
    go into the sign's kept table; the marked ones are binned again for each
    theta, with the exact steps of _flat_cells, into that theta's moved table.
    When a shift reaches a whole cell every pair is marked, so the kept table
    stays empty.
    """

    def __init__(self, thetas, direction, delta, half_range, m_half):
        side = _grid_bins(delta, half_range) + 2
        cells = side * side
        dtype = np.int32 if m_half <= np.iinfo(np.int32).max else np.int64
        self.thetas, self.m_half = thetas, m_half
        self.geometry = (delta, half_range, side)
        self.reference = np.zeros(cells, dtype)
        self.probe = np.zeros(cells, dtype)
        self.moved = np.zeros((thetas.size, cells), dtype)
        self.groups = []
        for group in (np.flatnonzero(thetas >= 0.0), np.flatnonzero(thetas < 0.0)):
            if group.size:
                shifts = np.outer(thetas[group], direction)
                reach = np.abs(shifts).max(axis=0) / delta + 1e-9
                self.groups.append((group, shifts, reach, shifts.sum(axis=0) > 0.0,
                                    np.zeros(cells, dtype)))

    def add_reference(self, columns):
        _add_cells(self.reference, _flat_cells(columns, (0.0, 0.0), *self.geometry))

    def add_probe(self, columns):
        delta, half_range, _ = self.geometry
        near = [np.zeros(columns.shape[1], dtype=bool) for _ in self.groups]
        for axis, x in enumerate(columns):
            # the position within the unshifted cell, in units of delta
            pos = (x + half_range) / delta
            pos -= np.floor(pos)
            for (_, _, reach, toward_lower, _), mask in zip(self.groups, near):
                r = reach[axis]
                mask |= pos < r if toward_lower[axis] else pos > 1.0 - r
        flat0 = _flat_cells(columns, (0.0, 0.0), *self.geometry)
        _add_cells(self.probe, flat0)
        for (group, shifts, _, _, kept), mask in zip(self.groups, near):
            _add_cells(kept, flat0[~mask])
            moving = columns.compress(mask, axis=1)
            for k, shift in zip(group, shifts):
                _add_cells(self.moved[k], _flat_cells(moving, shift, *self.geometry))

    def displaced(self):
        """(k, grid counts of the probe pairs displaced by thetas[k]) for
        every k, sign group by sign group."""
        side = self.geometry[2]
        for group, _, _, _, kept in self.groups:
            for k in group:
                yield k, _interior(self.moved[k] + kept, side)

    def fit(self):
        """HellingerFit of the tables: the squared Hellinger distance of each
        displaced probe table from the reference, fit against c0 + a theta^2."""
        delta, half_range, side = self.geometry
        ref, probe = _interior(self.reference, side), _interior(self.probe, side)
        if not (ref.any() and probe.any()):
            raise ValueError("all samples fell outside the binning range")
        n_occ = int(np.count_nonzero((ref > 0) | (probe > 0)))
        root_ref = _root_frequencies(ref)
        d2 = np.empty(self.thetas.size)
        for k, counts in self.displaced():
            d2[k] = _hellinger_sq(root_ref, _root_frequencies(counts))
        c0_hat, a_hat, _, se_a = parabola_fit(self.thetas, d2)
        corr = 1.0 / 8.0 + (1.0 + n_occ) / (32.0 * self.m_half)
        return HellingerFit(
            thetas=self.thetas,
            d2=d2,
            c0_hat=c0_hat,
            a_hat=a_hat,
            n_occ=n_occ,
            f_raw=8.0 * a_hat,
            f_corrected=a_hat / corr,
            stderr=se_a / corr,
            m_half=self.m_half,
            delta=float(delta),
            half_range=float(half_range),
        )


def estimate_fi(data, theta_grid=None, delta=0.1, half_range=None, sign=+1,
                delta_axis=0.0):
    """Hellinger-distance Fisher-information estimate from one sample record.

    The record of total size M is split in half; the first half is binned as
    the reference, the second half is displaced by each theta, binned, and the
    squared Hellinger distance is fit against c0 + a theta^2. The curvature
    gives F_raw = 8 a and the bias-corrected value
    F = a / (1/8 + (1 + n)/(32 (M/2))) with n the occupied-bin count. The
    halves are fed block by block through _fit, the path replicate streams
    its draws through. A grid needs at least 4 finite points and two
    distinct |theta|. Without half_range the grid spans default_half_range.
    """
    thetas = _checked_grid(theta_grid)
    pairs = _finite_pairs(data)
    m_half = len(pairs) // 2
    if m_half < 1:
        raise ValueError("sample record too small to split")
    _check_bin_size(delta)
    if half_range is None:
        half_range = default_half_range(pairs, delta)
    tally = _HellingerTally(thetas, displacement_direction(sign, delta_axis), delta,
                            half_range, m_half)
    return _fit(tally, _blocks(pairs, 0, m_half), _blocks(pairs, m_half, 2 * m_half))


def _fit(tally, reference_blocks, probe_blocks):
    """HellingerFit of a tally fed two halves as (2, n) column blocks."""
    for block in reference_blocks:
        tally.add_reference(block)
    for block in probe_blocks:
        tally.add_probe(block)
    return tally.fit()


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


@dataclass(frozen=True)
class WitnessEstimate:
    e_value: float
    stderr: float
    fit: HellingerFit
    var_pa: float
    var_pb: float
    var_pa_err: float
    var_pb_err: float


def _witness(fit, p_variances, direction):
    """WitnessEstimate of a Hellinger fit and the (variances, standard errors)
    of a p record (_Moments.variances)."""
    (var_pa, var_pb), (err_a, err_b) = p_variances
    weight_a, weight_b = (direction ** 2).tolist()
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


def estimate_witness(x_data, p_data, theta_grid=None, delta=0.1,
                     half_range=None, sign=+1, delta_axis=0.0):
    """Assemble E = F - 4 (Var H_A + Var H_B) from an x-basis record (Fisher
    information via the Hellinger fit) and a companion p-basis record, with
    4 Var H_k = d_k^2 Var p_k for the displacement direction d (var_pa and
    var_pb hold the raw Var p_k, reduced block by block by _Moments). Errors
    combine in quadrature."""
    fit = estimate_fi(x_data, theta_grid, delta, half_range, sign, delta_axis)
    return _witness(fit, _record_variances(p_data), displacement_direction(sign, delta_axis))


# The p record of replicate i (part 2) depends on the state, the sample
# count, the seed and i alone, so every bin size, sign, theta grid and half
# range shares it; only the floats are kept. 1024 entries hold the default
# fig6's 4 states x 4 counts x 30 replicates (480) at well under a megabyte.
@functools.lru_cache(maxsize=1024)
def _p_variances(spec, samples, seed, i):
    """_Moments.variances of the p record of replicate i of spec, as tuples."""
    density = measurement_pdf(build_state(spec), P_BASIS)
    moments = _Moments()
    for block in _blocks_drawn(density, seed, (i, 2), samples):
        moments.add(block)
    var, err = moments.variances()
    return tuple(var), tuple(err)


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

    Each replicate estimates from an x-basis and a p-basis record of the
    given size but never holds one: the x record's reference half, its probe
    half and the p record are drawn STREAM_BLOCK pairs at a time. Block b of
    part j of replicate i (part 0 is the x record's reference half, 1 its
    probe half and 2 the p record) comes from the stream keyed (i, j, b)
    (_rng_for), whatever the bin size, and is dropped once it is counted
    into the Hellinger tables or the running moments of p. The p record
    reads neither the bin size nor the sign, theta grid or half range, so its
    variances are reduced once per (spec, samples, seed, replicate) and kept
    in a bounded cache (_p_variances) for every later call. reps must be an
    integer of at least 1, seed a non-negative integer below 2^128 and
    workers None or a non-negative integer; above 1 the replicates run on
    that many threads, with the same results.
    Without half_range the grid spans 6 standard deviations of the model's
    wider x axis, rounded up to delta. Every argument is checked before the
    first draw. The overestimation flag marks configurations whose uncorrected
    witness exceeds the theory value by more than twice the standard error
    of the mean; the bias-corrected estimate removes most of that excess, so
    the raw value is the sensitive diagnostic for the small-bin, few-samples
    regime.
    """
    _check_count(samples, 2, "samples per replicate")
    _check_count(reps, 1, "reps")
    _check_seed(seed)
    if not (workers is None or (_is_integer(workers) and workers >= 0)):
        raise ValueError(f"workers must be None or a non-negative integer, got {workers!r}")
    thetas = _checked_grid(theta_grid)
    direction = displacement_direction(sign, delta_axis)
    state = build_state(spec)
    x_density = measurement_pdf(state, X_BASIS)
    _check_bin_size(delta)
    if half_range is None:
        half_range = _six_sigma(float(np.diag(x_density.covariance()).max()), delta)
    m_half = samples // 2

    def one(i):
        fit = _fit(_HellingerTally(thetas, direction, delta, half_range, m_half),
                   _blocks_drawn(x_density, seed, (i, 0), m_half),
                   _blocks_drawn(x_density, seed, (i, 1), m_half))
        return _witness(fit, _p_variances(spec, samples, seed, i), direction)

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
        std = stderr_mean = raw_se = float("nan")
    theory = float("nan") if theory is None else theory
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
    repr(x_a),repr(x_b) per pair, so every float reads back exactly. Rows are
    formatted BLOCK at a time. A record load_samples_csv would refuse, one
    that is not (m >= 1, 2) finite pairs, raises ValueError before anything
    is written."""
    pairs = np.asarray(data.pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) < 1:
        raise ValueError(f"sample record must hold (m >= 1, 2) pairs, got shape {pairs.shape}")
    _finite_pairs(pairs)
    with _opened(path_or_buffer, "w") as handle:
        handle.write("x_a,x_b\n")
        for s in range(0, len(pairs), BLOCK):
            handle.writelines(map("{!r},{!r}\n".format, *pairs[s:s + BLOCK].T.tolist()))


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
