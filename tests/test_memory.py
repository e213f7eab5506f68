"""Memory bounds of the record path and of the estimator.

tracemalloc counts numpy's buffers and Python objects alike, so these peaks
are exact byte counts, not resident-set readings. The bounds scale with the
record: sampling holds the output and the temporaries of one drawn block;
writing and hashing hold one block, not a copy of the record or the file.
The estimator holds its count tables and one block of pairs: a replicate
never holds a record, and a fit of a record adds less than half of it.
"""

import os
import tracemalloc

import pytest

from ngwsim import StateSpec, build_state, estimate_fi, replicate, sample, save_samples_csv
from ngwsim.cli import write_manifest

M = 300_000
SPEC = StateSpec(0.2, 0.2, 0.1)
STATE = build_state(SPEC)


@pytest.fixture
def traced():
    """Peak bytes a call allocates on top of what is live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def peak_of(fn):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base

    try:
        yield peak_of
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def record_csv(tmp_path_factory):
    record = sample(STATE, M, seed=3)
    path = tmp_path_factory.mktemp("memory") / "samples.csv"
    save_samples_csv(record, path)
    return record, path


def test_sample_peak_is_the_record_plus_one_block(traced):
    sample(STATE, 10, seed=1)  # lazy imports of the first draw are not the record's
    record, peak = traced(lambda: sample(STATE, 1_000_000, seed=2))
    assert peak <= record.pairs.nbytes + 6_000_000


def test_writer_adds_a_block_not_a_copy(traced, record_csv, tmp_path):
    record, _ = record_csv
    record_bytes = record.pairs.nbytes
    path = tmp_path / "again.csv"
    _, peak = traced(lambda: save_samples_csv(record, path))
    assert peak <= 0.25 * record_bytes


def test_manifest_hashes_without_reading_the_whole_file(traced, record_csv, tmp_path):
    _, path = record_csv
    assert os.path.getsize(path) >= 10_000_000
    _, peak = traced(lambda: write_manifest(tmp_path / "samples.manifest", "sample",
                                            {}, "0" * 12, [path]))
    assert peak <= 2_000_000


def test_replicate_peak_does_not_grow_with_the_sample_count(traced):
    replicate(SPEC, 1_000, 1, seed=1, delta=0.1)  # lazy imports of the first run
    _, small = traced(lambda: replicate(SPEC, 500_000, 1, seed=2, delta=0.1))
    _, large = traced(lambda: replicate(SPEC, 2_000_000, 1, seed=2, delta=0.1))
    assert small <= 16_000_000
    assert large <= 1.2 * small + 1_000_000


def test_fit_adds_less_than_half_the_record(traced):
    record = sample(STATE, 1_000_000, seed=4)
    estimate_fi(sample(STATE, 1_000, seed=5))  # lazy imports of the first fit
    _, peak = traced(lambda: estimate_fi(record, delta=0.1))
    assert peak <= 0.5 * record.pairs.nbytes
