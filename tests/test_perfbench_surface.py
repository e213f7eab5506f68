"""The package surface the benchmark harness in perfbench/ wraps and reads.

perfbench installs spans on the functions named in spans.TARGETS, its
COUNTERS read attributes of their return values, and its sampled workload
records every replicate call the fig6 reproduction makes. These tests fail
when the package changes any of that, before a traced benchmark run does.
"""

import importlib
import os
import sys

import numpy as np
import pytest

import ngwsim
import ngwsim.cli
from ngwsim import StateSpec, bin_samples, build_state, quadrature, sample

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import child  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def restored_namespaces():
    """Restore every loaded ngwsim module's namespace after the test."""
    modules = [m for n, m in sys.modules.items() if n == "ngwsim" or n.startswith("ngwsim.")]
    saved = [(m, dict(vars(m))) for m in modules]
    yield
    for module, namespace in saved:
        vars(module).update(namespace)


def test_every_target_resolves_and_is_wrapped(restored_namespaces):
    originals = {}
    for short, fname in spans.TARGETS:
        target = getattr(importlib.import_module(f"ngwsim.{short}"), fname)
        assert callable(target), f"ngwsim.{short}.{fname}"
        originals[short, fname] = target
    spans.install(spans.Tracer())
    for (short, fname), original in originals.items():
        wrapped = getattr(sys.modules[f"ngwsim.{short}"], fname)
        assert wrapped.__wrapped__ is original, f"ngwsim.{short}.{fname}"


def _finish(counter, fn, *args):
    args, kwargs, finish = counter(args, {})
    return finish(fn(*args, **kwargs))


def test_counters_read_real_return_values():
    counts = _finish(spans._integrate_counter, quadrature.integrate_adaptive,
                     lambda s: 1.0 / (1.0 + s) ** 2)
    assert counts["points"] == quadrature.NODES.size
    assert 0.0 <= counts["err_over_tol"] < 1.0

    state = build_state(StateSpec(0.2, 0.2))
    assert _finish(spans._sample_counter, sample, state, 1_000, 3) == {"pairs": 1_000,
                                                                       "draws": 1_000.0}

    record = sample(state, 1_000, 3)
    counts = _finish(spans._bin_counter, bin_samples, record, 0.2, 1.0)
    outside = np.any((record.pairs < -1.0) | (record.pairs >= 1.0), axis=1).sum()
    assert counts == {"pairs": 1_000, "dropped": outside} and outside > 0


def test_fig6_records_one_replicate_call_per_row(tmp_path, monkeypatch):
    # capture_replicates rebinds cli.replicate; monkeypatch restores it
    monkeypatch.setattr(ngwsim.cli, "replicate", ngwsim.cli.replicate)
    sink = []
    child.capture_replicates(ngwsim.cli, sink)
    out = tmp_path / "fig6"
    assert ngwsim.cli.main(["reproduce", "fig6", "--sample-counts", "2000,3000",
                            "--deltas", "0.2,0.4", "--reps", "2", "--out", str(out)]) == 0
    with open(out / "fig6_discretization.csv") as handle:
        header, *rows = [line.rstrip("\n").split(",") for line in handle][1:]
    assert len(sink) == len(rows) == 16
    for row, call in zip(rows, sink):
        fields = dict(zip(header, row))
        assert call["samples"] == int(fields["samples"])
        assert call["delta"] == float(fields["bin"])
        assert call["sign"] == (+1 if fields["subfig"] == "a" else -1)
        assert call["mean"] == float(fields["mean_e"])
        assert len(call["var_pa"]) == 2
