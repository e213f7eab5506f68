"""Tests of the benchmark harness's own logic.

Run from the repository root: python3 -m pytest -q perfbench/test_harness.py
"""

import itertools
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_excludes_nested_children():
    tracer = spans.Tracer(clock=ticking_clock())
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: (leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: middle())
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "middle", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    # clock ticks: outer 0..7, middle 1..6, leaves 2..3 and 4..5
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]
    assert spans.summarize(tracer.spans, wall=7.0)["trace.untraced_frac"] == 0.0


def test_untraced_share_counts_cli_self_time_and_gaps():
    tracer = spans.Tracer(clock=ticking_clock())
    leaf = tracer.wrap("state.build_state", lambda: None)
    tracer.wrap("cli.main", lambda: leaf())()
    # cli.main 0..3 with 2 s of self time, the leaf 1..2, and 1 s outside both
    layers = spans.summarize(tracer.spans, wall=4.0)
    assert layers["cli.self_s"] == 2.0
    assert layers["trace.untraced_frac"] == 0.75


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(clock=ticking_clock())

    def boom():
        raise RuntimeError("x")

    outer = tracer.wrap("outer", lambda: tracer.wrap("inner", boom)())
    with pytest.raises(RuntimeError):
        outer()
    assert tracer.spans[1][3] == 0 and tracer.spans[1][2] > tracer.spans[1][1]
    assert tracer._open == []


@pytest.mark.parametrize("count, expected", [
    (19, (0.0, 0.0)),      # p50 would leave only 9 calls beyond it
    (20, (50.0, 10.0)),
    (100, (90.0, 90.0)),   # p95 leaves 5 beyond, p90 leaves 10
    (1000, (99.0, 990.0)),
    (2000, (99.0, 1980.0)),  # p99.9 leaves 2 beyond
])
def test_tail_percentile_needs_ten_calls_beyond(count, expected):
    values = [float(v) for v in range(count, 0, -1)]
    assert spans.tail_percentile(values) == expected


def test_failed_cli_call_and_raising_load_are_counted(tmp_path):
    ops = [("cli", ["fi"]), ("cli", ["fi-angles"]), ("load", "missing.csv")]
    codes = iter([0, 1])

    def main(argv):
        assert argv[-2] == "--out"
        return next(codes)

    def load(path):
        raise FileNotFoundError(path)

    results, loaded = child.run_operations(ops, str(tmp_path), main, load)
    assert [r["rc"] for r in results] == [0, 1, None]
    assert loaded == []
    assert run.failed_operations(results, []) == {1, 2}
    assert run.failed_operations(results, [(0, "bad output")]) == {0, 1, 2}


def write_map(path, values):
    """A map over the angles 0 and pi/2 (both x-x and p-p points are on it)."""
    n = int(len(values) ** 0.5)
    lines = ["# ngw-sim v1, columns: phi_a,phi_b,fi,config_hash,seed",
             "phi_a,phi_b,fi,config_hash,seed"]
    for k, value in enumerate(values):
        lines.append(f"{k // n * math.pi / n!r},{k % n * math.pi / n!r},{value!r},abc,0")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("shear, failed_ops", [
    ([0.0, 1.0, 1.0, 1e-31], []),
    ([0.0, -1e-3, -1e-3, 0.0], [0]),      # negative FI
    ([0.0, 1e3, 1e3, 0.0], [0]),          # above the QFI
    ([0.0, 0.0, 0.0, 0.0], [0]),          # zero away from the x-x and p-p points
    ([0.0, 1.0, 1.0, 0.5], [0]),          # not zero at the p-p point
    ([0.0, 1.0, 1.0 + 1e-3, 0.0], [0, 1]),  # breaks the A<->B swap symmetry
])
def test_anglemap_check_rejects_bad_maps(tmp_path, shear, failed_ops):
    write_map(str(tmp_path / "op0" / "fi_angles_shear.csv"), shear)
    write_map(str(tmp_path / "op1" / "fi_angles_phase.csv"), [0.0, 2.0, 2.0, 0.0])
    checker = checks.Checker("anglemap", 0, ROOT)
    err, failures, _ = checker.check(str(tmp_path), {})
    assert sorted({op for op, _ in failures}) == failed_ops
    assert err < 1e-3 or failed_ops


def test_install_swaps_every_binding():
    import ngwsim
    import ngwsim.cli
    import ngwsim.fisher

    modules = [m for n, m in sys.modules.items() if n == "ngwsim" or n.startswith("ngwsim.")]
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert ngwsim.cli.fi_continuous is ngwsim.fisher.fi_continuous is ngwsim.fi_continuous
        assert ngwsim.cli.fi_continuous.__wrapped__ is not None
        state = ngwsim.cli.build_state(ngwsim.StateSpec(0.2, 0.2))
        ngwsim.cli.fi_continuous(state, ngwsim.GeneratorSpec("displacement"))
    finally:
        for module, namespace in saved:
            vars(module).update(namespace)
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["state.build_state", "fisher.fi_continuous",
                         "quadrature.integrate_adaptive"]
    assert tracer.spans[2][3] == 1
    assert tracer.spans[2][4]["points"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == [*run.TIMED, "ref_rel_err"]
    reported = [*spans.summarize([], wall=1.0), "trace_overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == reported
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.NAMES)


@pytest.mark.parametrize("excess, failed_ops", [(0.1, []), (1.0, [0])])
def test_sampled_check_gates_the_information_ceiling(tmp_path, excess, failed_ops):
    import ngwsim

    r, sign = 0.2, +1
    theory = float(ngwsim.eq_displacement(r, r, math.pi / 4, sign))
    var_a, var_b = checks.Checker("sampled", 0, ROOT)._variances(r, r, 0.0, sign)
    mean = theory + excess  # stderr 0.1 per replicate: SE of the mean 0.071
    cap = {"r_a": r, "r_b": r, "eta": 0.0, "delta": 0.1, "sign": sign, "mean": mean,
           "values": [mean, mean], "stderr": [0.1, 0.1],
           "var_pa": [4 * var_a] * 2, "var_pa_err": [0.01] * 2,
           "var_pb": [4 * var_b] * 2, "var_pb_err": [0.01] * 2}
    os.makedirs(tmp_path / "op0")
    with open(tmp_path / "op0" / "fig6_discretization.csv", "w", encoding="ascii") as handle:
        handle.write("# ngw-sim v1, columns: r_a,r_b,eta,bin,mean_e,theory_e\n"
                     "r_a,r_b,eta,bin,mean_e,theory_e\n"
                     f"{r!r},{r!r},0.0,0.1,{mean!r},{theory!r}\n")
    _, failures, notes = checks.Checker("sampled", 0, ROOT).check(str(tmp_path), {"replicates": [cap]})
    assert sorted({op for op, _ in failures}) == failed_ops
    assert notes[0].startswith("information ceiling")
