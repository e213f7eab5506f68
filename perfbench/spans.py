"""Spans recorded around calls into ngwsim, and the per-layer figures derived from them.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``counts`` holds the counters taken
at that boundary, or None. The self time of a span is its duration minus the
durations of its direct children, so the self times of all spans partition
the time covered by the top-level spans.

The tracer is not thread-safe: traced passes run with ``NGW_THREADS=1``, which
keeps every ngwsim call on the calling thread.

This module uses only the standard library, so importing it before ngwsim
does not shift the set-up time measured by a pass.
"""

import json
import math
import os
import statistics
import sys
import time

# (module, function) pairs that get a span, in the order they are installed.
TARGETS = (
    ("cli", "main"),
    ("cli", "write_csv"),
    ("cli", "write_manifest"),
    ("state", "build_state"),
    ("state", "apply_loss"),
    ("state", "measurement_pdf"),
    ("gaussian", "poly_gauss_moment"),
    ("moments", "generator_variance"),
    ("fisher", "fi_continuous"),
    ("fisher", "angle_grid_scan"),
    ("quadrature", "integrate_adaptive"),
    ("estimator", "sample"),
    ("estimator", "bin_samples"),
    ("estimator", "hellinger_sq"),
    ("estimator", "parabola_fit"),
    ("estimator", "estimate_fi"),
    ("estimator", "estimate_witness"),
    ("estimator", "replicate"),
    ("estimator", "save_samples_csv"),
    ("estimator", "load_samples_csv"),
)

# Highest percentile first; the tail reported is the first with at least
# TAIL_MIN_BEYOND calls above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Keeps spans in memory; write() dumps them at the end of a pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counter=None):
        """Return fn wrapped in a span named name.

        counter(args, kwargs) may return (args, kwargs, finish): the call then
        receives the returned arguments and finish(result) gives the span's
        counts dict.
        """
        def traced(*args, **kwargs):
            finish = None
            if counter is not None:
                args, kwargs, finish = counter(args, kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if finish is not None:
                span[4] = finish(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _integrate_counter(args, kwargs):
    f = args[0]
    points = [0]

    def counted(pts):
        points[0] += len(pts)
        return f(pts)

    rel_tol = kwargs.get("rel_tol", args[2] if len(args) > 2 else 1e-6)

    def finish(result):
        value, err = result
        return {"points": points[0],
                "err_over_tol": err / (rel_tol * max(abs(value), 1e-12))}

    return (counted,) + tuple(args[1:]), kwargs, finish


def _sample_counter(args, kwargs):
    def finish(result):
        pairs = len(result.pairs)
        return {"pairs": pairs, "draws": pairs / result.acceptance_rate}
    return args, kwargs, finish


def _bin_counter(args, kwargs):
    data = args[0]
    pairs = len(data.pairs) if hasattr(data, "pairs") else len(data)
    return args, kwargs, lambda result: {"pairs": pairs, "dropped": result.dropped}


def _save_counter(args, kwargs):
    rows = len(args[0].pairs)
    return args, kwargs, lambda result: {"rows": rows}


def _load_counter(args, kwargs):
    return args, kwargs, lambda result: {"rows": len(result.pairs)}


def _csv_bytes_counter(args, kwargs):
    path = args[0]
    return args, kwargs, lambda result: {"bytes": os.path.getsize(path)}


COUNTERS = {
    "quadrature.integrate_adaptive": _integrate_counter,
    "estimator.sample": _sample_counter,
    "estimator.bin_samples": _bin_counter,
    "estimator.save_samples_csv": _save_counter,
    "estimator.load_samples_csv": _load_counter,
    "cli.write_csv": _csv_bytes_counter,
}


def install(tracer):
    """Replace every traced function at each module attribute bound to it.

    ``from .x import f`` copies f into the importing module, so the function
    is swapped in every loaded ngwsim module and in the package namespace,
    not only in the module that defines it.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "ngwsim" or n.startswith("ngwsim.")]
    for short, fname in TARGETS:
        owner = sys.modules[f"ngwsim.{short}"]
        original = getattr(owner, fname)
        name = f"{short}.{fname}"
        wrapper = tracer.wrap(name, original, COUNTERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tail_percentile(values):
    """(percentile, value) for the highest TAIL_LADDER percentile that has at
    least TAIL_MIN_BEYOND values above it (nearest-rank); (0.0, 0.0) if none."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 0.0, 0.0


def summarize(spans, wall):
    """Per-layer figures of one traced pass of the given wall time."""
    own = self_times(spans)
    calls, self_s, durations, counts = {}, {}, {}, {}
    for (name, start, end, _, cnt), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        durations.setdefault(name, []).append(end - start)
        for key, value in (cnt or {}).items():
            bucket = counts.setdefault(name, {})
            if key == "err_over_tol":
                bucket[key] = max(bucket.get(key, 0.0), value)
            else:
                bucket[key] = bucket.get(key, 0) + value

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    def n(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fi_ms = [d * 1e3 for d in durations.get("fisher.fi_continuous", [])]
    tail_pct, tail_ms = tail_percentile(fi_ms)
    out = {
        "quadrature.integrate_adaptive.calls": c("quadrature.integrate_adaptive"),
        "quadrature.integrate_adaptive.self_s": t("quadrature.integrate_adaptive"),
        "quadrature.points": n("quadrature.integrate_adaptive", "points"),
        "quadrature.points_per_call": ratio(n("quadrature.integrate_adaptive", "points"),
                                            c("quadrature.integrate_adaptive")),
        "quadrature.err_over_tol_max": n("quadrature.integrate_adaptive", "err_over_tol"),
        "fisher.fi_continuous.calls": c("fisher.fi_continuous"),
        "fisher.fi_continuous.self_s": t("fisher.fi_continuous"),
        "fisher.fi_continuous.p50_ms": statistics.median(fi_ms) if fi_ms else 0.0,
        "fisher.fi_continuous.tail_ms": tail_ms,
        "fisher.fi_continuous.tail_pct": tail_pct,
        "fisher.angle_grid_scan.self_s": t("fisher.angle_grid_scan"),
    }
    for name in ("state.build_state", "state.apply_loss", "state.measurement_pdf",
                 "gaussian.poly_gauss_moment", "moments.generator_variance"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = t(name)
    pairs, draws = n("estimator.sample", "pairs"), n("estimator.sample", "draws")
    binned = n("estimator.bin_samples", "pairs")
    out.update({
        "estimator.sample.calls": c("estimator.sample"),
        "estimator.sample.self_s": t("estimator.sample"),
        "estimator.sample.pairs": pairs,
        "estimator.sample.draws": draws,
        "estimator.sample.acceptance": ratio(pairs, draws),
        "estimator.bin_samples.calls": c("estimator.bin_samples"),
        "estimator.bin_samples.self_s": t("estimator.bin_samples"),
        "estimator.bin_samples.pairs": binned,
        "estimator.bin_samples.dropped_frac": ratio(n("estimator.bin_samples", "dropped"), binned),
    })
    for name in ("hellinger_sq", "parabola_fit", "estimate_fi", "estimate_witness", "replicate"):
        out[f"estimator.{name}.self_s"] = t(f"estimator.{name}")
    for name in ("save_samples_csv", "load_samples_csv"):
        out[f"estimator.{name}.self_s"] = t(f"estimator.{name}")
        out[f"estimator.{name}.rows"] = n(f"estimator.{name}", "rows")
    out.update({
        "cli.write_csv.self_s": t("cli.write_csv"),
        "cli.write_csv.bytes": n("cli.write_csv", "bytes"),
        "cli.write_manifest.self_s": t("cli.write_manifest"),
        "cli.self_s": t("cli.main"),
        # share of the wall in no layer span: cli.main's self time (the part
        # of a command no finer span covers) plus the time outside every span
        "trace.untraced_frac": ratio(wall - sum(own) + t("cli.main"), wall),
    })
    return out
