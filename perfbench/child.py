"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py '<request JSON>'

The request gives the workload, seed, pass directory and whether to trace.
The parent pins NGW_THREADS and the BLAS/OpenMP thread counts in this
process's environment, so they hold before numpy is imported. The pass
prints one JSON line: set-up time, the pass's wall and CPU time, peak
resident memory, the result of each operation, and the products the output
checks need. A traced pass also writes its spans to spans.json in the pass
directory.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import spans
import workloads


def run_operations(ops, pass_dir, main, load):
    """Run the operations in order and return (results, loaded records).

    A CLI call that returns non-zero or any call that raises is recorded as
    failed and the pass goes on with the next operation.
    """
    results, loaded = [], []
    for k, (kind, arg) in enumerate(ops):
        sink = io.StringIO()
        try:
            if kind == "cli":
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = main(list(arg) + ["--out", os.path.join(pass_dir, f"op{k}")])
            else:
                loaded.append(load(os.path.join(pass_dir, arg)))
                rc = 0
        except Exception as exc:  # the pass records the failure and continues
            rc, sink = None, io.StringIO(repr(exc))
        results.append({"rc": rc, "message": sink.getvalue()[-500:] if rc != 0 else ""})
    return results, loaded


def capture_replicates(cli, sink):
    """Record every ReplicateSummary the CLI computes (for the output checks)."""
    original = cli.replicate

    def recording(spec, samples, reps, seed, **kwargs):
        summary = original(spec, samples, reps, seed, **kwargs)
        ests = summary.estimates
        sink.append({
            "r_a": spec.r_a, "r_b": spec.r_b, "eta": spec.eta, "samples": samples,
            "delta": kwargs["delta"], "sign": kwargs["sign"],
            "theory": summary.theory, "mean": summary.mean,
            "values": [float(v) for v in summary.values],
            "stderr": [e.stderr for e in ests],
            "var_pa": [e.var_pa for e in ests], "var_pa_err": [e.var_pa_err for e in ests],
            "var_pb": [e.var_pb for e in ests], "var_pb_err": [e.var_pb_err for e in ests],
        })
        return summary

    cli.replicate = recording


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) * 1024 / 1e6  # KiB -> MB


def main(request):
    t0 = time.perf_counter()
    import ngwsim
    import ngwsim.cli
    from ngwsim import StateSpec, build_state, measurement_pdf

    measurement_pdf(build_state(StateSpec(0.2, 0.2)))
    setup_s = time.perf_counter() - t0

    tracer = None
    if request["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    captured = []
    if request["workload"] == "sampled":
        capture_replicates(ngwsim.cli, captured)
    ops = workloads.operations(request["workload"], request["seed"])
    pass_dir = request["pass_dir"]

    cpu0, _ = _usage()
    w0 = time.perf_counter()
    results, loaded = run_operations(ops, pass_dir, ngwsim.cli.main,
                                     ngwsim.estimator.load_samples_csv)
    wall = time.perf_counter() - w0
    cpu1, peak_rss_mb = _usage()

    products = {}
    if captured:
        products["replicates"] = captured
    if loaded:
        import numpy as np

        pairs = np.ascontiguousarray(loaded[0].pairs, dtype="<f8")
        cov = np.cov(pairs, rowvar=False)
        products["record"] = {
            "rows": len(pairs),
            "sha256": hashlib.sha256(pairs.tobytes()).hexdigest(),
            "cov": [cov[0, 0], cov[0, 1], cov[1, 1]],
        }
    if tracer is not None:
        tracer.write(os.path.join(pass_dir, "spans.json"))
    print(json.dumps({"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu1 - cpu0,
                      "peak_rss_mb": peak_rss_mb, "ops": results, "products": products}))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
