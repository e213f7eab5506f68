"""ngw-sim benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload anglemap --seed 42 --seconds 20 --trace 0

Closed loop, one client: passes run one after another, each in a fresh
interpreter (perfbench/child.py) with NGW_THREADS=1 and the BLAS/OpenMP
thread counts pinned to 1. Passes start until --seconds have elapsed (at
least MIN_PASSES); each pass's outputs are checked, and all passes of a run
must write byte-identical files. With --trace 0 the end-to-end metrics are
medians over the passes. With --trace 1 untraced and traced passes
alternate, and the per-layer metrics come from the traced ones. The last
line of standard output is one JSON object; everything else goes to stderr.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

THREAD_ENV = {
    "NGW_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
TIMED = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")  # medians over the passes

MIN_PASSES = 3           # untimed runs still get a median of three passes
TRACE_MIN_PASSES = 2     # one untraced and one traced pass
PASS_TIMEOUT = 150.0     # seconds; a run must end well within 180 s
UNTRACED_TOL = 0.05      # share of the traced pass wall no layer span may cover


def child_env(root, threads="1"):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["NGW_THREADS"] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digests(pass_dir, n_ops):
    """{op index: {file name: sha256}} for everything the operations wrote."""
    out = {}
    for k in range(n_ops):
        op_dir = os.path.join(pass_dir, f"op{k}")
        files = sorted(os.listdir(op_dir)) if os.path.isdir(op_dir) else []
        out[k] = {}
        for name in files:
            with open(os.path.join(op_dir, name), "rb") as handle:
                out[k][name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def failed_operations(op_results, check_failures):
    """Indices of operations that returned non-zero, raised, or failed a check."""
    bad = {k for k, res in enumerate(op_results) if res["rc"] != 0}
    return bad | {op for op, _ in check_failures}


class Run:
    def __init__(self, args, root, work, checker):
        self.args = args
        self.root = root
        self.work = work
        self.checker = checker
        self.ops = workloads.operations(args.workload, args.seed)
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digests of the first pass
        self.ref_rel_err = 0.0
        self.notes = set()

    def one_pass(self, traced=False, threads="1", deadline=PASS_TIMEOUT):
        k = len(self.passes)
        pass_dir = os.path.join(self.work, f"pass{k}")
        os.makedirs(pass_dir)
        request = {"workload": self.args.workload, "seed": self.args.seed,
                   "pass_dir": pass_dir, "trace": traced}
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(request)],
                                  cwd=self.root, env=child_env(self.root, threads),
                                  capture_output=True, text=True, timeout=deadline)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None:
                print(f"pass {k} exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        except subprocess.TimeoutExpired:
            print(f"pass {k} timed out after {deadline:.0f} s", file=sys.stderr)
            result = None
        record = {"traced": traced, "threads": threads, "result": result,
                  "seconds": time.monotonic() - started}
        self.passes.append(record)
        self.attempted += len(self.ops)
        if result is None:
            self.failed += len(self.ops)
            shutil.rmtree(pass_dir, ignore_errors=True)
            return record

        try:
            err, failures, notes = self.checker.check(pass_dir, result["products"])
        except (OSError, ValueError, KeyError, IndexError) as exc:  # an output is missing
            err, notes = 0.0, []
            failures = [(op, f"outputs unreadable: {exc!r}") for op in range(len(self.ops))]
        self.ref_rel_err = max(self.ref_rel_err, err)
        self.notes.update(notes)
        found = digests(pass_dir, len(self.ops))
        if self.reference is None:
            self.reference = found
        for op, files in found.items():
            if files != self.reference[op]:
                failures.append((op, f"pass {k} (NGW_THREADS={threads}) wrote different files"))
        if traced:
            with open(os.path.join(pass_dir, "spans.json"), encoding="utf-8") as handle:
                recorded = json.load(handle)
            record["layers"] = spans.summarize(recorded, result["wall_s"])
            untraced = record["layers"]["trace.untraced_frac"]
            if untraced > UNTRACED_TOL:
                failures.append((0, f"{untraced:.3f} of the traced pass wall is in no layer span"))
        for op, message in failures:
            print(f"pass {k} op {op}: check failed: {message}", file=sys.stderr)
        for k_op, res in enumerate(result["ops"]):
            if res["rc"] != 0:
                print(f"pass {k} op {k_op}: returned {res['rc']}: {res['message']}", file=sys.stderr)
        self.failed += len(failed_operations(result["ops"], failures))
        shutil.rmtree(pass_dir, ignore_errors=True)
        return record

    def measure(self):
        start = time.monotonic()
        trace = bool(self.args.trace)
        minimum = TRACE_MIN_PASSES if trace else MIN_PASSES
        while True:
            elapsed = time.monotonic() - start
            typical = statistics.median(p["seconds"] for p in self.passes) if self.passes else 0.0
            if len(self.passes) >= minimum and elapsed + typical > self.args.seconds:
                break
            remaining = PASS_TIMEOUT - elapsed
            if remaining < 1.0:
                break
            self.one_pass(traced=trace and len(self.passes) % 2 == 1, deadline=remaining)
        if self.args.workload == "sampled" and not trace and (os.cpu_count() or 1) >= 2:
            # seeded results must not depend on NGW_THREADS; check only, not timed
            self.one_pass(threads="2", deadline=max(1.0, PASS_TIMEOUT - (time.monotonic() - start)))

    def metrics(self):
        timed = [p["result"] for p in self.passes
                 if p["result"] is not None and not p["traced"] and p["threads"] == "1"]
        if not self.args.trace:
            values = {name: statistics.median(r[name] for r in timed) for name in TIMED}
            values["ref_rel_err"] = self.ref_rel_err
            section = "end_to_end"
        else:
            traced = [p for p in self.passes if p["traced"] and p["result"] is not None]
            values = {name: statistics.median(p["layers"][name] for p in traced)
                      for name in traced[0]["layers"]}
            values["trace_overhead_frac"] = (
                statistics.median(p["result"]["wall_s"] for p in traced)
                / statistics.median(r["wall_s"] for r in timed) - 1.0)
            section = "per_layer"
        return {name: {"value": values[name], "unit": unit}
                for name, unit in metric_units(section).items()}


def metric_units(section):
    """{name: unit} of one metric list in BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def provenance(root):
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    src_lines += sum(1 for _ in handle)
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "thread_env": THREAD_ENV, "git_commit": commit,
            "src_lines": src_lines}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    for needed in (("src", "ngwsim", "__init__.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(root, *needed)):
            print(f"perfbench: {os.path.join(*needed)} not found; run from the root of an "
                  "ngw-sim checkout", file=sys.stderr)
            return 2
    # pin threads before numpy is imported here (checks) and in every pass
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    import checks

    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        run = Run(args, root, work, checks.Checker(args.workload, args.seed, root))
        run.measure()
        if not any(p["result"] is not None and p["threads"] == "1" and not p["traced"]
                   for p in run.passes):
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        metrics = run.metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    info = provenance(root)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                pass_walls=[p["result"]["wall_s"] if p["result"] else None for p in run.passes])
    print("provenance " + json.dumps(info), file=sys.stderr)
    for note in sorted(run.notes):
        print(note, file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
