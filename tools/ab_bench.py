"""A/B benchmark: run perfbench/run.py on two commits in alternating pairs.

Usage, from the root of a git checkout of ngw-sim:

    python3 tools/ab_bench.py --base HEAD~1 --workloads sampled --pairs 10 \
        --seed 42 --seconds 25 --out BENCH.json

Both commits are exported with ``git archive`` into fresh temporary
directories, so each side runs its own committed perfbench/ and src/ and the
working tree is never touched. Pair k runs the base first when k is even
and the change first when it is odd. For every metric perfbench reports, the
output records each side's runs, median and quartiles (inclusive method),
the median's relative change and the pairs the change won; ties count for
neither side, and "better" comes from the change's BENCHMARK.json. Pairs in
which either side failed are dropped from the statistics but still count
among the pairs run. Each end-to-end metric also gets three verdicts, with
its bound from BENCHMARK.json:

- gain_shown: the change won at least 9 in 10 of the pairs run, and its
  median is better than the parent's by more than the parent's IQR;
- regressed: the change's median is worse than the parent's by more than
  the bound, relative to the parent's median;
- unresolved: the parent's IQR over its median exceeds the bound, and the
  runs do not separate (some run of the change reads no better than some
  run of the parent).

Runs of another seed, workload or --trace setting append to an existing
output file of the same two commits.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Extract the files committed at rev into dest."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def src_lines(root):
    """Lines of the .py files under root/src, as perfbench counts them."""
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def machine():
    info = {"platform": platform.platform(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    try:
        info["mem_gb"] = round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 1)
    except (ValueError, OSError):
        pass
    import numpy

    info["numpy"] = numpy.__version__
    return info


def one_run(root, workload, seed, seconds, trace):
    """perfbench's final JSON object for one run in root, or None if it failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def verdicts(entry, bound, pairs_run):
    """The gain, regression and resolution verdicts of one end-to-end metric
    (see the module docstring); the bound is relative to the parent's median."""
    sign = -1.0 if entry["better"] == "lower" else 1.0
    base, change = entry["base"], entry["change"]
    gain = sign * (change["median"] - base["median"])
    worse = -gain / abs(base["median"]) if base["median"] else 0.0
    base_spread = base["iqr"] / abs(base["median"]) if base["median"] else 0.0
    separated = min(sign * v for v in change["runs"]) > max(sign * v for v in base["runs"])
    return {"gain_shown": 10 * entry["pairs_won"] >= 9 * pairs_run and gain > base["iqr"],
            "regressed": worse > bound,
            "unresolved": base_spread > bound and not separated}


def compare(pairs, better, bounds=None):
    """Per-metric summary of [(base result, change result)] pairs, a failed
    run being None; metrics named in bounds also get their verdicts."""
    bounds = bounds or {}
    done = [(b, c) for b, c in pairs if b is not None and c is not None]
    if not done:
        return {}
    out = {}
    for name, metric in done[0][1]["metrics"].items():
        base = [b["metrics"][name]["value"] for b, _ in done]
        change = [c["metrics"][name]["value"] for _, c in done]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        entry = {"unit": metric["unit"], "better": better.get(name, "lower"),
                 "base": spread(base), "change": spread(change),
                 "pairs_won": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                 "pairs_lost": sum(sign * (c - b) < 0 for b, c in zip(base, change))}
        b_med, c_med = entry["base"]["median"], entry["change"]["median"]
        entry["median_change_pct"] = 100.0 * (c_med - b_med) / b_med if b_med else None
        entry["median_gap_over_base_iqr"] = (abs(c_med - b_med) / entry["base"]["iqr"]
                                             if entry["base"]["iqr"] else None)
        if name in bounds:
            entry["verdicts"] = verdicts(entry, bounds[name], len(pairs))
        out[name] = entry
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--change", default="HEAD", help="commit of the change (HEAD)")
    parser.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write or append to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    return args


def main(argv=None):
    args = parse_args(argv)
    revs = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    report = {"base": {"rev": revs["base"]}, "change": {"rev": revs["change"]},
              "machine": machine(), "runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            report = json.load(handle)
        if (report["base"]["rev"], report["change"]["rev"]) != (revs["base"], revs["change"]):
            sys.exit(f"{args.out} compares other commits; choose another --out")
    work = tempfile.mkdtemp(prefix="ab_bench_")
    try:
        roots = {}
        for side, rev in revs.items():
            roots[side] = os.path.join(work, side)
            os.mkdir(roots[side])
            export(rev, roots[side])
            report[side]["src_lines"] = src_lines(roots[side])
        with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
            benchmark = json.load(handle)
        better = {m["name"]: m["better"] for m in benchmark["per_layer"] + benchmark["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
        for workload in args.workloads.split(","):
            pairs = []
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                result = {}
                for side in order:
                    result[side] = one_run(roots[side], workload, args.seed, args.seconds,
                                           args.trace)
                    wall = (result[side] or {}).get("metrics", {}).get("wall_s", {}).get("value")
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                          f"{'failed' if result[side] is None else result[side]['correct']} "
                          f"wall_s={wall}", file=sys.stderr)
                pairs.append((result["base"], result["change"]))
            report["runs"].append({
                "workload": workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "pairs": args.pairs,
                "correct": {side: [None if r is None else r["correct"] for r in runs]
                            for side, runs in zip(("base", "change"), zip(*pairs))},
                "metrics": compare(pairs, better, bounds),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
