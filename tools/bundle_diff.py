"""Output-bundle diff: run the CLI's byte-identity list on two commits and
compare what they write, file by file.

Usage, from the root of a git checkout of ngw-sim:

    python3 tools/bundle_diff.py --base HEAD~1 [--change HEAD]

Both commits are exported with tools/ab_bench.py's export into fresh
temporary directories. On each side every command of COMMANDS runs in a
fresh interpreter on that side's src/, with NGW_THREADS=1 and an output
directory of its own. Then each file is reported as "identical" (same
bytes), as the CSV columns that differ with their largest relative
difference |a - b| / max(|a|, |b|), or, for other files, as the lines that
differ. The exit status is 0 when every file is identical and 1 otherwise.
"""

import argparse
import csv
import math
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_bench import export, git  # noqa: E402

# (output directory, CLI arguments) of every run on each side
COMMANDS = [
    ("analytic_displacement", ["analytic", "--sa-range", "0.5:3:0.5", "--sb-range", "0.5:3:0.5"]),
    ("analytic_shear", ["analytic", "--scan", "shear", "--sign", "-",
                        "--sa-range", "1:4:1", "--sb-range", "1:4:1"]),
    ("fi_pure", ["fi", "--ra", "0.2", "--rb", "0.2"]),
    ("fi_lossy", ["fi", "--ra", "0.3", "--rb", "-0.2", "--eta", "0.1", "--gen", "phase"]),
    ("fi_mixed_basis", ["fi", "--ra", "0.4", "--rb", "0.1", "--phi-a", "0.3", "--phi-b", "1.1",
                        "--mix", "-0.7853981633974483"]),
    ("fi_angles_shear", ["fi-angles", "--step", "0.39269908169872414"]),
    ("fi_angles_phase", ["fi-angles", "--gen", "phase", "--sign", "+", "--ra", "0.5",
                         "--rb", "0.3", "--step", "0.39269908169872414"]),
    ("sample_seed1", ["sample", "--samples", "20000", "--seed", "1"]),
    ("sample_seed2", ["sample", "--samples", "20000", "--seed", "2"]),
    ("estimate", ["estimate", "--samples", "100000", "--reps", "3", "--bin", "0.2",
                  "--seed", "3"]),
    *[(f"reproduce_{target}", ["reproduce", target])
      for target in ("fig2", "fig3", "fig4", "fig4b", "fig5", "appA", "appB")],
    ("reproduce_fig6", ["reproduce", "fig6", "--sample-counts", "200000",
                        "--deltas", "0.1,0.4", "--reps", "2"]),
]


def run_all(root, out):
    """Run COMMANDS with root's src/ into subdirectories of out."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "NGW_THREADS": "1"}
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "ngwsim.cli", *argv, "--out",
                               os.path.join(out, name)], cwd=root, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} failed in {root}:\n{proc.stderr[-2000:]}")


def _rel_diff(a, b):
    """|a - b| / max(|a|, |b|) of two CSV cells as floats (NaN equals NaN), or
    None if either cell is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_diff(base_text, change_text):
    """{column: largest relative difference} of the columns whose cells differ
    as text in two CSV texts of the same header and row count, '#' lines
    skipped: equal numbers spelled differently give 0, and text that differs
    gives inf. Raises ValueError if the shapes differ."""
    def table(text):
        return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))

    base, change = table(base_text), table(change_text)
    if not base or not change or base[0] != change[0]:
        raise ValueError("headers differ")
    if [len(row) for row in base] != [len(row) for row in change]:
        raise ValueError("row counts or widths differ")
    worst = {}
    for base_row, change_row in zip(base[1:], change[1:]):
        for column, a, b in zip(base[0], base_row, change_row):
            if a != b:
                rel = _rel_diff(a, b)
                worst[column] = max(worst.get(column, 0.0), math.inf if rel is None else rel)
    return worst


def describe(base_path, change_path):
    """One line on how the change's file differs from the base's."""
    with open(base_path, "rb") as handle:
        base = handle.read()
    with open(change_path, "rb") as handle:
        change = handle.read()
    if base == change:
        return "identical"
    base_text, change_text = base.decode(), change.decode()
    if base_path.endswith(".csv"):
        try:
            worst = csv_diff(base_text, change_text)
        except ValueError as exc:
            return str(exc)
        return ", ".join(f"{column} {rel:.2g}" for column, rel in worst.items())
    base_lines, change_lines = base_text.splitlines(), change_text.splitlines()
    if len(base_lines) != len(change_lines):
        return f"line counts differ ({len(base_lines)} vs {len(change_lines)})"
    lines = [str(k + 1) for k, (a, b) in enumerate(zip(base_lines, change_lines)) if a != b]
    return f"lines {', '.join(lines)} differ"


def files_under(top):
    return sorted(os.path.relpath(os.path.join(base, name), top)
                  for base, _, names in os.walk(top) for name in names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--change", default="HEAD", help="commit of the change (HEAD)")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="bundle_diff_")
    try:
        outs = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            root, outs[side] = os.path.join(work, side), os.path.join(work, f"{side}_out")
            os.mkdir(root)
            export(git("rev-parse", rev), root)
            run_all(root, outs[side])
        names = sorted(set(files_under(outs["base"])) | set(files_under(outs["change"])))
        all_identical = True
        for name in names:
            paths = [os.path.join(outs[side], name) for side in ("base", "change")]
            missing = [side for side, path in zip(("base", "change"), paths)
                       if not os.path.exists(path)]
            verdict = f"missing on {missing[0]}" if missing else describe(*paths)
            all_identical &= verdict == "identical"
            print(f"{name}: {verdict}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
