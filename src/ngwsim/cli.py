"""Batch command-line front end.

Subcommands compute closed-form witness scans, Fisher-information values and
angle maps, sample records and full estimation runs, and write versioned CSV
artifacts plus a key=value manifest. Figure-level reproduction bundles are
available through ``reproduce``. Outputs are deterministic for a given
configuration and seed; files are written atomically and every data row
carries the configuration hash and seed.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import DegenerateStateError, QuadratureConvergenceError, UnphysicalCovarianceError
from .estimator import bin_samples, default_theta_grid, replicate, sample, save_samples_csv
from .fisher import (NONLOCAL_SATURATING_BASIS, angle_grid_scan, fi_continuous,
                     optimize_angles, qfi_pure)
from .moments import GeneratorSpec, generator_variance
from .state import QuadratureBasis, StateSpec, X_BASIS, apply_loss, build_state
from .witness import (displacement_ridge_value, eq_displacement, eq_phase, eq_shear,
                      eq_squeeze, shear_ridge_value, witness_value)

DB_TO_R = np.log(10.0) / 20.0  # figure-axis convention: positive dB squeezes x


def _workers():
    """Replicate threads from NGW_THREADS; unset or empty means serial."""
    text = os.environ.get("NGW_THREADS", "")
    if text and not text.isdecimal():
        raise ValueError(f"NGW_THREADS must be a non-negative integer, got {text!r}")
    return int(text or 0)


# ---------------------------------------------------------------------------
# configuration handling

def load_config_file(path, parser):
    """Flat key = value configuration file; '#' starts a comment.

    Each key must be one of the parser's flags, named without the leading
    dashes, and each value must pass that flag's type. Returns the entries as
    ``--key=value`` flags in file order."""
    actions = {opt[2:]: action for action in parser._actions
               for opt in action.option_strings
               if opt.startswith("--") and action.dest not in ("help", "config")}
    flags = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in actions:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                (actions[key].type or str)(value)
            except (ValueError, argparse.ArgumentTypeError):
                raise ValueError(f"{path}:{lineno}: invalid value {value!r} for {key!r}") from None
            flags.append(f"--{key}={value}")
    return flags


def _parse_sign(text):
    signs = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}
    if text not in signs:
        raise argparse.ArgumentTypeError(f"sign must be '+' or '-', got {text!r}")
    return signs[text]


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = map(float, parts)
    if step <= 0:
        raise ValueError("range step must be positive")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def config_hash(entries):
    canon = "\n".join(f"{k}={entries[k]}" for k in sorted(entries))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# output helpers

@contextlib.contextmanager
def _atomic_open(path):
    """Text handle on a temporary file that replaces path when the block
    ends; the temporary file is removed if writing fails."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows, cfg_hash, seed):
    cols = list(columns) + ["config_hash", "seed"]
    with _atomic_open(path) as handle:
        handle.write(f"# ngw-sim v1, columns: {','.join(cols)}\n{','.join(cols)}\n")
        for row in rows:
            handle.write(",".join([_fmt(v) for v in row] + [cfg_hash, str(seed)]) + "\n")


def write_manifest(path, command, entries, cfg_hash, outputs):
    lines = [
        f"tool = ngw-sim {__version__}",
        f"command = {command}",
        f"config_hash = {cfg_hash}",
    ]
    for key in sorted(entries):
        lines.append(f"{key} = {entries[key]}")
    for out in outputs:
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        lines.append(f"output {os.path.basename(out)} sha256 = {digest}")
    with _atomic_open(path) as handle:
        handle.write("\n".join(lines) + "\n")


def _write_bundle(out, stem, command, entries, tables, seed=0):
    """Write each (file name, columns, rows) table to out as a CSV, every row
    stamped with the entries' hash and seed, then <stem>.manifest; returns the CSV paths."""
    cfg = config_hash(entries)
    paths = [os.path.join(out, name) for name, _, _ in tables]
    for path, (_, columns, rows) in zip(paths, tables):
        write_csv(path, columns, rows, cfg, seed)
    write_manifest(os.path.join(out, f"{stem}.manifest"), command, entries, cfg, paths)
    return paths


# ---------------------------------------------------------------------------
# subcommands

_EQ_FUNCTIONS = {"displacement": eq_displacement, "phase": eq_phase,
                 "shear": eq_shear, "squeeze": eq_squeeze}


def cmd_analytic(args):
    kind = args.scan
    if kind not in _EQ_FUNCTIONS:
        raise ValueError(f"unknown generator {kind!r}")
    if args.delta_axis != 0.0 and kind != "displacement":
        raise ValueError("--delta-axis applies to the displacement scan only")
    options = {"phi_sub": args.phi, "sign": args.sign}
    if kind == "displacement":
        options["delta"] = args.delta_axis
    entries = {"scan": kind, "phi": args.phi, "sign": args.sign, "delta-axis": args.delta_axis,
               "sa-range": args.sa_range, "sb-range": args.sb_range}
    sa_grid, sb_grid = _parse_range(args.sa_range), _parse_range(args.sb_range)
    rows = []
    for s_a in sa_grid:
        for s_b in sb_grid:
            r_a, r_b = DB_TO_R * s_a, DB_TO_R * s_b
            try:
                value = _EQ_FUNCTIONS[kind](r_a, r_b, **options)
            except (DegenerateStateError, ValueError):
                value = float("nan")
            rows.append([s_a, s_b, r_a, r_b, value])
    [path] = _write_bundle(args.out, f"analytic_{kind}", "analytic", entries,
                           [(f"analytic_{kind}.csv", ["s_a_db", "s_b_db", "r_a", "r_b", "e_q"], rows)])
    print(path)
    return 0


def _spec_from(args):
    """State from --phi, --eta and the squeezing, given as r (--ra/--rb) or in
    dB (--sa-db/--sb-db), 0.2 for a mode given neither way; and its manifest entries."""
    if (args.ra is not None and args.sa_db is not None) or \
            (args.rb is not None and args.sb_db is not None):
        raise ValueError("give squeezing either as r (--ra/--rb) or dB (--sa-db/--sb-db), not both")
    r_a = DB_TO_R * args.sa_db if args.sa_db is not None else args.ra
    r_b = DB_TO_R * args.sb_db if args.sb_db is not None else args.rb
    spec = StateSpec(float(0.2 if r_a is None else r_a), float(0.2 if r_b is None else r_b),
                     args.phi, args.eta)
    return spec, {"ra": spec.r_a, "rb": spec.r_b, "phi": spec.phi_sub, "eta": spec.eta}


def _fi_witness(state, gen, basis=X_BASIS, theta0=0.0):
    """(F, Var H_A, Var H_B, E) with the witness E = F - 4 (Var H_A + Var H_B)."""
    fi = fi_continuous(state, gen, basis, theta0)
    var_a, var_b = generator_variance(state, gen, "A"), generator_variance(state, gen, "B")
    return fi, var_a, var_b, witness_value(fi, var_a, var_b)


def _angle_map(name, state, gen, step):
    """Table name of the FI map over local homodyne angles, and the map's
    maximum as (FI, phi_a, phi_b)."""
    angles, grid = angle_grid_scan(state, gen, step)
    rows = [[pa, pb, grid[i, j]]
            for i, pa in enumerate(angles) for j, pb in enumerate(angles)]
    ia, ib = np.unravel_index(grid.argmax(), grid.shape)
    return (name, ["phi_a", "phi_b", "fi"], rows), (grid.max(), angles[ia], angles[ib])


def cmd_fi(args):
    spec, state_entries = _spec_from(args)
    gen = GeneratorSpec(args.gen, args.sign, args.delta_axis)
    basis = QuadratureBasis(args.phi_a, args.phi_b, args.mix)
    state = build_state(spec)
    fi, var_a, var_b, e_val = _fi_witness(state, gen, basis, args.theta0)
    qfi = qfi_pure(state, gen) if state.pure else float("nan")
    entries = {"gen": args.gen, "sign": args.sign, "delta-axis": args.delta_axis,
               **state_entries, "phi-a": basis.phi_a, "phi-b": basis.phi_b,
               "mix": basis.nonlocal_mix, "theta0": args.theta0}
    [path] = _write_bundle(args.out, "fi", "fi", entries,
                           [("fi.csv", ["fi", "qfi", "var_a", "var_b", "e_value"],
                             [[fi, qfi, var_a, var_b, e_val]])])
    print(f"F = {fi:.6f}  QFI = {qfi:.6f}  E = {e_val:.6f}")
    print(path)
    return 0


def cmd_fi_angles(args):
    spec, state_entries = _spec_from(args)
    table, (best, phi_a, phi_b) = _angle_map(f"fi_angles_{args.gen}.csv", build_state(spec),
                                             GeneratorSpec(args.gen, args.sign), args.step)
    entries = {"gen": args.gen, "sign": args.sign, **state_entries, "step": args.step}
    [path] = _write_bundle(args.out, f"fi_angles_{args.gen}", "fi-angles", entries, [table])
    print(f"max FI = {best:.4f} at phi_a = {phi_a:.4f}, phi_b = {phi_b:.4f}")
    print(path)
    return 0


def cmd_sample(args):
    spec, state_entries = _spec_from(args)
    record = sample(build_state(spec), args.samples, args.seed, spec=spec)
    entries = {**state_entries, "samples": args.samples, "seed": args.seed}
    cfg = config_hash(entries)
    path = os.path.join(args.out, "samples.csv")
    with _atomic_open(path) as handle:
        save_samples_csv(record, handle)
    entries["acceptance-rate"] = record.acceptance_rate
    write_manifest(os.path.join(args.out, "samples.manifest"), "sample", entries, cfg, [path])
    print(f"acceptance rate {record.acceptance_rate:.3f}")
    print(path)
    return 0


def cmd_estimate(args):
    spec, state_entries = _spec_from(args)
    grid = default_theta_grid(args.theta_max, args.theta_steps)
    theory = _fi_witness(build_state(spec),
                         GeneratorSpec("displacement", args.sign, args.delta_axis))[3]
    summary = replicate(spec, args.samples, args.reps, args.seed, delta=args.bin,
                        theta_grid=grid, half_range=args.range, sign=args.sign,
                        delta_axis=args.delta_axis, theory=theory, workers=_workers())
    entries = {**state_entries, "samples": args.samples, "seed": args.seed,
               "reps": args.reps, "bin": args.bin,
               "range": "auto" if args.range is None else args.range,
               "theta-max": args.theta_max, "theta-steps": args.theta_steps,
               "sign": args.sign, "delta-axis": args.delta_axis}
    rep_rows = [
        [i, est.e_value, est.stderr, est.fit.f_raw, est.fit.f_corrected,
         est.fit.c0_hat, est.fit.n_occ, est.var_pa, est.var_pb]
        for i, est in enumerate(summary.estimates)
    ]
    _, sum_path = _write_bundle(args.out, "estimate", "estimate", entries, [
        ("estimate_replicates.csv",
         ["replicate", "e_value", "stderr", "f_raw", "f_corrected",
          "c0_hat", "n_occupied", "var_pa", "var_pb"], rep_rows),
        ("estimate_summary.csv",
         ["mean_e", "std_e", "stderr_mean", "theory_e", "overestimated", "reps"],
         [[summary.mean, summary.std, summary.stderr_mean, summary.theory,
           int(summary.overestimated), args.reps]]),
    ], seed=args.seed)
    print(f"E = {summary.mean:.4f} +- {summary.std:.4f} (theory {summary.theory:.4f})")
    print(sum_path)
    return 0


# ---------------------------------------------------------------------------
# figure-level reproduction: each builder maps the arguments to its tables

def _repro_fig2(args):
    rows = []
    for s in np.arange(0.05, 6.0001, 0.05):
        r = DB_TO_R * s
        try:
            shear_quad = shear_ridge_value(r)
        except ValueError:
            shear_quad = float("nan")
        rows.append([s, r, eq_displacement(r, r), displacement_ridge_value(r),
                     eq_shear(-r, -r, -1), shear_quad, eq_phase(r, r, -1), 0.0])
    return [("fig2_max_witness.csv",
             ["s_db", "r", "displacement_inphase", "displacement_inquad",
              "shear_inphase", "shear_inquad", "phase", "squeeze"], rows)]


def _fig3_table(name, sign):
    """Displacement witness over (s_A, s_B); sign -1 squeezes mode B in p."""
    s_grid = np.arange(0.1, 6.0001, 0.1)
    rows = [[sa, sb, eq_displacement(DB_TO_R * sa, sign * DB_TO_R * sb, np.pi / 4, sign)]
            for sa in s_grid for sb in s_grid]
    return (name, ["s_a_db", "s_b_db", "e_q"], rows)


def _repro_fig3a(args):
    return [_fig3_table("fig3a_displacement_inphase.csv", +1)]


def _repro_fig3b(args):
    return [_fig3_table("fig3b_displacement_inquad.csv", -1)]


def _loss_table(name, sign, configs):
    """Displacement FI and witness of the lossy states (subfig, s_A, s_B) for
    eta from 0 to 0.2."""
    gen = GeneratorSpec("displacement", sign)
    rows = []
    for sub, s_a, s_b in configs:
        base = build_state(StateSpec(DB_TO_R * s_a, DB_TO_R * s_b))
        for eta in np.arange(0.0, 0.2001, 0.005):
            fi, _, _, e_val = _fi_witness(apply_loss(base, eta) if eta > 0 else base, gen)
            rows.append([sub, s_a, s_b, eta, np.sqrt(eta), fi, e_val])
    return (name, ["subfig", "s_a_db", "s_b_db", "eta", "eta_amplitude", "fi", "e_value"], rows)


def _repro_fig4(args):
    configs = ([("a", s, s) for s in (1.0, 2.0, 3.0)]
               + [("b", 1.0, sb) for sb in (0.5, 1.0, 1.5, 2.0)]
               + [("c", 2.0, sb) for sb in (0.5, 1.0, 2.0, 3.0)])
    return [_loss_table("fig4_loss_inphase.csv", +1, configs)]


def _repro_fig4b(args):
    configs = ([("a", s, -s) for s in (1.0, 2.0, 3.0)]
               + [("b", 1.0, -sb) for sb in (0.5, 1.0, 2.0)]
               + [("c", 2.0, -sb) for sb in (0.5, 2.0, 6.0)])
    return [_loss_table("fig4b_loss_inquad.csv", -1, configs)]


def _repro_fig5(args):
    tables = []
    for tag, (ra, rb) in (("a", (0.2, 0.2)), ("b", (0.2, -0.2))):
        spec = StateSpec(ra, rb)
        record = sample(build_state(spec), 500000, args.seed, spec=spec)
        hist = bin_samples(record, 0.2, 6.0)
        freq = hist.counts / hist.total
        centers = -hist.half_range + hist.delta * (np.arange(hist.n_bins) + 0.5)
        rows = [[centers[i], centers[j], freq[i, j]] for i, j in np.argwhere(hist.counts > 0)]
        tables.append((f"fig5{tag}_frequencies.csv", ["x_a", "x_b", "frequency"], rows))
    return tables


def _repro_fig6(args):
    samples_list = [int(float(tok)) for tok in args.sample_counts.split(",")]
    deltas = [float(tok) for tok in args.deltas.split(",")]
    rows = []
    for tag, (ra, rb, sign) in (("a", (0.2, 0.2, +1)), ("b", (0.2, -0.2, -1))):
        for eta in (0.0, 0.1):
            spec = StateSpec(ra, rb, eta=eta)
            theory = _fi_witness(build_state(spec), GeneratorSpec("displacement", sign))[3]
            for m in samples_list:
                for delta in deltas:
                    summary = replicate(spec, m, args.reps, args.seed, delta=delta,
                                        sign=sign, theory=theory, workers=_workers())
                    rows.append([tag, ra, rb, eta, m, delta, summary.mean,
                                 summary.std, theory, int(summary.overestimated)])
    return [("fig6_discretization.csv",
             ["subfig", "r_a", "r_b", "eta", "samples", "bin", "mean_e",
              "std_e", "theory_e", "overestimated"], rows)]


def _repro_appA(args):
    rows = [[phi, delta, eq_displacement(0.3, 0.1, phi, +1, delta)]
            for phi in (np.pi / 8, np.pi / 4, 3 * np.pi / 8)
            for delta in np.arange(0.0, np.pi + 1e-9, np.pi / 90)]
    return [("appA_delta_unbalancing.csv", ["phi", "delta", "e_q"], rows)]


def _repro_appB(args):
    tables = []
    for kind, r, step in (("shear", -0.2, np.pi / 20), ("phase", 0.2, np.pi / 100)):
        state = build_state(StateSpec(r, r))
        gen = GeneratorSpec(kind, -1)
        table, (f_max, phi_a, phi_b) = _angle_map(f"appB_{kind}_anglemap.csv", state, gen, step)
        summary = [f_max, phi_a, phi_b, qfi_pure(state, gen),
                   fi_continuous(state, gen, NONLOCAL_SATURATING_BASIS)]
        tables += [table, (f"appB_{kind}_summary.csv",
                           ["max_fi", "phi_a", "phi_b", "qfi", "fi_nonlocal"], [summary])]
    # maximal local FI versus squeezing depth
    rows = []
    for kind, sgn in (("shear", -1.0), ("phase", 1.0)):
        for s in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5):
            r = sgn * DB_TO_R * s
            state = build_state(StateSpec(r, r))
            gen = GeneratorSpec(kind, -1)
            scan = optimize_angles(state, gen, grid_step=np.pi / 20)
            rows.append([kind, s, r, scan.f_max, qfi_pure(state, gen)])
    tables.append(("appB_max_fi_vs_squeezing.csv",
                   ["gen", "s_db", "r", "max_local_fi", "qfi"], rows))
    return tables


# target: (table builders, whether the rows and the hashed entries carry the run's seed)
_TARGETS = {
    "fig2": ((_repro_fig2,), False),
    "fig3": ((_repro_fig3a, _repro_fig3b), False),
    "fig3a": ((_repro_fig3a,), False),
    "fig3b": ((_repro_fig3b,), False),
    "fig4": ((_repro_fig4,), False),
    "fig4b": ((_repro_fig4b,), False),
    "fig5": ((_repro_fig5,), True),
    "fig6": ((_repro_fig6,), True),
    "appA": ((_repro_appA,), False),
    "appB": ((_repro_appB,), False),
}

# the fig6 grid flags, which no other target reads
_FIG6_DEFAULTS = {"reps": 30, "sample_counts": "1000000,2000000,4000000,10000000",
                  "deltas": "0.05,0.1,0.2,0.3,0.4"}

_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Standalone plot script for the {target} bundle (reads the CSVs next to it).\"\"\"
import csv
import sys
from collections import defaultdict

import matplotlib.pyplot as plt


def read_csv(path):
    with open(path) as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    cols = defaultdict(list)
    for row in data:
        for key, val in zip(header, row):
            try:
                cols[key].append(float(val))
            except ValueError:
                cols[key].append(val)
    return cols


def main():
    files = {files!r}
    for name in files:
        cols = read_csv(name)
        plt.figure()
        keys = [k for k in cols if k not in ("config_hash", "seed")]
        x = cols[keys[0]]
        for key in keys[1:]:
            if all(isinstance(v, float) for v in cols[key]):
                plt.plot(x, cols[key], ".", ms=2, label=key)
        plt.xlabel(keys[0])
        plt.legend(fontsize=6)
        plt.title(name)
    plt.show()


if __name__ == "__main__":
    sys.exit(main())
"""


def cmd_reproduce(args):
    target = args.target
    builders, seeded = _TARGETS[target]
    entries = {"target": target}
    if target == "fig6":
        for dest, default in _FIG6_DEFAULTS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            entries[dest.replace("_", "-")] = getattr(args, dest)
    elif any(getattr(args, dest) is not None for dest in _FIG6_DEFAULTS):
        raise ValueError("--reps, --sample-counts and --deltas apply to fig6 only")
    if seeded:
        entries["seed"] = args.seed
    tables = [table for build in builders for table in build(args)]
    paths = _write_bundle(args.out, target, f"reproduce {target}", entries, tables,
                          seed=args.seed if seeded else 0)
    with _atomic_open(os.path.join(args.out, f"plot_{target}.py")) as handle:
        handle.write(_PLOT_TEMPLATE.format(
            target=target, files=[os.path.basename(p) for p in paths]))
    for path in paths:
        print(path)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ngw-sim",
        description="Metrological entanglement-witness simulator for photon-subtracted states.",
    )
    parser.add_argument("--version", action="version", version=f"ngw-sim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.set_defaults(func=func, parser=p)
        return p

    def state_flags(p):
        p.add_argument("--ra", type=float, help="squeezing parameter of mode A (default 0.2)")
        p.add_argument("--rb", type=float, help="squeezing parameter of mode B (default 0.2)")
        p.add_argument("--sa-db", type=float,
                       help="squeezing depth of mode A in dB (positive squeezes x)")
        p.add_argument("--sb-db", type=float, help="squeezing depth of mode B in dB")
        p.add_argument("--phi", type=float, default=np.pi / 4,
                       help="photon-subtraction mixing angle")
        p.add_argument("--eta", type=float, default=0.0, help="loss fraction in [0, 1)")

    def generator_flags(p, sign, delta_axis=True):
        p.add_argument("--sign", type=_parse_sign, default=sign,
                       help="relative generator sign, '+' or '-'")
        if delta_axis:
            p.add_argument("--delta-axis", type=float, default=0.0,
                           help="displacement unbalancing angle")

    p = command("analytic", cmd_analytic, "closed-form witness scans")
    p.add_argument("--scan", default="displacement",
                   help="generator to scan (displacement/phase/shear/squeeze)")
    p.add_argument("--phi", type=float, default=np.pi / 4, help="photon-subtraction mixing angle")
    generator_flags(p, +1)
    p.add_argument("--sa-range", default="0.1:6:0.1", help="s_A grid start:stop:step in dB")
    p.add_argument("--sb-range", default="0.1:6:0.1", help="s_B grid start:stop:step in dB")

    p = command("fi", cmd_fi, "single Fisher-information evaluation")
    state_flags(p)
    p.add_argument("--gen", default="displacement", help="generator kind")
    generator_flags(p, +1)
    p.add_argument("--phi-a", type=float, default=0.0, help="homodyne angle, mode A")
    p.add_argument("--phi-b", type=float, default=0.0, help="homodyne angle, mode B")
    p.add_argument("--mix", type=float, default=0.0,
                   help="two-mode mixing angle before measurement")
    p.add_argument("--theta0", type=float, default=0.0, help="parameter point for the FI")

    p = command("fi-angles", cmd_fi_angles, "FI map over local homodyne angles")
    state_flags(p)
    p.add_argument("--gen", default="shear", help="generator kind")
    generator_flags(p, -1, delta_axis=False)
    p.add_argument("--step", type=float, default=np.pi / 20, help="angle grid step (radians)")

    p = command("sample", cmd_sample, "draw homodyne samples to CSV")
    state_flags(p)
    p.add_argument("--samples", type=int, default=100000, help="number of samples")
    p.add_argument("--seed", type=int, default=1, help="RNG seed")

    p = command("estimate", cmd_estimate, "full sampled witness estimation")
    state_flags(p)
    p.add_argument("--samples", type=int, default=1000000, help="samples per replicate")
    p.add_argument("--seed", type=int, default=1, help="RNG seed")
    p.add_argument("--reps", type=int, default=30, help="number of replicates")
    p.add_argument("--bin", type=float, default=0.2, help="bin size")
    p.add_argument("--range", type=float, help="binning half range (default: from the data)")
    generator_flags(p, +1)
    p.add_argument("--theta-max", type=float, default=0.05, help="largest displacement")
    p.add_argument("--theta-steps", type=int, default=20, help="grid points (even)")

    p = command("reproduce", cmd_reproduce, "figure-level reproduction bundles")
    p.add_argument("target", choices=list(_TARGETS))
    p.add_argument("--seed", type=int, default=42, help="RNG seed")
    p.add_argument("--reps", type=int,
                   help=f"replicates for fig6 (default {_FIG6_DEFAULTS['reps']})")
    p.add_argument("--sample-counts", help="comma list of sample counts for fig6 "
                   f"(default {_FIG6_DEFAULTS['sample_counts']})")
    p.add_argument("--deltas",
                   help=f"comma list of bin sizes for fig6 (default {_FIG6_DEFAULTS['deltas']})")

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # argv[0] is the subcommand; file entries go before the explicit
            # flags, so the flags win
            flags = load_config_file(args.config, args.parser)
            args = args.parser.parse_args(flags + argv[1:])
        return args.func(args)
    except (ValueError, OSError, DegenerateStateError, UnphysicalCovarianceError,
            QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
