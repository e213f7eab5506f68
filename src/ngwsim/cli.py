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
from .estimator import bin_samples, replicate, sample, save_samples_csv
from .fisher import (
    NONLOCAL_SATURATING_BASIS,
    angle_grid_scan,
    fi_continuous,
    optimize_angles,
    qfi_pure,
)
from .moments import GeneratorSpec, generator_variance
from .state import (
    QuadratureBasis,
    StateSpec,
    X_BASIS,
    apply_loss,
    build_state,
)
from .witness import (
    displacement_ridge_value,
    eq_displacement,
    eq_phase,
    eq_shear,
    eq_squeeze,
    shear_ridge_value,
    witness_value,
)

DB_TO_R = np.log(10.0) / 20.0  # figure-axis convention: positive dB squeezes x

_CONFIG_KEYS = {
    "ra", "rb", "sa-db", "sb-db", "phi", "gen", "sign", "delta-axis", "eta",
    "samples", "bin", "range", "theta-max", "theta-steps", "reps", "seed",
    "out", "scan", "sa-range", "sb-range", "eta-range", "step", "phi-a",
    "phi-b", "mix", "theta0", "target", "deltas", "sample-counts",
}


def _workers():
    """Replicate threads from NGW_THREADS; unset or empty means serial."""
    text = os.environ.get("NGW_THREADS", "")
    if text and not text.isdecimal():
        raise ValueError(f"NGW_THREADS must be a non-negative integer, got {text!r}")
    return int(text or 0)


# ---------------------------------------------------------------------------
# configuration handling

def load_config_file(path):
    """Flat key = value configuration file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def _resolve(args, key, cast, default=None):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    file_cfg = getattr(args, "_file_config", {})
    if key in file_cfg:
        return cast(file_cfg[key])
    return default


def _resolve_squeezing(args):
    r_a = _resolve(args, "ra", float)
    r_b = _resolve(args, "rb", float)
    s_a = _resolve(args, "sa-db", float)
    s_b = _resolve(args, "sb-db", float)
    if (r_a is not None and s_a is not None) or (r_b is not None and s_b is not None):
        raise ValueError("give squeezing either as r (--ra/--rb) or dB (--sa-db/--sb-db), not both")
    if r_a is None:
        r_a = DB_TO_R * s_a if s_a is not None else 0.2
    if r_b is None:
        r_b = DB_TO_R * s_b if s_b is not None else 0.2
    return float(r_a), float(r_b)


def _parse_sign(text):
    if text in ("+", "+1", "1", 1, +1):
        return +1
    if text in ("-", "-1", -1):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {text!r}")


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


def _out_dir(args):
    out = _resolve(args, "out", str, ".")
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

_EQ_BY_KIND = {
    "displacement": lambda ra, rb, phi, sign, delta: eq_displacement(ra, rb, phi, sign, delta),
    "phase": lambda ra, rb, phi, sign, delta: eq_phase(ra, rb, sign, phi),
    "shear": lambda ra, rb, phi, sign, delta: eq_shear(ra, rb, sign, phi),
    "squeeze": lambda ra, rb, phi, sign, delta: eq_squeeze(),
}


def cmd_analytic(args):
    out = _out_dir(args)
    kind = _resolve(args, "scan", str, "displacement")
    if kind not in _EQ_BY_KIND:
        raise ValueError(f"unknown generator {kind!r}")
    phi = _resolve(args, "phi", float, np.pi / 4)
    sign = _parse_sign(_resolve(args, "sign", str, "+"))
    delta = _resolve(args, "delta-axis", float, 0.0)
    sa = _parse_range(_resolve(args, "sa-range", str, "0.1:6:0.1"))
    sb = _parse_range(_resolve(args, "sb-range", str, "0.1:6:0.1"))
    entries = {"scan": kind, "phi": phi, "sign": sign, "delta-axis": delta,
               "sa-range": _resolve(args, "sa-range", str, "0.1:6:0.1"),
               "sb-range": _resolve(args, "sb-range", str, "0.1:6:0.1")}
    cfg = config_hash(entries)
    rows = []
    fun = _EQ_BY_KIND[kind]
    for s_a in sa:
        for s_b in sb:
            r_a, r_b = DB_TO_R * s_a, DB_TO_R * s_b
            try:
                value = fun(r_a, r_b, phi, sign, delta)
            except (DegenerateStateError, ValueError):
                value = float("nan")
            rows.append([s_a, s_b, r_a, r_b, value])
    path = os.path.join(out, f"analytic_{kind}.csv")
    write_csv(path, ["s_a_db", "s_b_db", "r_a", "r_b", "e_q"], rows, cfg, 0)
    write_manifest(os.path.join(out, f"analytic_{kind}.manifest"), "analytic", entries, cfg, [path])
    print(path)
    return 0


def _spec_from(args):
    r_a, r_b = _resolve_squeezing(args)
    phi = _resolve(args, "phi", float, np.pi / 4)
    eta = _resolve(args, "eta", float, 0.0)
    return StateSpec(r_a, r_b, phi, eta)


def cmd_fi(args):
    out = _out_dir(args)
    spec = _spec_from(args)
    kind = _resolve(args, "gen", str, "displacement")
    sign = _parse_sign(_resolve(args, "sign", str, "+"))
    delta = _resolve(args, "delta-axis", float, 0.0)
    gen = GeneratorSpec(kind, sign, delta if kind == "displacement" else 0.0)
    basis = QuadratureBasis(
        _resolve(args, "phi-a", float, 0.0),
        _resolve(args, "phi-b", float, 0.0),
        _resolve(args, "mix", float, 0.0),
    )
    theta0 = _resolve(args, "theta0", float, 0.0)
    state = build_state(spec)
    fi = fi_continuous(state, gen, basis, theta0)
    var_a = generator_variance(state, gen, "A")
    var_b = generator_variance(state, gen, "B")
    e_val = witness_value(fi, var_a, var_b)
    qfi = qfi_pure(state, gen) if state.pure else float("nan")
    entries = {"gen": kind, "sign": sign, "delta-axis": delta, "ra": spec.r_a,
               "rb": spec.r_b, "phi": spec.phi_sub, "eta": spec.eta,
               "phi-a": basis.phi_a, "phi-b": basis.phi_b, "mix": basis.nonlocal_mix,
               "theta0": theta0}
    cfg = config_hash(entries)
    path = os.path.join(out, "fi.csv")
    write_csv(path, ["fi", "qfi", "var_a", "var_b", "e_value"],
              [[fi, qfi, var_a, var_b, e_val]], cfg, 0)
    write_manifest(os.path.join(out, "fi.manifest"), "fi", entries, cfg, [path])
    print(f"F = {fi:.6f}  QFI = {qfi:.6f}  E = {e_val:.6f}")
    print(path)
    return 0


def cmd_fi_angles(args):
    out = _out_dir(args)
    spec = _spec_from(args)
    kind = _resolve(args, "gen", str, "shear")
    sign = _parse_sign(_resolve(args, "sign", str, "-"))
    gen = GeneratorSpec(kind, sign)
    step = _resolve(args, "step", float, np.pi / 20)
    state = build_state(spec)
    angles, grid = angle_grid_scan(state, gen, step)
    entries = {"gen": kind, "sign": sign, "ra": spec.r_a, "rb": spec.r_b,
               "phi": spec.phi_sub, "eta": spec.eta, "step": step}
    cfg = config_hash(entries)
    rows = [[pa, pb, grid[i, j]]
            for i, pa in enumerate(angles) for j, pb in enumerate(angles)]
    path = os.path.join(out, f"fi_angles_{kind}.csv")
    write_csv(path, ["phi_a", "phi_b", "fi"], rows, cfg, 0)
    write_manifest(os.path.join(out, f"fi_angles_{kind}.manifest"), "fi-angles", entries, cfg, [path])
    best = grid.max()
    ia, ib = np.unravel_index(grid.argmax(), grid.shape)
    print(f"max FI = {best:.4f} at phi_a = {angles[ia]:.4f}, phi_b = {angles[ib]:.4f}")
    print(path)
    return 0


def cmd_sample(args):
    out = _out_dir(args)
    spec = _spec_from(args)
    m = int(_resolve(args, "samples", int, 100000))
    seed = int(_resolve(args, "seed", int, 1))
    state = build_state(spec)
    record = sample(state, m, seed, basis=X_BASIS, spec=spec)
    entries = {"ra": spec.r_a, "rb": spec.r_b, "phi": spec.phi_sub,
               "eta": spec.eta, "samples": m, "seed": seed}
    cfg = config_hash(entries)
    path = os.path.join(out, "samples.csv")
    with _atomic_open(path) as handle:
        save_samples_csv(record, handle)
    entries["acceptance-rate"] = record.acceptance_rate
    write_manifest(os.path.join(out, "samples.manifest"), "sample", entries, cfg, [path])
    print(f"acceptance rate {record.acceptance_rate:.3f}")
    print(path)
    return 0


def cmd_estimate(args):
    out = _out_dir(args)
    spec = _spec_from(args)
    m = int(_resolve(args, "samples", int, 1000000))
    seed = int(_resolve(args, "seed", int, 1))
    reps = int(_resolve(args, "reps", int, 30))
    delta = _resolve(args, "bin", float, 0.2)
    half_range = _resolve(args, "range", float)
    sign = _parse_sign(_resolve(args, "sign", str, "+"))
    delta_axis = _resolve(args, "delta-axis", float, 0.0)
    theta_max = _resolve(args, "theta-max", float, 0.05)
    theta_steps = int(_resolve(args, "theta-steps", int, 20))
    from .estimator import default_theta_grid

    grid = default_theta_grid(theta_max, theta_steps)
    state = build_state(spec)
    gen = GeneratorSpec("displacement", sign, delta_axis)
    fi_theory = fi_continuous(state, gen)
    theory = witness_value(fi_theory,
                           generator_variance(state, gen, "A"),
                           generator_variance(state, gen, "B"))
    summary = replicate(spec, m, reps, seed, delta=delta, theta_grid=grid,
                        half_range=half_range, sign=sign, delta_axis=delta_axis,
                        theory=theory, workers=_workers())
    entries = {"ra": spec.r_a, "rb": spec.r_b, "phi": spec.phi_sub, "eta": spec.eta,
               "samples": m, "seed": seed, "reps": reps, "bin": delta,
               "range": "auto" if half_range is None else half_range,
               "theta-max": theta_max, "theta-steps": theta_steps,
               "sign": sign, "delta-axis": delta_axis}
    cfg = config_hash(entries)
    rep_rows = [
        [i, est.e_value, est.stderr, est.fit.f_raw, est.fit.f_corrected,
         est.fit.c0_hat, est.fit.n_occ, est.var_pa, est.var_pb]
        for i, est in enumerate(summary.estimates)
    ]
    rep_path = os.path.join(out, "estimate_replicates.csv")
    write_csv(rep_path,
              ["replicate", "e_value", "stderr", "f_raw", "f_corrected",
               "c0_hat", "n_occupied", "var_pa", "var_pb"],
              rep_rows, cfg, seed)
    sum_path = os.path.join(out, "estimate_summary.csv")
    write_csv(sum_path,
              ["mean_e", "std_e", "stderr_mean", "theory_e", "overestimated", "reps"],
              [[summary.mean, summary.std, summary.stderr_mean, summary.theory,
                int(summary.overestimated), reps]],
              cfg, seed)
    write_manifest(os.path.join(out, "estimate.manifest"), "estimate", entries,
                   cfg, [rep_path, sum_path])
    print(f"E = {summary.mean:.4f} +- {summary.std:.4f} (theory {summary.theory:.4f})")
    print(sum_path)
    return 0


# ---------------------------------------------------------------------------
# figure-level reproduction

def _witness_vs_loss(r_a, r_b, sign, etas):
    base = build_state(StateSpec(r_a, r_b))
    gen = GeneratorSpec("displacement", sign)
    rows = []
    for eta in etas:
        state = apply_loss(base, eta) if eta > 0 else base
        fi = fi_continuous(state, gen)
        e_val = witness_value(fi,
                              generator_variance(state, gen, "A"),
                              generator_variance(state, gen, "B"))
        rows.append((eta, fi, e_val))
    return rows


def _repro_fig2(out, cfg, entries):
    s_grid = np.arange(0.05, 6.0001, 0.05)
    rows = []
    for s in s_grid:
        r = DB_TO_R * s
        disp_in = eq_displacement(r, r)
        disp_quad = displacement_ridge_value(r)
        shear_in = eq_shear(-r, -r, -1)
        try:
            shear_quad = shear_ridge_value(r)
        except ValueError:
            shear_quad = float("nan")
        phase_any = eq_phase(r, r, -1)
        rows.append([s, r, disp_in, disp_quad, shear_in, shear_quad, phase_any, 0.0])
    path = os.path.join(out, "fig2_max_witness.csv")
    write_csv(path, ["s_db", "r", "displacement_inphase", "displacement_inquad",
                     "shear_inphase", "shear_inquad", "phase", "squeeze"],
              rows, cfg, 0)
    return [path]


def _repro_fig3(out, cfg, entries, which="both"):
    paths = []
    s_grid = np.arange(0.1, 6.0001, 0.1)
    if which in ("both", "a"):
        rows = [[sa, sb, eq_displacement(DB_TO_R * sa, DB_TO_R * sb, np.pi / 4, +1)]
                for sa in s_grid for sb in s_grid]
        path = os.path.join(out, "fig3a_displacement_inphase.csv")
        write_csv(path, ["s_a_db", "s_b_db", "e_q"], rows, cfg, 0)
        paths.append(path)
    if which in ("both", "b"):
        rows = [[sa, sb, eq_displacement(DB_TO_R * sa, -DB_TO_R * sb, np.pi / 4, -1)]
                for sa in s_grid for sb in s_grid]
        path = os.path.join(out, "fig3b_displacement_inquad.csv")
        write_csv(path, ["s_a_db", "s_b_db", "e_q"], rows, cfg, 0)
        paths.append(path)
    return paths


def _repro_fig4(out, cfg, entries, quadrature=False):
    etas = np.arange(0.0, 0.2001, 0.005)
    configs = []
    if not quadrature:
        for s in (1.0, 2.0, 3.0):
            configs.append(("a", s, s, +1))
        for sb in (0.5, 1.0, 1.5, 2.0):
            configs.append(("b", 1.0, sb, +1))
        for sb in (0.5, 1.0, 2.0, 3.0):
            configs.append(("c", 2.0, sb, +1))
        name = "fig4_loss_inphase.csv"
    else:
        for s in (1.0, 2.0, 3.0):
            configs.append(("a", s, -s, -1))
        for sb in (0.5, 1.0, 2.0):
            configs.append(("b", 1.0, -sb, -1))
        for sb in (0.5, 2.0, 6.0):
            configs.append(("c", 2.0, -sb, -1))
        name = "fig4b_loss_inquad.csv"
    rows = []
    for sub, sa, sb, sign in configs:
        for eta, fi, e_val in _witness_vs_loss(DB_TO_R * sa, DB_TO_R * sb, sign, etas):
            rows.append([sub, sa, sb, eta, np.sqrt(eta), fi, e_val])
    path = os.path.join(out, name)
    write_csv(path, ["subfig", "s_a_db", "s_b_db", "eta", "eta_amplitude", "fi", "e_value"],
              rows, cfg, 0)
    return [path]


def _repro_fig5(out, cfg, entries, seed):
    paths = []
    for tag, (ra, rb) in (("a", (0.2, 0.2)), ("b", (0.2, -0.2))):
        spec = StateSpec(ra, rb)
        record = sample(build_state(spec), 500000, seed, spec=spec)
        hist = bin_samples(record, 0.2, 6.0)
        freq = hist.counts / hist.total
        centers = -hist.half_range + hist.delta * (np.arange(hist.n_bins) + 0.5)
        rows = []
        for i, j in np.argwhere(hist.counts > 0):
            rows.append([centers[i], centers[j], freq[i, j]])
        path = os.path.join(out, f"fig5{tag}_frequencies.csv")
        write_csv(path, ["x_a", "x_b", "frequency"], rows, cfg, seed)
        paths.append(path)
    return paths


def _repro_fig6(out, cfg, entries, seed, samples_list, deltas, reps):
    rows = []
    for tag, (ra, rb, sign) in (("a", (0.2, 0.2, +1)), ("b", (0.2, -0.2, -1))):
        for eta in (0.0, 0.1):
            spec = StateSpec(ra, rb, eta=eta)
            state = build_state(spec)
            gen = GeneratorSpec("displacement", sign)
            fi_theory = fi_continuous(state, gen)
            theory = witness_value(fi_theory,
                                   generator_variance(state, gen, "A"),
                                   generator_variance(state, gen, "B"))
            for m in samples_list:
                for delta in deltas:
                    summary = replicate(spec, int(m), reps, seed, delta=delta,
                                        sign=sign, theory=theory, workers=_workers())
                    rows.append([tag, ra, rb, eta, int(m), delta, summary.mean,
                                 summary.std, theory, int(summary.overestimated)])
    path = os.path.join(out, "fig6_discretization.csv")
    write_csv(path, ["subfig", "r_a", "r_b", "eta", "samples", "bin", "mean_e",
                     "std_e", "theory_e", "overestimated"], rows, cfg, seed)
    return [path]


def _repro_appA(out, cfg, entries):
    rows = []
    deltas = np.arange(0.0, np.pi + 1e-9, np.pi / 90)
    for phi in (np.pi / 8, np.pi / 4, 3 * np.pi / 8):
        for delta in deltas:
            rows.append([phi, delta, eq_displacement(0.3, 0.1, phi, +1, delta)])
    path = os.path.join(out, "appA_delta_unbalancing.csv")
    write_csv(path, ["phi", "delta", "e_q"], rows, cfg, 0)
    return [path]


def _repro_appB(out, cfg, entries):
    paths = []
    for kind, r, step in (("shear", -0.2, np.pi / 20), ("phase", 0.2, np.pi / 100)):
        state = build_state(StateSpec(r, r))
        gen = GeneratorSpec(kind, -1)
        angles, grid = angle_grid_scan(state, gen, step)
        rows = [[pa, pb, grid[i, j]]
                for i, pa in enumerate(angles) for j, pb in enumerate(angles)]
        path = os.path.join(out, f"appB_{kind}_anglemap.csv")
        write_csv(path, ["phi_a", "phi_b", "fi"], rows, cfg, 0)
        paths.append(path)
        qfi = qfi_pure(state, gen)
        f_nl = fi_continuous(state, gen, NONLOCAL_SATURATING_BASIS)
        ia, ib = np.unravel_index(grid.argmax(), grid.shape)
        summary = os.path.join(out, f"appB_{kind}_summary.csv")
        write_csv(summary, ["max_fi", "phi_a", "phi_b", "qfi", "fi_nonlocal"],
                  [[grid.max(), angles[ia], angles[ib], qfi, f_nl]], cfg, 0)
        paths.append(summary)
    # maximal local FI versus squeezing depth
    rows = []
    for kind, sgn in (("shear", -1.0), ("phase", 1.0)):
        for s in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5):
            r = sgn * DB_TO_R * s
            state = build_state(StateSpec(r, r))
            gen = GeneratorSpec(kind, -1)
            scan = optimize_angles(state, gen, grid_step=np.pi / 20)
            rows.append([kind, s, r, scan.f_max, qfi_pure(state, gen)])
    path = os.path.join(out, "appB_max_fi_vs_squeezing.csv")
    write_csv(path, ["gen", "s_db", "r", "max_local_fi", "qfi"], rows, cfg, 0)
    paths.append(path)
    return paths


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
    out = _out_dir(args)
    target = args.target
    seed = int(_resolve(args, "seed", int, 42))
    reps = int(_resolve(args, "reps", int, 30))
    samples_opt = _resolve(args, "sample-counts", str, "1000000,2000000,4000000,10000000")
    deltas_opt = _resolve(args, "deltas", str, "0.05,0.1,0.2,0.3,0.4")
    entries = {"target": target, "seed": seed}
    cfg = config_hash(entries)
    if target == "fig2":
        paths = _repro_fig2(out, cfg, entries)
    elif target == "fig3":
        paths = _repro_fig3(out, cfg, entries, "both")
    elif target == "fig3a":
        paths = _repro_fig3(out, cfg, entries, "a")
    elif target == "fig3b":
        paths = _repro_fig3(out, cfg, entries, "b")
    elif target == "fig4":
        paths = _repro_fig4(out, cfg, entries, quadrature=False)
    elif target == "fig4b":
        paths = _repro_fig4(out, cfg, entries, quadrature=True)
    elif target == "fig5":
        paths = _repro_fig5(out, cfg, entries, seed)
    elif target == "fig6":
        entries.update({"reps": reps, "sample-counts": samples_opt, "deltas": deltas_opt})
        cfg = config_hash(entries)
        samples_list = [int(float(tok)) for tok in samples_opt.split(",")]
        deltas = [float(tok) for tok in deltas_opt.split(",")]
        paths = _repro_fig6(out, cfg, entries, seed, samples_list, deltas, reps)
    elif target == "appA":
        paths = _repro_appA(out, cfg, entries)
    elif target == "appB":
        paths = _repro_appB(out, cfg, entries)
    else:
        raise ValueError(f"unknown reproduction target {target!r}")
    plot_path = os.path.join(out, f"plot_{target}.py")
    with _atomic_open(plot_path) as handle:
        handle.write(_PLOT_TEMPLATE.format(
            target=target, files=[os.path.basename(p) for p in paths]))
    write_manifest(os.path.join(out, f"{target}.manifest"), f"reproduce {target}",
                   entries, cfg, paths)
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

    def common(p, *, seeded=True):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--ra", type=float, help="squeezing parameter of mode A")
        p.add_argument("--rb", type=float, help="squeezing parameter of mode B")
        p.add_argument("--sa-db", type=float, dest="sa_db",
                       help="squeezing depth of mode A in dB (positive squeezes x)")
        p.add_argument("--sb-db", type=float, dest="sb_db",
                       help="squeezing depth of mode B in dB")
        p.add_argument("--phi", type=float, help="photon-subtraction mixing angle")
        p.add_argument("--eta", type=float, help="loss fraction in [0, 1)")
        p.add_argument("--sign", help="relative generator sign, '+' or '-'")
        p.add_argument("--delta-axis", type=float, dest="delta_axis",
                       help="displacement unbalancing angle")
        p.add_argument("--out", help="output directory (default .)")
        if seeded:
            p.add_argument("--seed", type=int, help="RNG seed")

    p = sub.add_parser("analytic", help="closed-form witness scans")
    common(p, seeded=False)
    p.add_argument("--scan", help="generator to scan (displacement/phase/shear/squeeze)")
    p.add_argument("--sa-range", dest="sa_range", help="s_A grid start:stop:step in dB")
    p.add_argument("--sb-range", dest="sb_range", help="s_B grid start:stop:step in dB")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("fi", help="single Fisher-information evaluation")
    common(p, seeded=False)
    p.add_argument("--gen", help="generator kind")
    p.add_argument("--phi-a", type=float, dest="phi_a", help="homodyne angle, mode A")
    p.add_argument("--phi-b", type=float, dest="phi_b", help="homodyne angle, mode B")
    p.add_argument("--mix", type=float, help="two-mode mixing angle before measurement")
    p.add_argument("--theta0", type=float, help="parameter point for the FI")
    p.set_defaults(func=cmd_fi)

    p = sub.add_parser("fi-angles", help="FI map over local homodyne angles")
    common(p, seeded=False)
    p.add_argument("--gen", help="generator kind")
    p.add_argument("--step", type=float, help="angle grid step (radians)")
    p.set_defaults(func=cmd_fi_angles)

    p = sub.add_parser("sample", help="draw homodyne samples to CSV")
    common(p)
    p.add_argument("--samples", type=int, help="number of samples")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="full sampled witness estimation")
    common(p)
    p.add_argument("--samples", type=int, help="samples per replicate")
    p.add_argument("--reps", type=int, help="number of replicates")
    p.add_argument("--bin", type=float, help="bin size")
    p.add_argument("--range", type=float, help="binning half range")
    p.add_argument("--theta-max", type=float, dest="theta_max", help="largest displacement")
    p.add_argument("--theta-steps", type=int, dest="theta_steps", help="grid points (even)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("reproduce", help="figure-level reproduction bundles")
    p.add_argument("target", choices=["fig2", "fig3", "fig3a", "fig3b", "fig4",
                                      "fig4b", "fig5", "fig6", "appA", "appB"])
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--reps", type=int, help="replicates for fig6")
    p.add_argument("--sample-counts", dest="sample_counts",
                   help="comma list of sample counts for fig6")
    p.add_argument("--deltas", help="comma list of bin sizes for fig6")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args._file_config = load_config_file(args.config)
        else:
            args._file_config = {}
        return args.func(args)
    except (ValueError, OSError, DegenerateStateError, UnphysicalCovarianceError,
            QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
