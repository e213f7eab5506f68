"""Output checks and reference values for the benchmark's workloads.

Checker.check reads the files one pass wrote, plus the small products the
pass reported, and returns (ref_rel_err, failures, notes). failures lists
(operation index, message) pairs; ref_rel_err is the largest relative
deviation of an FI-derived output from an independent reference: closed-form
witnesses, 4 Var H from the moment engine, the one-dimensional lossy oracle
in tests/oracles.py, and the exact A<->B swap symmetry of the angle maps.
References are computed once per run and cached.
"""

import hashlib
import importlib.util
import math
import os

import numpy as np

from ngwsim import (
    NONLOCAL_SATURATING_BASIS,
    GeneratorSpec,
    StateSpec,
    build_state,
    eq_displacement,
    fi_continuous,
    generator_variance,
    measurement_pdf,
    qfi_pure,
    sample,
)

import workloads

DB_TO_R = math.log(10.0) / 20.0  # CLI figure axes: positive dB squeezes x
# An FI-derived output may deviate from its reference by at most ten times
# the relative tolerance the FI quadrature is asked for (1e-6).
FI_TOL = 1e-5
# Error bars allowed for a sampled statistic. Each sampled run makes 16
# variance tests (sampled) or 3 covariance tests (record_io); at 5 error bars
# a faithful sampler fails one with probability below 1e-5 per run.
Z_MAX = 5.0
# Standard errors by which a configuration's mean E may exceed the continuous
# theory (the information ceiling). 3 would do with honest error bars, but the
# estimator's per-replicate stderr understates the replicate scatter up to
# 2.5x at bin 0.1, so the gate is 3 x 2.5.
CEILING_Z = 7.5


def read_csv(path):
    """Rows of a CLI CSV as dicts of strings, after checking the schema line."""
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith("# ngw-sim v1, columns: "):
        raise ValueError(f"{path}: missing schema line")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def rel(value, ref):
    return abs(value - ref) / abs(ref)


def load_oracles(root):
    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(root, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    """Checks the outputs of one workload at one seed."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.oracles = load_oracles(root)
        self._cache = {}

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, pass_dir, products):
        """(ref_rel_err, failures, notes) for the outputs in pass_dir."""
        method = getattr(self, f"_check_{self.workload}")
        return method(pass_dir, products)

    # -- references -------------------------------------------------------

    def _lossy_fi(self, r, eta):
        return self.cached(("oracle", r, eta),
                           lambda: self.oracles.fi_lossy_symmetric_1d(r, eta))

    def _variances(self, r_a, r_b, eta, sign):
        def compute():
            state = build_state(StateSpec(r_a, r_b, eta=eta))
            gen = GeneratorSpec("displacement", sign)
            return (generator_variance(state, gen, "A"), generator_variance(state, gen, "B"))
        return self.cached(("var", r_a, r_b, eta, sign), compute)

    def _witness_reference(self, r_a, r_b, eta, sign):
        """Independent witness value of a displacement configuration, or None."""
        if eta == 0.0:
            return eq_displacement(r_a, r_b, np.pi / 4, sign)
        if r_a == r_b and sign > 0:
            var_a, var_b = self._variances(r_a, r_b, eta, sign)
            return self._lossy_fi(r_a, eta) - 4.0 * (var_a + var_b)
        return None

    # -- workloads --------------------------------------------------------

    def _check_anglemap(self, pass_dir, products):
        errs, failures = [], []
        for op, (kind, r) in enumerate((("shear", -0.2), ("phase", 0.2))):
            def refs():
                state = build_state(StateSpec(r, r))
                gen = GeneratorSpec(kind, -1)
                return qfi_pure(state, gen), fi_continuous(state, gen, NONLOCAL_SATURATING_BASIS)
            qfi, f_nonlocal = self.cached(kind, refs)
            rows = read_csv(os.path.join(pass_dir, f"op{op}", f"fi_angles_{kind}.csv"))
            fi, phi_a, phi_b = (np.array([float(row[k]) for row in rows])
                                for k in ("fi", "phi_a", "phi_b"))
            n = math.isqrt(fi.size)
            if n * n != fi.size or n == 0:
                failures.append((op, f"{kind} map has {fi.size} values, not a square grid"))
                continue
            # both maps vanish where both modes are measured in x or both in p
            # (0 and 1e-31 here); everywhere else FI is positive
            nodal = (phi_a == phi_b) & (np.isclose(phi_a, 0.0, rtol=0.0, atol=1e-12)
                                        | np.isclose(phi_a, np.pi / 2, rtol=0.0, atol=1e-12))
            if (not np.all(np.isfinite(fi)) or fi.max() > qfi * (1.0 + 1e-6)
                    or not np.all(fi[~nodal] > 0.0) or not np.all(np.abs(fi[nodal]) <= FI_TOL * qfi)):
                failures.append((op, f"{kind} map outside (0, QFI], or not 0 at the x-x and "
                                     f"p-p points: min {fi.min()!r}, max {fi.max()!r}, "
                                     f"QFI {qfi!r}, nodal {fi[nodal].tolist()}"))
                continue
            grid = fi.reshape(n, n)
            scale = np.maximum(grid, grid.T)
            asym = np.abs(grid - grid.T) / np.where(scale > 0, scale, 1.0)
            errs += [float(asym.max()), rel(f_nonlocal, qfi)]
        return self._gate(errs, failures, [0, 1])

    def _check_loss_sweep(self, pass_dir, products):
        errs, failures = [], []
        for op, (name, sign) in enumerate((("fig4_loss_inphase.csv", +1),
                                           ("fig4b_loss_inquad.csv", -1))):
            for row in read_csv(os.path.join(pass_dir, f"op{op}", name)):
                s_a, s_b, eta, fi, e_val = (float(row[k]) for k in
                                            ("s_a_db", "s_b_db", "eta", "fi", "e_value"))
                if not (math.isfinite(fi) and math.isfinite(e_val)):
                    failures.append((op, f"{name}: non-finite row {row}"))
                    continue
                r_a, r_b = DB_TO_R * s_a, DB_TO_R * s_b
                if eta == 0.0:
                    gen = GeneratorSpec("displacement", sign)
                    qfi = self.cached(("qfi", r_a, r_b, sign),
                                      lambda: qfi_pure(build_state(StateSpec(r_a, r_b)), gen))
                    errs += [rel(fi, qfi), rel(e_val, eq_displacement(r_a, r_b, np.pi / 4, sign))]
                if sign > 0 and s_a == s_b:
                    errs.append(rel(fi, self._lossy_fi(r_a, eta)))
        return self._gate(errs, failures, [0, 1])

    def _check_sampled(self, pass_dir, products):
        errs, failures, notes = [], [], []
        rows = read_csv(os.path.join(pass_dir, "op0", "fig6_discretization.csv"))
        caps = products.get("replicates", [])
        if len(rows) != len(caps) or not rows:
            return 0.0, [(0, f"{len(rows)} CSV rows for {len(caps)} replicate runs")], notes
        ceiling_z = -math.inf
        for row, cap in zip(rows, caps):
            r_a, r_b, eta = cap["r_a"], cap["r_b"], cap["eta"]
            written = (float(row["r_a"]), float(row["r_b"]), float(row["eta"]),
                       float(row["bin"]), float(row["mean_e"]))
            if written != (r_a, r_b, eta, cap["delta"], cap["mean"]):
                failures.append((0, f"CSV row {row} does not match its replicate run"))
                continue
            theory = float(row["theory_e"])
            ref = self._witness_reference(r_a, r_b, eta, cap["sign"])
            if ref is not None:
                errs.append(rel(theory, ref))
            if eta == 0.0 and cap["delta"] == 0.1 and min(cap["values"]) <= 0.0:
                failures.append((0, f"eta=0 bin 0.1 replicate fails to certify: {cap['values']}"))
            var_a, var_b = self._variances(r_a, r_b, eta, cap["sign"])
            for mode, ref_var in (("pa", 4.0 * var_a), ("pb", 4.0 * var_b)):
                for value, err in zip(cap[f"var_{mode}"], cap[f"var_{mode}_err"]):
                    if abs(value - ref_var) > Z_MAX * err:
                        failures.append((0, f"Var {mode} = {value!r} vs {ref_var!r} "
                                            f"+- {err!r} (r=({r_a}, {r_b}), eta={eta})"))
            se_mean = math.sqrt(sum(s * s for s in cap["stderr"])) / len(cap["stderr"])
            ceiling_z = max(ceiling_z, (cap["mean"] - theory) / se_mean)
        notes.append(f"information ceiling: largest (mean E - theory) / SE = {ceiling_z:.2f}")
        if ceiling_z > CEILING_Z:
            failures.append((0, f"mean E exceeds the theory by {ceiling_z:.2f} > {CEILING_Z} SE"))
        ref_rel_err, gated, _ = self._gate(errs, failures, [0])
        return ref_rel_err, gated, notes

    def _check_record_io(self, pass_dir, products):
        errs, failures = [], []
        r_a, r_b, eta = (float(v) for v in workloads.RECORD_STATE)
        count = workloads.RECORD_COUNT
        state = self.cached("state", lambda: build_state(StateSpec(r_a, r_b, eta=eta)))

        def regenerate():
            pairs = np.ascontiguousarray(sample(state, count, self.seed).pairs, dtype="<f8")
            return hashlib.sha256(pairs.tobytes()).hexdigest()

        record = products.get("record")
        if record is None:
            failures.append((2, "no record was loaded"))
        else:
            if record["rows"] != count:
                failures.append((2, f"{record['rows']} rows loaded for {count} samples"))
            if record["sha256"] != self.cached("sha256", regenerate):
                failures.append((2, "loaded record differs from the sampled record"))
            density = measurement_pdf(state)
            model = density.covariance()
            fourth = {(0, 0): density.moment(4, 0), (0, 1): density.moment(2, 2),
                      (1, 1): density.moment(0, 4)}
            for value, (i, j) in zip(record["cov"], ((0, 0), (0, 1), (1, 1))):
                se = math.sqrt((fourth[i, j] - model[i, j] ** 2) / count)
                if abs(value - model[i, j]) > Z_MAX * se:
                    failures.append((0, f"sample covariance [{i},{j}] = {value!r} vs model "
                                        f"{model[i, j]!r} +- {se!r}"))
        row = read_csv(os.path.join(pass_dir, "op1", "fi.csv"))[0]
        fi, e_val = float(row["fi"]), float(row["e_value"])
        errs += [rel(fi, self._lossy_fi(r_a, eta)),
                 rel(e_val, self._witness_reference(r_a, r_b, eta, +1))]
        return self._gate(errs, failures, [1])

    @staticmethod
    def _gate(errs, failures, ops):
        """Largest reference deviation; beyond FI_TOL it fails the given ops."""
        worst = max(errs, default=0.0)
        if not all(math.isfinite(e) for e in errs):
            worst = math.inf
        if not worst <= FI_TOL:
            failures = failures + [(op, f"reference deviation {worst!r} > {FI_TOL}") for op in ops]
        return float(worst), failures, []
