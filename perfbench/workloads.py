"""The benchmark's workloads: the operations one pass performs, in order.

An operation is ("cli", argv) for one ``ngwsim.cli.main`` call or
("load", relative path) for one ``estimator.load_samples_csv`` call. Each
operation writes into its own directory ``op<k>`` under the pass directory,
so an output file belongs to exactly one operation.

The FI workloads are fixed paper configurations and ignore the seed; the
sampled workloads pass it to the CLI. Sizes are scaled down from the paper
bundles so that several fresh-process passes fit into one measured run.
This module uses only the standard library (see spans.py).
"""

import math

SAMPLED_COUNT = 500_000   # samples per record in the fig6 workload
RECORD_COUNT = 1_000_000  # samples written and read back by record_io
RECORD_STATE = ("0.2", "0.2", "0.1")  # r_a, r_b, eta of the record_io state

NAMES = ("anglemap", "loss_sweep", "sampled", "record_io")


def operations(workload, seed):
    """The ordered operations of one pass of a workload."""
    if workload == "anglemap":
        # shear and phase FI maps over local angles (scaled-down appB)
        return [
            ("cli", ["fi-angles", "--gen", "shear", "--ra", "-0.2", "--rb", "-0.2",
                     "--step", repr(math.pi / 10)]),
            ("cli", ["fi-angles", "--gen", "phase", "--ra", "0.2", "--rb", "0.2",
                     "--sign", "-", "--step", repr(math.pi / 20)]),
        ]
    if workload == "loss_sweep":
        return [("cli", ["reproduce", "fig4"]), ("cli", ["reproduce", "fig4b"])]
    if workload == "sampled":
        return [("cli", ["reproduce", "fig6", "--sample-counts", str(SAMPLED_COUNT),
                         "--deltas", "0.1,0.4", "--reps", "2", "--seed", str(seed)])]
    if workload == "record_io":
        ra, rb, eta = RECORD_STATE
        state = ["--ra", ra, "--rb", rb, "--eta", eta]
        return [
            ("cli", ["sample", *state, "--samples", str(RECORD_COUNT), "--seed", str(seed)]),
            ("cli", ["fi", *state]),
            ("load", "op0/samples.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
