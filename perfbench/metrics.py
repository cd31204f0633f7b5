"""Constants the benchmark's metric names are built from.

``BENCHMARK.json`` at the repository root is the one list of metric names,
units and directions; run.py reads it and refuses a result whose names
differ.  Every run reports every metric: a per-layer metric of a layer the
workload does not call reads 0.

End-to-end metrics mean the same thing on every workload, measured on that
workload's own operations and rounds:

    op_p50_ms         median latency of one operation
    op_tail_ms        tail latency (see harness.tail), sample count recorded
    work_per_s        operations per second of library time; MC samples per
                      second on mc-sweep
    time_to_result_s  library time of one round; on mc-sweep scaled to a
                      fixed standard error
    setup_s           fresh interpreter to the first timed operation

WORKLOAD_NAMES maps each of them to the workload-specific name it stands for.
"""

from __future__ import annotations

#: Workload-specific names of the end-to-end metrics, printed beside them.
WORKLOAD_NAMES = {
    "mc-sweep": {"work_per_s": "mc.samples_per_s",
                 "time_to_result_s": "mc.time_to_se_s"},
    "gp-regression": {"time_to_result_s": "gp.fit_s+gp.predict_s"},
    "spectra": {"work_per_s": "spectra.pgfs_per_s",
                "op_p50_ms": "spectra.op_p50_ms",
                "op_tail_ms": "spectra.op_tail_ms"},
    "cli-cold": {"op_p50_ms": "cli.cmd_p50_ms",
                 "op_tail_ms": "cli.cmd_tail_ms"},
}

KERNEL_KINDS = ("pure", "cmixed", "series")
MC_WIDTHS = (64, 256, 1024)
CLI_SUBCOMMANDS = (
    "pgf-eval", "pgf-iterate", "pgf-coeffs", "activation-curve",
    "activation-to-pgf", "kernel-eval", "kernel-gram", "kernel-limit",
    "kernel-eigen", "mlp-study", "gp-fit", "gp-predict", "reproduce-fig1",
)
LAYERS = ("bench", "pgf", "activations", "kernels", "mlp", "gp", "cli")
