"""Benchmark of the thetakernels package: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 25 --trace 0

Workloads: mc-sweep, gp-regression, spectra, cli-cold (see BENCHMARK.json).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
a traced run.  The line before it names the workload-specific metrics, the
environment and the report file written under perfbench/out/.  ``--smoke``
runs the workload at a tiny size, for the benchmark's own tests.

The package is imported from ./src only; without it the command exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import math
import os
import subprocess
import sys
import threading
import time

from metrics import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
#: Lists every metric name with its unit; the result carries exactly these.
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 150


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOAD_NAMES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe(args) -> int:
    """Set up as a measured run would, then report readiness and exit."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        workload.warmup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def _setup_seconds(args, root: str) -> float:
    """Fresh interpreter to the first timed operation, timed from outside."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe failed with status {status}")
    return elapsed


def _failure_summary(ops) -> dict:
    """Failed operations counted by check; a reason reads "check: details"."""
    reasons = collections.Counter(part.split(":")[0] for op in ops if op.failed
                                  for part in op.reason.split("; "))
    examples = [op.reason for op in ops if op.failed][:10]
    return {"by_reason": dict(reasons), "examples": examples}


def _units(section: str) -> dict[str, str]:
    with open(SPEC_PATH) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _measure(args, root: str) -> int:
    from harness import NULL_TRACER, Tracer, environment, median, run_rounds
    from workloads import WORKLOADS

    # Byte-compile up front so no set-up below pays for it.
    for path in (os.path.join(root, "src"), HERE):
        compileall.compile_dir(path, quiet=1)
    setups = ([] if args.trace else
              [_setup_seconds(args, root) for _ in range(1 if args.smoke else SETUP_REPEATS)])

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else NULL_TRACER
    try:
        workload.warmup()
        rounds = run_rounds(workload, args.seconds, tracer, workload.MIN_ROUNDS,
                            alternate=bool(args.trace))
    finally:
        workload.close()

    detail: dict = {}
    if args.trace:
        units = _units("per_layer")
        values = workload.per_layer(rounds, tracer, units)
    else:
        units = _units("end_to_end")
        values, detail = workload.end_to_end(rounds)
        values["setup_s"] = median(setups)
        for generic, specific in WORKLOAD_NAMES[args.workload].items():
            detail[specific] = {"value": values[generic], "unit": units[generic]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from {os.path.basename(SPEC_PATH)}: "
                           f"{sorted(set(values) ^ set(units))}")
    ops = [op for r in rounds for op in r.ops]
    failed = sum(op.failed for op in ops)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed),
        "detail": detail, "setup_s_samples": setups,
        "failures": _failure_summary(ops),
        "rounds": [{"index": r.index, "traced": r.traced, "wall_s": r.wall_s,
                    "failed": sum(op.failed for op in r.ops),
                    "latencies_s": [op.latency_s for op in r.ops]}
                   for r in rounds],
        "metrics": values,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, default=float)
    if args.trace:
        tracer.write(stem + "-spans.json")

    print(json.dumps({"report": os.path.relpath(stem + ".json", root), "detail": detail,
                      "failures": report["failures"]["by_reason"],
                      "environment": report["environment"]}, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "thetakernels", "__init__.py")):
        print("perfbench: no src/thetakernels here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import thetakernels

    if not os.path.abspath(thetakernels.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {thetakernels.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds < 0:
        print("perfbench: --seconds must be a finite number >= 0", file=sys.stderr)
        return 2
    return _probe(args) if args.probe else _measure(args, root)


if __name__ == "__main__":
    sys.exit(main())
