#!/usr/bin/env python3
"""Record benchmark rows for one checkout in BENCH_<tag>.json.

Runs the checkout's own ``perfbench/run.py`` (unchanged, end-to-end mode)
``--runs`` times for each chosen workload and writes, per workload, the
median, quartiles and interquartile range of every end-to-end metric, with
the operation counts.  The file also records the machine and library
versions that the benchmark reports, the checkout's git commit and the
wall time of its tier-1 test suite, so rows from two commits can be
compared on the same machine:

    python3 scripts/bench_record.py --root . --tag after --workloads gp-regression --runs 3

``--smoke`` passes through to ``run.py`` (tiny inputs) and skips the tier-1
timing, which would run the suite that contains this script's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_once(root: Path, workload: str, seed: int, seconds: float,
             smoke: bool) -> tuple[dict, dict]:
    """One end-to-end benchmark run: its result line and its detail line."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run failed with status {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(detail)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and IQR of each metric over the result lines of one workload."""
    if not results:
        raise ValueError("no results to summarize")
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = _quartiles(values)
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "iqr": q3 - q1, "values": values}
    return {"runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def tier1_wall_time(root: Path) -> dict:
    """Wall time and summary line of the checkout's tier-1 tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def git_commit(root: Path) -> dict:
    """The checkout's HEAD and whether its tracked files differ from it."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=False)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="checkout to measure (holds perfbench/ and src/)")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; no tier-1 timing")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with open(root / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.runs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--runs must be >= 1")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    record = {"tag": args.tag, **git_commit(root), "environment": None,
              "settings": {"runs": args.runs, "seed": args.seed, "seconds": seconds,
                           "smoke": args.smoke},
              "workloads": {}, "tier1": None}
    for workload in workloads:
        results = []
        for index in range(args.runs):
            result, detail = run_once(root, workload, args.seed, seconds, args.smoke)
            results.append(result)
            if record["environment"] is None:
                record["environment"] = {k: v for k, v in detail["environment"].items()
                                         if k != "seed"}
            print(f"{workload} run {index + 1}/{args.runs}: time_to_result_s "
                  f"{result['metrics']['time_to_result_s']['value']:.3f}", flush=True)
        record["workloads"][workload] = summarize(results)
    if not args.smoke:
        record["tier1"] = tier1_wall_time(root)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.tag}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
