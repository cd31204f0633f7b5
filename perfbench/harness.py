"""Timing, tracing and statistics shared by the benchmark workloads.

A workload runs in rounds.  A round is the workload's fixed unit of work (one
sweep of Monte Carlo cells, one pass over the GP kernel specs, one batch of
drawn PGFs, one pass over the CLI subcommands) and is made of operations,
each checked against an independent value.  End-to-end metrics are medians
over the operations or rounds of one run with tracing off; per-layer metrics
come from a separate traced run, whose spans are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

#: A tail percentile is reported only while this many samples lie beyond it.
TAIL_BEYOND = 10


@dataclass
class Op:
    """One checked operation: its latency and whether it failed.

    ``reason`` reads "check: details", several joined by "; ".
    """

    kind: str
    latency_s: float
    failed: bool
    reason: str = ""


@dataclass
class Round:
    """One round: its wall time, its operations and workload-specific facts."""

    index: int
    traced: bool
    wall_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; each has a name, start, end, parent and op id."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._round = -1

    def start_round(self, index: int) -> None:
        self._round = index

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation; layer spans opened inside are its children."""
        self._op_id += 1
        with self.span("bench." + kind):
            yield

    @contextmanager
    def span(self, name: str, extra: bool = False):
        """Span around one call into a layer.

        ``extra`` marks calls the traced run makes only to attribute time
        (such as a separately timed Gram matrix); round times exclude them.
        """
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self._op_id, "round": self._round, "extra": extra}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part covered by its child spans."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def extra_time(self, round_index: int) -> float:
        """Time in one round's extra spans, which are never nested."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["extra"] and s["round"] == round_index)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False

    def start_round(self, index: int) -> None:
        pass

    def op(self, kind: str):
        return nullcontext()

    def span(self, name: str, extra: bool = False):
        return nullcontext()

    def extra_time(self, round_index: int) -> float:
        return 0.0


NULL_TRACER = NullTracer()


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values, pct: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the pct-th percentile, or the
    median when fewer than TAIL_BEYOND samples would lie beyond pct."""
    values = list(values)
    if len(values) * (100.0 - pct) / 100.0 < TAIL_BEYOND:
        pct = 50.0
    return percentile(values, pct), pct, int(len(values) * (100.0 - pct) / 100.0)


def run_rounds(workload, seconds: float, tracer, min_rounds: int,
               alternate: bool = False) -> list[Round]:
    """Run whole rounds within ``seconds`` (at least ``min_rounds``).

    A round is not started when a round as long as the slowest so far would
    end after ``seconds``, so long rounds do not overrun the run's time.
    With ``alternate`` every second round runs untraced, so the traced run
    can report its own tracing overhead.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    slowest = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - start + slowest < seconds:
        index = len(rounds)
        active = tracer if not (alternate and index % 2 == 1) else NULL_TRACER
        active.start_round(index)
        rnd = Round(index=index, traced=active.enabled)
        t0 = time.perf_counter()
        workload.run_round(rnd, active)
        slowest = max(slowest, time.perf_counter() - t0)
        rnd.wall_s = time.perf_counter() - t0 - active.extra_time(index)
        rounds.append(rnd)
    return rounds


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy build, when it can be queried."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(seed: int) -> dict:
    """Machine and library facts recorded with every result."""
    import numpy
    import scipy

    from thetakernels.mlp import worker_count

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "mlp_worker_count": worker_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "THETA_KERNELS_THREADS") if k in os.environ},
        "machine": platform.machine(),
        "platform": sys.platform,
        "seed": seed,
    }
