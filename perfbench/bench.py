"""Measurement engine: calibration, the cycle loop, and the metrics of one run.

Times are scaled to a reference speed. The machines this benchmark runs on
share their cores with other tenants, which slow every process by up to
1.6x for seconds at a time; that moved raw medians by 30% from run to run.
Before an op, whenever 0.2 s have passed since the last sample, the run
times a fixed calibration loop (the median of 5), and the op's latency is
scaled by ``CAL_REF_S`` over that sample. Raw figures stay in the report.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CAL_REF_S = 0.25e-3  # the calibration loop's time at reference speed
CAL_EVERY_S = 0.2
CAL_REPEATS = 5
_CAL_MATRIX = np.random.default_rng(0).normal(size=(8, 8)) * (1 + 0.5j)


def _calibration_loop():
    """Interpreter arithmetic and small BLAS products, like the ops."""
    s = 0.0
    for i in range(400):
        s += math.sqrt(i + s % 3)
    x = _CAL_MATRIX
    for _ in range(40):
        x = x @ _CAL_MATRIX
        x = x / np.abs(x).max()
    return s


class Calibration:
    """The latest calibration sample, refreshed every ``CAL_EVERY_S``."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def current(self) -> float:
        if perf_counter() - self._last >= CAL_EVERY_S:
            times = []
            for _ in range(CAL_REPEATS):
                t0 = perf_counter()
                _calibration_loop()
                times.append(perf_counter() - t0)
            self.samples.append(statistics.median(times))
            self._last = perf_counter()
        return self.samples[-1]


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count OpenBLAS reports for this process, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


# ---------------------------------------------------------------------------
# measuring


def measure_setup(name, seed, probes=SETUP_PROBES):
    """Median over fresh processes of import time plus preparation time."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["prepare_s"])
    return statistics.median(times)


@dataclass
class Record:
    label: str
    raw_s: float
    scaled_s: float  # raw_s at reference speed
    failure: tuple  # (kind, label, message) or None


@dataclass
class Cycle:
    wall: float
    records: list
    traced: bool
    span_lo: int = 0
    span_hi: int = 0
    counts: dict = None


def run_cycle(ops, tr, cal):
    records = []
    for op in ops:
        speed = CAL_REF_S / cal.current()
        tr.op_id += 1
        t0 = perf_counter()
        failure = None
        try:
            with tr.span("bench.op"):
                op.run(tr)
        except wl.WrongResult as exc:
            failure = ("wrong", op.label, str(exc))
        except Exception as exc:  # one op's failure must not stop the run
            failure = ("error", op.label, f"{type(exc).__name__}: {exc}")
        raw = perf_counter() - t0
        records.append(Record(op.label, raw, raw * speed, failure))
    return records


def measure(workload, ops, ctx, seconds, trace):
    """Whole cycles until the next one would end after ``seconds``.

    With tracing, cycles alternate off/on and the run ends on a traced one.
    """
    cal = Calibration()
    null = tracing.NullTracer()
    run_cycle(ops, null, cal)  # warm-up, discarded
    ctx.child_rss_kb.clear()
    tracer = tracing.Tracer() if trace else None
    cycles = []
    start = perf_counter()
    while True:
        traced = trace and len(cycles) % 2 == 1
        tr = tracer if traced else null
        lo = len(tracer.spans) if traced else 0
        t0 = perf_counter()
        records = run_cycle(ops, tr, cal)
        if traced and workload.traced_extra is not None:
            last_op, tr.op_id = tr.op_id, -1  # extra spans belong to no op
            workload.traced_extra(ctx, tr)
            tr.op_id = last_op
        cycle = Cycle(perf_counter() - t0, records, traced)
        if traced:
            cycle.span_lo, cycle.span_hi = lo, len(tracer.spans)
            cycle.counts = tracer.take_counts()
        cycles.append(cycle)
        elapsed = perf_counter() - start
        whole = not trace or len(cycles) % 2 == 0
        if whole and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            return cycles, tracer, cal


def _latency_metrics(records, field):
    times = [getattr(r, field) for r in records]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "throughput_ops_s": len(times) / sum(times),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
    }


def end_to_end(records, ctx, setup_s):
    if ctx.child_rss_kb:
        rss_kb = max(ctx.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = _latency_metrics(records, "scaled_s")
    values.update(peak_rss_mb=rss_kb / 1024, setup_s=setup_s)
    return values


def layer_values(totals):
    """Name the per-cycle span totals and counts as per-layer metrics."""
    v = dict(totals)
    v["analysis.reconstruction_map.atoms_replay_s"] = totals.get(wl.ATOMS_REPLAY + ".self_s", 0.0)
    v["linalg.real_rank_and_pinv.replay_s"] = totals.get(wl.PINV_REPLAY + ".self_s", 0.0)
    candidates = totals.get(wl.BUILD + ".candidates", 0.0)
    v[wl.BUILD + ".merge_ratio"] = totals.get(wl.BUILD + ".atoms", 0.0) / candidates if candidates else 0.0
    for key, value in totals.items():
        if key.startswith("cli.") and key.endswith(".self_s"):
            v[key[: -len(".self_s")] + ".wall_s"] = value
    interpreter = totals.get("cli.interpreter.self_s", 0.0)
    v["cli.interpreter_s"] = interpreter
    v["cli.import_s"] = totals.get("cli.import.self_s", interpreter) - interpreter
    return v


def per_layer(cycles, tracer, names):
    """Median over traced cycles of each per-layer value, plus the tracing overhead."""
    selfs = tracing.self_times(tracer.spans)
    per_cycle = []
    for c in cycles:
        if c.traced:
            totals = tracing.cycle_totals(tracer.spans, selfs, c.span_lo, c.span_hi)
            totals.update(c.counts)
            per_cycle.append(layer_values(totals))
    values = {n: statistics.median(pc.get(n, 0.0) for pc in per_cycle) for n in names}
    # replays are extra work of the traced run, not tracing cost; scale them like their ops
    replay_raw = sum(
        end - start for name, start, end, _, _ in tracer.spans
        if name in (wl.ATOMS_REPLAY, wl.PINV_REPLAY)
    )
    traced_raw = sum(r.raw_s for c in cycles if c.traced for r in c.records)
    traced = sum(r.scaled_s for c in cycles if c.traced for r in c.records)
    traced *= 1.0 - replay_raw / traced_raw
    untraced = sum(r.scaled_s for c in cycles if not c.traced for r in c.records)
    values["bench.trace_overhead_frac"] = traced / untraced - 1.0
    return values


def run_workload(name, seed, seconds, trace, definition, probes=SETUP_PROBES):
    """Run one workload in this process.

    Returns the result line, a report with raw figures and the
    environment, and the spans (None with tracing off).
    """
    workload = wl.WORKLOADS[name]
    setup_s = None if trace else measure_setup(name, seed, probes)
    workdir = Path(tempfile.mkdtemp(prefix="_work_", dir=HERE))
    try:
        ctx = wl.Context(ROOT, workdir)
        inputs = workload.inputs(seed)
        ops = workload.ops(inputs, workload.prepare(inputs), ctx)
        cycles, tracer, cal = measure(workload, ops, ctx, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for c in cycles for r in c.records]
    failures = [r.failure for r in records if r.failure is not None]
    listed = definition["per_layer" if trace else "end_to_end"]
    if trace:
        values = per_layer(cycles, tracer, [m["name"] for m in listed])
    else:
        values = end_to_end(records, ctx, setup_s)
    result = {
        "correct": not any(kind == "wrong" for kind, _, _ in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r.raw_s * 1e3)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cycles": len(cycles),
        "ops_per_cycle": len(ops),
        "measured_s": sum(c.wall for c in cycles),
        "latency_samples": len(records),
        "failed_frac": len(failures) / len(records),
        "raw": _latency_metrics(records, "raw_s"),
        "calibration_ms": {
            "reference": CAL_REF_S * 1e3,
            "median": statistics.median(cal.samples) * 1e3,
            "samples": len(cal.samples),
        },
        "raw_median_ms_by_op": {k: statistics.median(v) for k, v in by_label.items()},
        "cycle_walls_s": [c.wall for c in cycles],
        "failures": [list(f) for f in failures[:20]],
        "env": environment(),
        "result": result,
    }
    return result, report, (tracer.spans if trace else None)
