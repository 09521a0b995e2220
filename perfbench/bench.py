"""Timing, checking and tracing of one workload run.

Host speed on a shared machine drifts by tens of percent over seconds,
in phases longer than a run (measured on a 2-core Xeon VM: a fixed
Python loop varied by 18% between 10-second windows).  Every timed
repeat therefore sits between two runs of a fixed calibration probe
(:class:`Calibrator`), and the reported times are scaled to a host on
which that probe takes ``CAL_REFERENCE_S``: a slow phase stretches the
probe and the repeat alike, so the scaled time keeps what the program did and drops what the
host did.  The probe is the benchmark's own code, so no change to the
program can move it.  Raw wall times and the probe times are kept in
the provenance record.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.obs import counters
from repro.sim import KERNEL_VERSION, ckernel

from . import report
from .tracing import Tracer, install, summarize, write_spans
from .workloads import LAYERS, CheckFailed, check, make

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Repeats of the operation a run always times, however long they take.
MIN_TIMED_OPS = 3
#: The calibration probe's time on the reference host (about its time
#: on the 2-core Xeon VM the benchmark was tuned on).
CAL_REFERENCE_S = 0.03


def require_kernel() -> None:
    """Fail rather than time the Python fallback."""
    if not ckernel.kernel_available():
        raise CheckFailed("compiled kernel unavailable")
    bad = [k for k in counters.snapshot()
           if k.startswith(("ckernel.unavailable", "ckernel.disabled"))]
    if bad:
        raise CheckFailed(f"compiled kernel did not engage: {bad}")


def set_up(workload: str, seed: int, size: str):
    """Everything before the first timed operation: kernel load, inputs."""
    ckernel.kernel_available()
    w = make(workload, seed, size)
    w.prepare()
    return w


class Calibrator:
    """A fixed probe of host speed: a pure-Python loop, for interpreter
    speed, then copies of an array too large for the per-core caches,
    for shared-cache and memory speed."""

    LOOPS = 500_000
    COPIES = 4
    DOUBLES = 4_000_000

    def __init__(self) -> None:
        self._src = np.ones(self.DOUBLES)
        self._dst = np.empty_like(self._src)

    def __call__(self) -> float:
        """Seconds the probe takes on this host right now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i
        for _ in range(self.COPIES):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - t0


def host_scale(cal_s: float) -> float:
    """Factor that turns a wall time taken next to a calibration of
    *cal_s* into seconds on a host where it takes ``CAL_REFERENCE_S``."""
    return CAL_REFERENCE_S / cal_s


def measure_setup(args, run_py: Path, calibrate: Calibrator) -> list[tuple[float, float]]:
    """(wall, calibration) of fresh processes that import and set up."""
    cmd = [
        sys.executable, str(run_py),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        cal = calibrate()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - t0, cal))
    return samples


def timed_ops(workload, seconds: float, calibrate: Calibrator):
    """Repeat the operation for *seconds* between calibration probes.

    Returns raw walls, the probe times (one more than the walls: the
    probes bracket every repeat) and the outputs.
    """
    walls, cals, outs = [], [calibrate()], []
    t_start = time.perf_counter()
    while len(walls) < MIN_TIMED_OPS or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        out = workload.op()
        walls.append(time.perf_counter() - t0)
        outs.append(out)
        cals.append(calibrate())
    return walls, cals, outs


def repeat_scales(cals) -> list[float]:
    """Host scale of each repeat, from the mean of the probes around it."""
    return [host_scale(0.5 * (before + after)) for before, after in zip(cals, cals[1:])]


def traced_op(workload):
    """One run of the operation with every layer wrapped."""
    tracer = Tracer()
    installed = install(tracer, LAYERS)
    try:
        t0 = time.perf_counter()
        root = tracer.begin("bench.op")
        try:
            # Spans of phase i carry run id i.
            out = workload.op(on_phase=lambda i: setattr(tracer, "run_id", i))
        finally:
            tracer.finish(root)
        wall = time.perf_counter() - t0
    finally:
        installed.restore()
    return out, wall, tracer, summarize(tracer)


def measure(workload, seconds: float, trace: bool, calibrate: Calibrator) -> dict:
    """Check, time and (with *trace*) trace a prepared workload.

    Raises :class:`CheckFailed` when any output is wrong.
    """
    # Untimed reference run: checks, cross-checks, and the warm-up.
    ref = workload.op()
    workload.verify(ref)
    workload.cross_check(ref)
    digest = workload.digest(ref)

    walls, cals, outs = timed_ops(workload, seconds, calibrate)
    for out in outs:
        workload.verify(out)
        check(workload.digest(out) == digest,
              "a repeat produced a different output digest")

    failed = attempted = 0
    for out in outs:
        f, a = workload.failure_counts(out)
        failed += f
        attempted += a
    scales = repeat_scales(cals)
    m = {
        "digest": digest,
        "walls_s": walls,
        "calibration_s": cals,
        "scaled_walls_s": [w * k for w, k in zip(walls, scales)],
        "jobs": [workload.jobs(o) for o in outs],
        "failed_share": failed / attempted if attempted else 0.0,
    }
    if not trace:
        return m

    out, wall, tracer, summary = traced_op(workload)
    cal = 0.5 * (cals[-1] + calibrate())
    workload.verify(out)
    check(workload.digest(out) == digest,
          "the traced run produced a different output digest")
    check(summary.min_self_s > -1e-6, "spans overlap: negative self time")
    layers = report.per_layer(
        summary,
        traced_wall=wall,
        trace_overhead=(
            wall * host_scale(cal) / statistics.median(m["scaled_walls_s"])
        ),
        traced_jobs=workload.jobs(out),
        failed_share=m["failed_share"],
        program=workload.program_metrics(outs, scales),
    )
    gap = layers["trace.reconcile_gap"]["value"]
    check(gap <= report.RECONCILE_TOLERANCE,
          f"traced run does not reconcile: gap {gap:.4f} of wall time")
    m.update(per_layer=layers, traced_wall_s=wall, tracer=tracer)
    return m


def run(args, run_py: Path) -> dict:
    """One benchmark run; returns the result object to print last."""
    require_kernel()
    calibrate = Calibrator()
    setup = measure_setup(args, run_py, calibrate)
    workload = set_up(args.workload, args.seed, args.size)
    m = measure(workload, args.seconds, bool(args.trace), calibrate)
    require_kernel()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "derived_seeds": workload.seeds,
        "size": args.size,
        "sizes": workload.size,
        "digest": m["digest"],
        "timed_ops": len(m["walls_s"]),
        "walls_s": m["walls_s"],
        "calibration_s": m["calibration_s"],
        "setup_samples_s": [w for w, _ in setup],
        "setup_calibration_s": [c for _, c in setup],
        "calibration_reference_s": CAL_REFERENCE_S,
        "failed_share": m["failed_share"],
        "nproc": len(os.sched_getaffinity(0)),
        "omp_threads": ckernel.omp_max_threads(),
        "kernel_backend": "c",
        "kernel_version": KERNEL_VERSION,
        "compile_flags": list(ckernel.compile_flags()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reconcile_tolerance": report.RECONCILE_TOLERANCE,
    }
    if args.trace:
        metrics = m["per_layer"]
        write_spans(m["tracer"], BUILD / "spans" / f"{args.workload}-seed{args.seed}")
        record["traced_wall_s"] = m["traced_wall_s"]
        record["span_count"] = len(m["tracer"].start)
    else:
        metrics = report.end_to_end(
            statistics.median(w * host_scale(c) for w, c in setup),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            m["scaled_walls_s"],
            m["jobs"],
        )

    BUILD.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BUILD / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": True,
        "attempted": len(m["walls_s"]),
        "failed": 0,
        "metrics": metrics,
    }
