"""The ``repro bench`` harness: time the performance stack, enforce its
agreement checks, and append one record to the trajectory file.

Sections, run in this order, each returning its record sub-dict and
its summary lines:

* kernels — vectorized FCFS/PS replay vs the per-job reference loops
  on one synthetic substream (``ps_backend`` names the compiled or
  pure-Python busy-period core in use), plus the compiled FCFS cell
  kernel's bit-identity against the numpy recursion;
* replication — one fast-path replication vs the event engine on the
  Figure 3 high-skew point, for both disciplines;
* sweep — a Figure 3 subset serially, through the grid executor
  (verifying the series are identical), then cold/warm through the
  replication cache;
* cell — the same subset per-replication vs cell-batched (shared
  streams, batched replay), plus paired-vs-unpaired ORR/WRR
  confidence-interval widths under common random numbers;
* executor — a tiny grid through real workers vs the auto-serial
  small-task path;
* telemetry — the disabled-telemetry overhead guard (<2% of one
  replication, priced from the no-op span path) and a trace-on vs
  trace-off bit-identity check over the emitted JSONL;
* serve (with ``--serve``) — one fault-free service run through the
  vectorized window loop vs the per-job reference loop on the same
  stream, asserting the two reports are byte-identical and recording
  end-to-end jobs/sec plus the dispatch plane's ns/job (memoized
  Algorithm 2 slices);
* net (with ``--net``) — the in-process transport must reproduce the
  SchedulerService report byte for byte, a socket-mode overload drill
  must hold its backpressure bounds while staying byte-identical, a
  rebalanced overload drill over an imbalanced 2-shard pool must show
  the capacity-aware router shedding nothing where the legacy even
  split sheds, a kill+rejoin drill must stay byte-identical across
  transports, and the dispatch decision latency must sit under
  :data:`~repro.obs.gate.NET_DISPATCH_CEILING_NS`.

Every agreement check goes through :func:`require`, whose
:class:`BenchFailure` stops the run before anything is appended; so
does a failing :func:`~repro.obs.gate.check_gate` under ``gate``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from contextlib import nullcontext, suppress
from datetime import datetime, timezone
from functools import partial

import numpy as np
from scipy import stats as sstats

from .core import default_cache, evaluate_cell, get_policy
from .core import executor as executor_mod
from .core.cache import ReplicationCache
from .core.evaluate import run_policy_once
from .core.executor import (
    ReplicationTask,
    run_replication_grid,
    shutdown_shared_executor,
    summarize_outcomes,
)
from .dispatch.round_robin import dispatch_sequence_slice
from .distributions.fitting import distribution_from_mean_cv
from .experiments.base import SCALES, run_policy_sweep
from .experiments.configs import skewness_config
from .experiments.figure3 import run_figure3
from .net.runtime import run_in_process, run_sockets
from .obs import JsonlSink, add_sink, remove_sink, validate_event
from .obs import spans as spans_mod
from .obs.digest import results_digest, same_report
from .obs.gate import (
    DEFAULT_THRESHOLD,
    NET_DISPATCH_CEILING_NS,
    check_gate,
    check_threshold,
)
from .obs.spans import span as obs_span
from .rng import replication_seeds
from .service.loop import SchedulerService, ServiceConfig
from .service.sources import SyntheticJobSource, Workload
from .sim import ckernel
from .sim.fastpath import (
    KERNEL_VERSION,
    _fcfs_replay_loop,
    _ps_replay_loop,
    fcfs_replay,
    ps_replay,
)

__all__ = ["BenchFailure", "require", "ratio", "run"]

#: The Figure 3 subset the sweep and cell sections time.
FIG3 = dict(fast_speeds=(1.0, 10.0), policies=("WRAN", "WRR", "ORAN", "ORR"))
MRR = "mean_response_ratio"


def _series(sweep) -> dict:
    """Policy → mean-response-ratio series of a Figure 3 sweep."""
    return {p: sweep.series(p, MRR) for p in FIG3["policies"]}


def _same(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[p], b[p]) for p in FIG3["policies"])


class BenchFailure(Exception):
    """An agreement check failed; the message names it."""


def require(ok, msg: str) -> None:
    if not ok:
        raise BenchFailure(msg)


def ratio(a: float, b: float, default: float = float("inf")) -> float:
    """``a / b``, or *default* when the denominator timed at zero."""
    return a / b if b > 0 else default


def _time(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _best_pair(fn_a, fn_b, repeats=7):
    best_a = best_b = float("inf")
    out_a = out_b = None
    for _ in range(repeats):
        out_a, t = _time(fn_a)
        best_a = min(best_a, t)
        out_b, t = _time(fn_b)
        best_b = min(best_b, t)
    return out_a, best_a, out_b, best_b


def _backend() -> str:
    return "c" if ckernel.kernel_available() else "python"


def _point(x, scale, discipline="ps"):
    """The Figure 3 system at fast speed *x*, rho 0.70, *scale*'s horizon."""
    return skewness_config(x, 0.70, duration=scale.duration,
                           warmup=scale.warmup, discipline=discipline)


def _source(speeds, util):
    """The synthetic serve stream: mean-1, cv-1 job sizes at *util*."""
    wl = Workload(
        total_speed=sum(speeds), utilization=util,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SyntheticJobSource(wl, 7)


def _service_config(speeds, util, jobs):
    """A 50-window horizon offering ~*jobs* arrivals: mean-1 job sizes
    make the arrival rate ``util * sum(speeds)``."""
    duration = jobs / (util * sum(speeds))
    return ServiceConfig(
        speeds=speeds, duration=duration, control_period=duration / 50.0,
    )


def _kernels():
    """Vectorized replay vs the per-job reference loops."""
    rng = np.random.default_rng(12345)
    n, m = 200_000, 30_000
    times = np.cumsum(rng.exponential(1.0, n))
    work = rng.lognormal(mean=0.0, sigma=1.5, size=n)
    # Best of a few alternating repeats per side: with a single timing
    # each, the speedup ratios swing by half from run to run.
    ref, fcfs_loop_s, fast, fcfs_fast_s = _best_pair(
        lambda: _fcfs_replay_loop(times, work, 2.0),
        lambda: fcfs_replay(times, work, 2.0), repeats=5,
    )
    require(np.allclose(ref, fast, rtol=1e-9),
            "FCFS kernel disagrees with reference loop")
    ref, ps_loop_s, fast, ps_fast_s = _best_pair(
        lambda: _ps_replay_loop(times[:m], work[:m], 2.0),
        lambda: ps_replay(times[:m], work[:m], 2.0), repeats=5,
    )
    require(np.allclose(np.sort(ref), np.sort(fast), rtol=1e-9),
            "PS kernel disagrees with reference loop")

    # Compiled FCFS replay must be BIT-identical to the numpy Lindley
    # recursion — not merely close.  One multi-server plan through the
    # fused cell kernel against the per-server numpy cores.
    fcfs_bit_identical = None
    fused = ckernel.cell_fn()
    if fused is not None:
        kn = 50_000
        kspeeds = np.array([1.0, 1.0, 2.0, 4.0, 10.0])
        ktimes, kwork = times[:kn], work[:kn]
        kplan = rng.integers(0, kspeeds.size, kn)
        comp_c, _, _, _, ok = ckernel.replay_cell_c(
            fused, ktimes, kwork, kspeeds, [kplan], False
        )
        comp_py = np.empty(kn)
        for s, speed in enumerate(kspeeds):
            mine = kplan == s
            comp_py[mine] = fcfs_replay(ktimes[mine], kwork[mine], float(speed))
        fcfs_bit_identical = bool(ok and np.array_equal(comp_c[0], comp_py))
        require(fcfs_bit_identical, "compiled FCFS replay is not "
                "bit-identical to the numpy kernel")

    k = {
        "fcfs_jobs": n,
        "fcfs_loop_s": fcfs_loop_s,
        "fcfs_fast_s": fcfs_fast_s,
        "fcfs_speedup": ratio(fcfs_loop_s, fcfs_fast_s),
        "ps_jobs": m,
        "ps_loop_s": ps_loop_s,
        "ps_fast_s": ps_fast_s,
        "ps_speedup": ratio(ps_loop_s, ps_fast_s),
        "ps_backend": _backend(),
        "fcfs_backend": _backend(),
        "fcfs_bit_identical": fcfs_bit_identical,
    }
    return k, [
        f"  FCFS kernel : {fcfs_loop_s:.3f}s loop -> {fcfs_fast_s:.3f}s "
        f"vectorized ({k['fcfs_speedup']:.1f}x, {n} jobs)",
        f"  PS kernel   : {ps_loop_s:.3f}s loop -> {ps_fast_s:.3f}s "
        f"segmented ({k['ps_speedup']:.1f}x, {m} jobs, "
        f"backend={k['ps_backend']})",
    ]


def _replication(scale):
    """One fast-path replication vs the event engine, both disciplines."""
    policy = get_policy("ORR")
    out: dict = {}
    for discipline in ("ps", "fcfs"):
        config = _point(10.0, scale, discipline)
        eng, engine_s, fast, fast_s = _best_pair(
            lambda: run_policy_once(config, policy, seed=scale.base_seed,
                                    force_engine=True),
            lambda: run_policy_once(config, policy, seed=scale.base_seed),
            repeats=3,
        )
        agree = bool(np.isclose(eng.metrics.mean_response_ratio,
                                fast.metrics.mean_response_ratio, rtol=1e-9))
        require(agree, f"{discipline} fast path disagrees with the event "
                "engine")
        out[discipline] = {"engine_s": engine_s, "fast_s": fast_s,
                           "speedup": ratio(engine_s, fast_s), "agree": agree}
    return out, [
        f"  {d.upper():4} run    : {r['engine_s']:.3f}s engine -> "
        f"{r['fast_s']:.3f}s fast path ({r['speedup']:.1f}x, "
        f"agree={r['agree']})"
        for d, r in out.items()
    ]


def _sweep(scale, n_jobs, cache):
    """Serial vs grid executor, then cold/warm through the cache; also
    returns the serial sweep, which the cell section checks against."""
    serial, serial_s = _time(run_figure3, scale, **FIG3)
    grid, grid_s = _time(run_figure3, scale, n_jobs=n_jobs, **FIG3)
    identical = _same(_series(serial), _series(grid))
    require(identical, "grid sweep diverged from the serial sweep")
    with (nullcontext(cache) if cache
          else tempfile.TemporaryDirectory(prefix="repro-bench-")) as path:
        cold, cold_s = _time(run_figure3, scale,
                             cache=ReplicationCache(path), **FIG3)
        warm, warm_s = _time(run_figure3, scale,
                             cache=ReplicationCache(path), **FIG3)
    s = {
        "points": len(FIG3["fast_speeds"]),
        "policies": len(FIG3["policies"]),
        "replications": scale.replications,
        "serial_s": serial_s,
        "grid_s": grid_s,
        "grid_identical": identical,
        "cache_cold_s": cold_s,
        "cache_cold_hits": cold.cache_hits,
        "cache_warm_s": warm_s,
        "cache_warm_hits": warm.cache_hits,
        "cache_speedup": ratio(cold_s, warm_s),
    }
    return s, [
        f"  sweep       : serial {serial_s:.3f}s, grid {grid_s:.3f}s "
        f"(identical={identical})",
        f"  cache       : cold {cold_s:.3f}s ({cold.cache_hits} hits) -> "
        f"warm {warm_s:.3f}s ({warm.cache_hits} hits, "
        f"{s['cache_speedup']:.1f}x)",
    ], serial


def _flat_arm(sweep, scale):
    """*sweep*'s members run by the per-replication oracle, as
    policy → mean-response-ratio series."""
    seeds = replication_seeds(scale.base_seed, scale.replications)
    tasks = [
        ReplicationTask(key=(x, p, r), config=sweep.cells[x][p].config,
                        policy_name=p, estimation_error=None, seed=seed)
        for x in sweep.x_values
        for p in sweep.policies
        for r, seed in enumerate(seeds)
    ]
    outcomes = run_replication_grid(tasks, cache=default_cache()).outcomes
    return {
        p: np.asarray([
            summarize_outcomes(
                p, sweep.cells[x][p].config,
                [outcomes[(x, p, r)] for r in range(len(seeds))],
            ).mean_response_ratio.mean
            for x in sweep.x_values
        ])
        for p in sweep.policies
    }


def _paired_point(scale, skew):
    """Paired (CRN) vs unpaired (Welch) ORR-vs-WRR half-widths."""
    cell = evaluate_cell(_point(skew, scale), ["ORR", "WRR"],
                         replications=max(scale.replications, 10),
                         base_seed=scale.base_seed)
    orr_name, wrr_name = cell.policy_names
    paired = cell.paired(orr_name, wrr_name, MRR)
    a = np.asarray(cell.samples[orr_name][MRR])
    b = np.asarray(cell.samples[wrr_name][MRR])
    reps = a.size
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / reps + vb / reps
    if se2 > 0:
        df = se2**2 / (
            (va / reps) ** 2 / (reps - 1) + (vb / reps) ** 2 / (reps - 1)
        )
        unpaired_hw = float(sstats.t.ppf(0.975, df) * np.sqrt(se2))
    else:
        unpaired_hw = 0.0
    return {
        "skew": skew,
        "policies": [orr_name, wrr_name],
        "replications": reps,
        "paired_half_width": paired.half_width,
        "unpaired_half_width": unpaired_hw,
        "paired_vs_unpaired": ratio(paired.half_width, unpaired_hw, 0.0),
        "verdict": paired.verdict,
    }


def _cell(scale, serial):
    """Per-replication oracle vs cell-batched sweeps, plus paired CIs.

    Both sweeps run warm (the sweep section already paid the one-time
    memo and kernel warm-up), so the flat-vs-cell timing compares
    steady-state costs rather than cold-start order.  The headline
    ``cell_speedup`` is the FCFS figure — the fully compiled kernel-v4
    pipeline — while ``cell_speedup_ps`` tracks the PS composition,
    whose per-plan busy-period replay keeps a structurally lower
    flat:cell ratio (see DESIGN.md §7.1).  The two legs of each ratio
    are timed *interleaved* and the minima taken: the legs are
    sub-second, ratios of minima damp scheduler noise, and interleaving
    keeps slow system drift from biasing one leg — the 2.0x floor gates
    a steady-state property, not a lucky draw.
    """
    flat, flat_ps_s, cellr, cell_ps_s = _best_pair(
        lambda: _flat_arm(serial, scale), lambda: run_figure3(scale, **FIG3)
    )
    cell_identical_ps = (_same(_series(cellr), flat)
                         and _same(_series(cellr), _series(serial)))

    fcfs_sweep = partial(
        run_policy_sweep, "bench-cell-fcfs", "bench cell (fcfs)", "x",
        list(FIG3["fast_speeds"]),
        partial(skewness_config, utilization=0.70, discipline="fcfs"),
        FIG3["policies"], scale,
    )
    fcfs_ref = fcfs_sweep()  # warm the fcfs leg (kernel + sequence memos)
    flat_f, flat_s, cell_f, cell_s = _best_pair(
        lambda: _flat_arm(fcfs_ref, scale), fcfs_sweep
    )
    cell_identical = cell_identical_ps and _same(_series(cell_f), flat_f)
    require(cell_identical, "cell-batched sweep diverged from the flat grid")

    # The variance reduction tracks how similarly the two policies route
    # jobs: at mild skew their dispatch plans — and hence the per-server
    # substreams — nearly coincide and the replications correlate
    # strongly, while at extreme skew the routing diverges and pairing
    # buys less.  Both skew points are recorded.
    paired = [_paired_point(scale, skew) for skew in (2.0, 10.0)]
    c = {
        "flat_s": flat_s,
        "cell_s": cell_s,
        "cell_speedup": ratio(flat_s, cell_s),
        "flat_ps_s": flat_ps_s,
        "cell_ps_s": cell_ps_s,
        "cell_speedup_ps": ratio(flat_ps_s, cell_ps_s),
        "cell_identical": cell_identical,
        "paired": paired,
    }
    return c, [
        f"  cell batch  : fcfs flat {flat_s:.3f}s -> cell {cell_s:.3f}s "
        f"({c['cell_speedup']:.2f}x); ps flat {flat_ps_s:.3f}s -> cell "
        f"{cell_ps_s:.3f}s ({c['cell_speedup_ps']:.2f}x, "
        f"identical={cell_identical})",
    ] + [
        f"  paired CI   : skew {pp['skew']:g}: "
        f"±{pp['paired_half_width']:.4g} paired vs "
        f"±{pp['unpaired_half_width']:.4g} unpaired "
        f"({pp['paired_vs_unpaired']:.2f}x, n={pp['replications']}, "
        f"{pp['verdict']})"
        for pp in paired
    ]


def _executor(scale, n_jobs):
    """A tiny grid through real workers vs the auto-serial path."""
    config = skewness_config(10.0, 0.70, duration=2.0e4, warmup=5.0e3,
                             discipline="ps")
    tasks = [
        ReplicationTask(key=("bench", "ORR", r), config=config,
                        policy_name="ORR", estimation_error=None, seed=s)
        for r, s in enumerate(
            replication_seeds(scale.base_seed, executor_mod._AUTO_SERIAL_TASKS)
        )
    ]
    workers = max(2, n_jobs)
    shutdown_shared_executor()
    saved_threshold = executor_mod._AUTO_SERIAL_TASKS
    try:
        executor_mod._AUTO_SERIAL_TASKS = 0
        pooled, pool_s = _time(run_replication_grid, list(tasks),
                               n_jobs=workers)
    finally:
        executor_mod._AUTO_SERIAL_TASKS = saved_threshold
    shutdown_shared_executor()
    auto, auto_s = _time(run_replication_grid, list(tasks), n_jobs=workers)
    require(set(pooled.outcomes) == set(auto.outcomes) and all(
        all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(pooled.outcomes[key], auto.outcomes[key])
        )
        for key in pooled.outcomes
    ), "auto-serial grid diverged from the worker pool")
    e = {
        "small_tasks": len(tasks),
        "n_jobs": workers,
        "pool_s": pool_s,
        "auto_serial_s": auto_s,
        "auto_serial_speedup": ratio(pool_s, auto_s),
    }
    return e, [
        f"  executor    : {len(tasks)} tasks via pool {pool_s:.3f}s -> "
        f"auto-serial {auto_s:.3f}s ({e['auto_serial_speedup']:.1f}x)"
    ]


def _telemetry(scale):
    """Disabled-telemetry overhead guard + trace bit-identity."""
    config, policy = _point(10.0, scale), get_policy("ORR")
    untraced, untraced_s = _time(run_policy_once, config, policy,
                                 seed=scale.base_seed)
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        trace_path = os.path.join(tmp, "bench_trace.jsonl")
        sink = JsonlSink(trace_path)
        add_sink(sink)
        try:
            traced, traced_s = _time(run_policy_once, config, policy,
                                     seed=scale.base_seed)
        finally:
            remove_sink(sink)
        with open(trace_path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh if line.strip()]
    try:
        for event in events:
            validate_event(event)
    except ValueError as exc:
        raise BenchFailure(
            f"trace emitted a schema-invalid event: {exc}") from exc
    trace_identical = results_digest(traced) == results_digest(untraced)

    # Zero-overhead-when-disabled guard: price the no-op span path with
    # no sinks registered (sinks are parked, not closed, so an outer
    # --trace on this very command survives), then scale by the events
    # one traced replication actually emits.
    saved_sinks = spans_mod._sinks[:]
    spans_mod._sinks[:] = []
    try:
        noop_n = 200_000
        t0 = time.perf_counter()
        for _ in range(noop_n):
            with obs_span("bench.noop", probe=1):
                pass
        noop_s = time.perf_counter() - t0
    finally:
        spans_mod._sinks[:] = saved_sinks
    per_call = noop_s / noop_n
    overhead = ratio(len(events) * per_call, untraced_s, 0.0)
    require(trace_identical, "results diverged with tracing enabled")
    require(overhead < 0.02, f"disabled-telemetry overhead {overhead:.2%} "
            "exceeds the 2% budget")
    return {
        "noop_span_ns": per_call * 1e9,
        "events_per_replication": len(events),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_fraction": overhead,
        "overhead_ok": True,
        "trace_identical": trace_identical,
    }, [
        f"  telemetry   : noop span {per_call * 1e9:.0f}ns, {len(events)} "
        f"events/rep, disabled overhead {overhead:.3%} (<2%), "
        f"trace identical={trace_identical}"
    ]


def _serve(scale):
    """Vectorized window loop vs the per-job reference loop."""
    speeds, util = (1.0, 2.0, 3.0, 4.0), 0.85
    jobs = {"smoke": 60_000, "quick": 240_000, "paper": 1_000_000}[scale.name]
    cfg = _service_config(speeds, util, jobs)

    def _run(reference):
        return SchedulerService(cfg, _source(speeds, util),
                                reference=reference).run()

    ref_report, ref_s, fast_report, fast_s = _best_pair(
        lambda: _run(True), lambda: _run(False), repeats=3
    )
    require(same_report(ref_report, fast_report), "vectorized serve loop "
            "diverged from the per-job reference report")
    dispatched = int(fast_report.jobs_dispatched)

    # Dispatch-plane cost alone: memoized Algorithm 2 slices pulled at
    # window granularity, the way the service loop consumes them.
    alphas = np.asarray(speeds) / sum(speeds)
    window_jobs = max(1, jobs // 50)
    dispatch_sequence_slice(alphas, 0, jobs)  # warm memo
    t0 = time.perf_counter()
    for lo in range(0, jobs, window_jobs):
        dispatch_sequence_slice(alphas, lo, min(lo + window_jobs, jobs))
    dispatch_s = time.perf_counter() - t0

    sv = {
        "servers": len(speeds),
        "utilization": util,
        "jobs": dispatched,
        "windows": len(fast_report.windows),
        "reference_s": ref_s,
        "fast_s": fast_s,
        "serve_speedup": ratio(ref_s, fast_s),
        "jobs_per_sec": ratio(dispatched, fast_s),
        "reference_jobs_per_sec": ratio(dispatched, ref_s),
        "dispatch_ns_per_job": dispatch_s / jobs * 1e9,
        "report_identical": True,
        "backend": _backend(),
    }
    return sv, [
        f"  serve       : ref {ref_s:.3f}s -> fast {fast_s:.3f}s "
        f"({sv['serve_speedup']:.1f}x, {sv['jobs_per_sec']:,.0f} jobs/s, "
        f"dispatch {sv['dispatch_ns_per_job']:.0f}ns/job, "
        f"identical=True, backend={sv['backend']})"
    ]


def _net(scale):
    """The client / orchestrator / server split and its drills."""
    speeds, util = (1.0, 2.0, 3.0, 4.0), 0.85
    jobs = {"smoke": 20_000, "quick": 100_000, "paper": 400_000}[scale.name]
    cfg = _service_config(speeds, util, jobs)

    # Simulation-vs-service equivalence: the in-process transport must
    # reproduce the SchedulerService report byte for byte.
    svc_report = SchedulerService(cfg, _source(speeds, util)).run()
    inproc = run_in_process(cfg, _source(speeds, util))
    require(same_report(svc_report, inproc.report), "networked in-process "
            "run diverged from the SchedulerService report")

    # The overload drill: live sockets, client pushed 8 windows ahead of
    # a 2-window orchestrator buffer — backpressure must hold the bounds
    # and the report must still be byte-identical.
    overload = asyncio.run(run_sockets(
        cfg, _source(speeds, util), max_inflight=8, queue_limit=2,
    ))
    require(same_report(svc_report, overload.report), "socket-mode "
            "overload run diverged from the SchedulerService report")
    om = overload.metrics
    require(om.peak_submit_queue <= 2, "orchestrator buffered "
            f"{om.peak_submit_queue} windows past the 2-window bound")

    # The rebalanced overload drill: an imbalanced 2-shard pool (shard 0
    # owns 3 units of speed, shard 1 owns 9) at a load the full bank
    # carries easily.  The legacy even split halves the stream and
    # overloads the slow shard into shedding; the capacity-aware router
    # must shed nothing — and its socket run must still match the
    # in-process run byte for byte.
    bal_speeds, bal_util = (1.0, 4.0, 2.0, 5.0), 0.6
    bal_cfg = _service_config(bal_speeds, bal_util, jobs)
    bal_even, bal_cap = (
        run_in_process(bal_cfg, _source(bal_speeds, bal_util), n_shards=2,
                       split=split)
        for split in ("even", "capacity")
    )
    bal_live = asyncio.run(run_sockets(
        bal_cfg, _source(bal_speeds, bal_util), n_shards=2, split="capacity"))
    even_split_shed = bal_even.metrics.jobs_shed
    require(bal_cap.metrics.jobs_shed == 0 and even_split_shed > 0,
            f"capacity-aware split shed {bal_cap.metrics.jobs_shed} jobs "
            f"(even split: {even_split_shed}) — rebalancing is broken")
    require(all(map(same_report, bal_cap.reports, bal_live.reports)),
            "capacity-split socket run diverged from the in-process run")

    # The rejoin drill: kill the fastest server mid-run, restart it five
    # windows later — both transports must agree byte for byte through
    # the whole death/rejoin membership cycle.
    drill = dict(kill={3: 9}, rejoin={3: 14})
    rj_sim = run_in_process(cfg, _source(speeds, util), **drill)
    rj_live = asyncio.run(run_sockets(cfg, _source(speeds, util), **drill))
    require(same_report(rj_sim.report, rj_live.report), "socket-mode "
            "kill+rejoin run diverged from the in-process run")

    dispatch_ns = inproc.metrics.dispatch_ns_per_job
    require(not dispatch_ns > NET_DISPATCH_CEILING_NS,
            f"dispatch decision latency {dispatch_ns:.0f}ns/job exceeds "
            f"the {NET_DISPATCH_CEILING_NS:.0f}ns ceiling")
    nv = {
        "servers": len(speeds),
        "utilization": util,
        "jobs": inproc.metrics.jobs_dispatched,
        "windows": inproc.metrics.windows,
        "report_identical": True,
        "overload_report_identical": True,
        "rejoin_report_identical": True,
        "balanced_no_shed": True,
        "even_split_shed": even_split_shed,
        "dispatch_ns_per_job": dispatch_ns,
        "dispatch_ceiling_ns": NET_DISPATCH_CEILING_NS,
        "inproc_s": inproc.metrics.wall_seconds,
        "inproc_jobs_per_sec": inproc.metrics.jobs_per_sec,
        "socket_s": om.wall_seconds,
        "jobs_per_sec": om.jobs_per_sec,
        **{key: getattr(om, key) for key in (
            "rtt_p50_s", "rtt_p99_s", "max_inflight", "peak_inflight",
            "queue_limit", "peak_submit_queue",
        )},
        "backend": _backend(),
    }
    return nv, [
        f"  net         : inproc {nv['inproc_s']:.3f}s "
        f"({nv['inproc_jobs_per_sec']:,.0f} jobs/s) -> sockets "
        f"{om.wall_seconds:.3f}s ({om.jobs_per_sec:,.0f} jobs/s under "
        f"overload), dispatch {dispatch_ns:.0f}ns/job (ceiling "
        f"{NET_DISPATCH_CEILING_NS:.0f}), rtt p50/p99 "
        f"{om.rtt_p50_s * 1e3:.1f}/{om.rtt_p99_s * 1e3:.1f}ms, "
        f"identical=True/True/True, rebalance sheds 0 vs "
        f"{even_split_shed} even, inflight "
        f"{om.peak_inflight}/{om.max_inflight}, "
        f"queue {om.peak_submit_queue}/{om.queue_limit}"
    ]


def _load_trajectory(path) -> list:
    """The records already in *path*; only a missing file starts anew."""
    try:
        with open(path, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    except FileNotFoundError:
        return []
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read trajectory {path}: {exc}") from exc
    return trajectory if isinstance(trajectory, list) else [trajectory]


def _write_trajectory(path, trajectory) -> None:
    """Stage to a temp file and rename into place: an interrupted or
    concurrent bench run can never truncate the trajectory mid-write."""
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except OSError:
        with suppress(OSError):
            os.unlink(tmp_path)
        raise


def run(*, scale_name: str, n_jobs: int, output: str, cache: str | None = None,
        serve: bool = False, net: bool = False, gate: bool = False,
        gate_threshold: float | None = None) -> int:
    """Run every section, gate, append the record to *output*, and print
    the summary.  Returns the exit code: 2 for a bad threshold or an
    unreadable trajectory (checked before any section runs) or a failed
    write, 1 for a failing gate; a failing agreement check raises
    :class:`BenchFailure`.  Nothing is appended unless it returns 0."""
    threshold = DEFAULT_THRESHOLD if gate_threshold is None else gate_threshold
    try:
        if gate:
            check_threshold(threshold)
        trajectory = _load_trajectory(output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    scale = SCALES[scale_name]
    record: dict = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "kernel_version": KERNEL_VERSION,
        # Provenance of the compiled core actually engaged for this
        # record: the exact flags the shared library was built with and
        # the OpenMP width it will fan out to (1 when OpenMP was
        # unavailable and the kernel degraded to the serial build).
        "compiler_flags": list(ckernel.compile_flags() or ()),
        "openmp": bool(ckernel.openmp_enabled()),
        "openmp_threads": int(ckernel.omp_max_threads()),
        "scale": scale.name,
        "n_jobs": n_jobs,
    }
    lines = [f"benchmark @ scale={scale.name} n_jobs={n_jobs} "
             f"(kernel v{KERNEL_VERSION})"]
    sections = [("kernels", _kernels()), ("replication", _replication(scale))]
    sweep, sweep_lines, serial = _sweep(scale, n_jobs, cache)
    sections += [
        ("sweep", (sweep, sweep_lines)),
        ("cell", _cell(scale, serial)),
        ("executor", _executor(scale, n_jobs)),
        ("telemetry", _telemetry(scale)),
    ]
    if serve:
        sections.append(("serve", _serve(scale)))
    if net:
        sections.append(("net", _net(scale)))
    for name, (sub, sub_lines) in sections:
        record[name] = sub
        lines += sub_lines

    if gate:
        result = check_gate(record, trajectory, threshold)
        if not result.passed:
            # Failing records never pollute the trajectory baseline.
            print(result.summary())
            return 1
        lines.append(result.summary())

    trajectory.append(record)
    try:
        _write_trajectory(output, trajectory)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(f"trajectory point #{len(trajectory)} appended to {output}")
    return 0
