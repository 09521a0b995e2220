"""Metric definitions: what each run prints, by name and unit.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of
``BENCHMARK.json``; the benchmark's tests keep the two in step.
"""

from __future__ import annotations

import numpy as np

from .tracing import SpanSummary

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "SPAN_METRIC",
    "RECONCILE_TOLERANCE",
    "end_to_end",
    "per_layer",
    "reconcile",
]

#: (name, unit, better).  Printed on every workload with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("run_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
)

#: Span name -> the self-time metric it is reported under.  Every span
#: name the traced run can record appears here, so the reported self
#: times plus the residual account for the whole traced wall time.
SPAN_METRIC = {
    "bench.op": "bench.residual_s",
    "core.executor": "core.executor.self_s",
    "metrics.summarize": "metrics.summarize_s",
    "sim.fastpath": "sim.fastpath.self_s",
    "sim.engine": "sim.engine.self_s",
    "sim.streams": "sim.streams.materialize_s",
    "dispatch.plan": "dispatch.plan_s",
    "sim.ckernel": "sim.ckernel.self_s",
    "service.loop": "service.loop.residual_s",
    "service.window": "service.loop.residual_s",
    "faults.timeline": "faults.timeline_s",
    "service.sources": "service.sources.self_s",
    "service.estimator": "service.estimator.self_s",
    "service.gate": "service.gate.self_s",
    "dispatch.select_batch": "dispatch.select_batch_s",
    "service.replay": "service.replay.self_s",
    "service.fold": "service.fold.self_s",
    "service.resolve": "service.resolve.self_s",
    "faulted.replay.dispatch": "faulted.replay.dispatch_s",
    "faulted.replay.collect": "faulted.replay.collect_s",
    "faulted.replay.fail": "faulted.replay.fail_s",
    "net.runtime": "net.runtime.wait_s",
    "net.protocol.encode": "net.protocol.encode_s",
    "net.protocol.decode": "net.protocol.decode_s",
    "net.orchestrator.submit": "net.orchestrator.submit_s",
    "net.orchestrator.fold": "net.orchestrator.fold_s",
    "net.server.replay": "net.server.replay_s",
    "net.client": "net.client.self_s",
}

#: (name, unit, better).  Printed on every workload with ``--trace 1``;
#: a layer the workload never calls reports 0.
PER_LAYER = (
    ("trace_overhead", "ratio", "lower"),
    ("trace.reconcile_gap", "ratio", "lower"),
    ("bench.residual_s", "s", "lower"),
    ("failed_share", "ratio", "lower"),
    # sweeps
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.jobs_per_s", "1/s", "higher"),
    ("sim.engine.share", "ratio", "lower"),
    ("sim.fastpath.self_s", "s", "lower"),
    ("sim.streams.materialize_s", "s", "lower"),
    ("sim.streams.jobs", "count", "lower"),
    ("sim.streams.bytes", "bytes", "lower"),
    ("dispatch.plan_s", "s", "lower"),
    ("dispatch.plan_calls", "count", "lower"),
    ("dispatch.plan_reuse_ratio", "ratio", "higher"),
    ("sim.ckernel.self_s", "s", "lower"),
    ("sim.ckernel.jobs_per_s", "1/s", "higher"),
    ("static_sweep_s", "s", "lower"),
    ("static_sweep_hardened_s", "s", "lower"),
    ("core.executor.plan_s", "s", "lower"),
    ("core.executor.simulate_s", "s", "lower"),
    ("core.executor.hardened.simulate_s", "s", "lower"),
    ("core.executor.aggregate_s", "s", "lower"),
    ("core.executor.self_s", "s", "lower"),
    ("core.executor.tasks", "count", "lower"),
    ("core.executor.retries", "count", "lower"),
    ("metrics.summarize_s", "s", "lower"),
    # serving
    ("serve_jobs_per_s", "1/s", "higher"),
    ("serve_faults_jobs_per_s", "1/s", "higher"),
    ("service.sources.self_s", "s", "lower"),
    ("service.estimator.self_s", "s", "lower"),
    ("service.gate.self_s", "s", "lower"),
    ("dispatch.select_batch_s", "s", "lower"),
    ("service.replay.self_s", "s", "lower"),
    ("service.fold.self_s", "s", "lower"),
    ("service.resolve.self_s", "s", "lower"),
    ("service.loop.residual_s", "s", "lower"),
    ("service.window_p50_ms", "ms", "lower"),
    ("service.window_p99_ms", "ms", "lower"),
    ("service.resolves", "count", "lower"),
    ("service.swaps", "count", "lower"),
    ("faults.timeline_s", "s", "lower"),
    ("faulted.replay.dispatch_calls", "count", "lower"),
    ("faulted.replay.dispatch_s", "s", "lower"),
    ("faulted.replay.collect_s", "s", "lower"),
    ("faulted.replay.fail_s", "s", "lower"),
    ("faulted.estimator.observe_calls", "count", "lower"),
    ("faulted.jobs_retried", "count", "lower"),
    ("faulted.jobs_lost", "count", "lower"),
    ("faulted.bounced", "count", "lower"),
    ("faulted.membership_changes", "count", "lower"),
    # net
    ("net.protocol.encode_s", "s", "lower"),
    ("net.protocol.decode_s", "s", "lower"),
    ("net.protocol.frames", "count", "lower"),
    ("net.protocol.bytes_per_job", "bytes", "lower"),
    ("net.orchestrator.submit_s", "s", "lower"),
    ("net.orchestrator.fold_s", "s", "lower"),
    ("net.server.replay_s", "s", "lower"),
    ("net.client.self_s", "s", "lower"),
    ("net.runtime.wait_s", "s", "lower"),
    ("net.rtt_p50_ms", "ms", "lower"),
    ("net.rtt_p99_ms", "ms", "lower"),
    ("net.peak_inflight", "count", "lower"),
    ("net.peak_submit_queue", "count", "lower"),
    ("net.stale_timeouts", "count", "lower"),
    ("net.dispatch_ns_per_job", "ns", "lower"),
)

#: Largest allowed |reported self times + residual - traced wall| as a
#: share of the traced wall time.
RECONCILE_TOLERANCE = 0.01

_UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _tagged(values: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": float(v), "unit": _UNITS[k]} for k, v in values.items()}


def end_to_end(setup_s: float, peak_rss_mb: float, walls, jobs) -> dict:
    walls = np.asarray(walls, dtype=float)
    rates = np.asarray(jobs, dtype=float) / walls
    return _tagged({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "run_s": float(np.median(walls)),
        "jobs_per_s": float(np.median(rates)),
    })


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _quantile_ms(durations: np.ndarray, q: float) -> float:
    return float(np.quantile(durations, q)) * 1e3 if durations.size else 0.0


def per_layer(
    s: SpanSummary,
    *,
    traced_wall: float,
    trace_overhead: float,
    traced_jobs: int,
    failed_share: float,
    program: dict[str, float],
) -> dict:
    """Every ``PER_LAYER`` metric from one traced run's span summary."""
    unknown = set(s.names) - set(SPAN_METRIC)
    if unknown:
        raise RuntimeError(f"span names without a metric: {sorted(unknown)}")
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    # Window steps of the first phase: serve's fault-free one.
    fault_free_windows = s.durations_in("service.window", run=0)
    for span_name, metric in SPAN_METRIC.items():
        values[metric] += s.self_of(span_name)
    values.update({
        "trace_overhead": trace_overhead,
        "failed_share": failed_share,
        "sim.engine.jobs_per_s": _ratio(
            s.unit("sim.engine", "jobs"), s.total_s.get("sim.engine", 0.0)
        ),
        "sim.engine.share": _ratio(s.total_s.get("sim.engine", 0.0), traced_wall),
        "sim.streams.jobs": s.unit("sim.streams", "jobs"),
        "sim.streams.bytes": s.unit("sim.streams", "bytes"),
        "dispatch.plan_calls": s.calls_of("dispatch.plan"),
        "dispatch.plan_reuse_ratio": _ratio(
            s.unit("dispatch.plan", "reused"), s.unit("dispatch.plan", "memo_calls")
        ),
        "sim.ckernel.jobs_per_s": _ratio(
            s.unit("sim.ckernel", "jobs"), s.total_s.get("sim.ckernel", 0.0)
        ),
        "core.executor.tasks": s.unit("core.executor", "tasks"),
        "core.executor.retries": s.unit("core.executor", "retries"),
        "service.window_p50_ms": _quantile_ms(fault_free_windows, 0.5),
        "service.window_p99_ms": _quantile_ms(fault_free_windows, 0.99),
        "faulted.replay.dispatch_calls": s.calls_of("faulted.replay.dispatch"),
        "faulted.estimator.observe_calls": s.calls_of(
            "service.estimator", "service.fold"
        ),
        "net.protocol.frames": s.unit("net.protocol.encode", "frames"),
        "net.protocol.bytes_per_job": _ratio(
            s.unit("net.protocol.encode", "bytes"), traced_jobs
        ),
    })
    values.update(program)
    values["trace.reconcile_gap"] = reconcile(values, traced_wall)
    return _tagged(values)


def reconcile(values: dict[str, float], traced_wall: float) -> float:
    """|sum of reported self times + residuals - traced wall| / wall."""
    accounted = sum(values[m] for m in set(SPAN_METRIC.values()))
    return abs(accounted - traced_wall) / traced_wall
