"""The benchmark's workloads: inputs, the timed operation, and checks.

Every workload runs on the paper's Table 3 base system (15 computers,
aggregate speed 44, CV=3 arrivals, Bounded Pareto sizes) and draws all
of its randomness from the benchmark seed, so the same seed gives the
same inputs and the same output digest.  All load comes from this one
process: sweeps run with ``n_jobs=1`` and the net runs one asyncio loop
on loopback.

Importing this module imports the program; the caller pins the
environment first (see ``run.py``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.core import PAPER_POLICIES
from repro.experiments.base import Scale
from repro.experiments.configs import BASE_SPEEDS
from repro.experiments.figure5 import run_figure5
from repro.faults.models import FaultConfig
from repro.net import runtime as net_runtime
from repro.service.loop import SchedulerService, ServiceConfig
from repro.service.sources import SyntheticJobSource
from repro.sim.arrivals import Workload as ArrivalWorkload

from .tracing import LayerSpec

__all__ = ["CheckFailed", "SIZES", "WORKLOADS", "LAYERS", "make", "derive_seeds"]


class CheckFailed(AssertionError):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


#: Run lengths.  ``full`` is what the benchmark times; ``smoke`` only
#: exercises every code path (the benchmark's own tests use it).
SIZES = {
    "full": {
        "paper_horizon": 1.0e4, "paper_reps": 4,
        "static_horizon": 1.0e6, "static_reps": 3,
        "serve_jobs": 240_000, "serve_windows": 300,
        "faults_jobs": 48_000, "faults_windows": 240,
        "net_jobs": 12_000, "net_windows": 120,
    },
    "smoke": {
        "paper_horizon": 2.0e3, "paper_reps": 2,
        "static_horizon": 2.0e4, "static_reps": 2,
        "serve_jobs": 20_000, "serve_windows": 50,
        "faults_jobs": 5_000, "faults_windows": 50,
        "net_jobs": 2_000, "net_windows": 40,
    },
}

UTILIZATIONS = (0.5, 0.9)
SERVE_UTILIZATION = 0.7
#: Independent job streams the serve phases use in all (see :class:`Serve`).
MAX_STREAMS = 12
STATIC_POLICIES = tuple(p for p in PAPER_POLICIES if p != "LEAST_LOAD")


def derive_seeds(seed: int) -> dict:
    """Independent program seeds from the one benchmark seed."""
    state = [int(x) for x in np.random.SeedSequence(int(seed)).generate_state(
        1 + 2 * MAX_STREAMS
    )]
    return {
        "base_seed": state[0],
        "source_seeds": state[1:1 + MAX_STREAMS],
        "fault_seeds": state[1 + MAX_STREAMS:],
    }


def canonical_digest(obj) -> str:
    """SHA-256 of canonical JSON (sorted keys, exact float reprs)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


@dataclass
class Phased:
    """One operation's outputs and wall times, one entry per phase."""

    outputs: list
    walls: list[float]


class Workload:
    """One workload: ``prepare`` builds inputs, ``op`` is the timed call.

    An operation runs the workload's phases in order; each phase is a
    call into the program whose output is checked afterwards.
    """

    name = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seeds = derive_seeds(seed)
        self.size = SIZES[size]

    def prepare(self) -> None:
        raise NotImplementedError

    def phases(self) -> list:
        """The calls one operation makes, in order."""
        raise NotImplementedError

    def op(self, on_phase=None) -> Phased:
        outputs, walls = [], []
        for i, phase in enumerate(self.phases()):
            if on_phase is not None:
                on_phase(i)
            t0 = time.perf_counter()
            outputs.append(phase())
            walls.append(time.perf_counter() - t0)
        return Phased(outputs, walls)

    def jobs(self, out: Phased) -> int:
        """Jobs the operation handled (the throughput numerator)."""
        raise NotImplementedError

    def digest(self, out: Phased) -> str:
        raise NotImplementedError

    def verify(self, out: Phased) -> None:
        """Checks on one operation's outputs (ledgers, identities)."""
        raise NotImplementedError

    def cross_check(self, out: Phased) -> None:
        """Checks against an independent run; untimed, once per run."""

    def failure_counts(self, out: Phased) -> tuple[int, int]:
        """(failed, attempted) units behind ``failed_share``."""
        raise NotImplementedError

    def program_metrics(self, outs: list[Phased], scales: list[float]) -> dict:
        """Per-layer numbers from untimed outputs and per-phase walls;
        *scales* are the host scale factors of the repeats."""
        return {}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def sweep_series(result) -> dict:
    """The figure data of a sweep: per-policy metric-mean series."""
    return {
        "x": list(result.x_values),
        "series": {
            p: {
                m: [float(v) for v in result.series(p, m)]
                for m in ("mean_response_time", "mean_response_ratio", "fairness")
            }
            for p in result.policies
        },
        "dispatch_fractions": {
            p: [
                [float(f) for f in result.cells[x][p].dispatch_fractions]
                for x in result.x_values
            ]
            for p in result.policies
        },
    }


def verify_sweep(result, members: int) -> None:
    """Sweep ledger: every member ran and every job dispatched completed."""
    c = result.counters
    check(not result.failures, f"{len(result.failures)} replications failed")
    check(
        c.get("runs.completed", 0) == members,
        f"runs.completed={c.get('runs.completed', 0)}, expected {members}",
    )
    dispatched = {k[len("jobs.dispatched"):]: v for k, v in c.items()
                  if k.startswith("jobs.dispatched{")}
    completed = {k[len("jobs.completed"):]: v for k, v in c.items()
                 if k.startswith("jobs.completed{")}
    check(bool(dispatched), "no jobs.dispatched counters recorded")
    check(
        dispatched == completed,
        "job ledger broken: dispatched != completed per server",
    )
    engaged = [k for k in c if k.startswith("kernel.engaged")]
    check(
        any("backend=c" in k for k in engaged),
        "compiled kernel did not engage (no kernel.engaged{backend=c})",
    )
    check(
        not any("backend=python" in k for k in engaged),
        "replay fell back to the Python kernel",
    )


def _sweep_jobs(result) -> int:
    return int(sum(v for k, v in result.counters.items()
                   if k.startswith("jobs.dispatched{")))


class SweepWorkload(Workload):
    policies: tuple[str, ...] = ()
    horizon_key = reps_key = ""

    def prepare(self) -> None:
        self.scale = Scale(
            "bench",
            duration=float(self.size[self.horizon_key]),
            replications=int(self.size[self.reps_key]),
            base_seed=self.seeds["base_seed"],
        )

    @property
    def members(self) -> int:
        return len(self.policies) * len(UTILIZATIONS) * self.scale.replications

    def run_sweep(self, hardened: bool = False):
        return run_figure5(
            self.scale,
            utilizations=UTILIZATIONS,
            policies=self.policies,
            n_jobs=1,
            cache=None,
            **({"retries": 1} if hardened else {}),
        )

    def phases(self) -> list:
        return [self.run_sweep]

    def jobs(self, out: Phased) -> int:
        return sum(_sweep_jobs(r) for r in out.outputs)

    def digest(self, out: Phased) -> str:
        return canonical_digest(sweep_series(out.outputs[0]))

    def verify(self, out: Phased) -> None:
        for result in out.outputs:
            verify_sweep(result, self.members)

    def failure_counts(self, out: Phased) -> tuple[int, int]:
        return (
            sum(len(r.failures) for r in out.outputs),
            self.members * len(out.outputs),
        )

    def program_metrics(self, outs, scales) -> dict:
        default = [o.outputs[0].timings for o in outs]
        return {
            "core.executor.plan_s": _median([t["plan"] for t in default]),
            "core.executor.simulate_s": _median([t["simulate"] for t in default]),
            "core.executor.aggregate_s": _median([t["aggregate"] for t in default]),
        }


class PaperSweep(SweepWorkload):
    name = "paper-sweep"
    policies = tuple(PAPER_POLICIES)
    horizon_key, reps_key = "paper_horizon", "paper_reps"


class StaticSweep(SweepWorkload):
    """The default cell-grid sweep, then the same sweep hardened with
    ``retries=1`` (the flat per-replication executor)."""

    name = "static-sweep"
    policies = STATIC_POLICIES
    horizon_key, reps_key = "static_horizon", "static_reps"

    def phases(self) -> list:
        return [self.run_sweep, lambda: self.run_sweep(hardened=True)]

    def verify(self, out: Phased) -> None:
        super().verify(out)
        default, hardened = out.outputs
        check(
            canonical_digest(sweep_series(default))
            == canonical_digest(sweep_series(hardened)),
            "default and hardened sweep series differ",
        )

    def program_metrics(self, outs, scales) -> dict:
        m = super().program_metrics(outs, scales)
        m.update({
            "core.executor.hardened.simulate_s": _median(
                [o.outputs[1].timings["simulate"] for o in outs]
            ),
            "static_sweep_s": _median([o.walls[0] * k for o, k in zip(outs, scales)]),
            "static_sweep_hardened_s": _median(
                [o.walls[1] * k for o, k in zip(outs, scales)]
            ),
        })
        return m


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


def verify_service_report(report, label: str = "service") -> None:
    """Serve ledger: offered = dispatched + shed, and every dispatched
    job is completed, lost, waiting to retry or still in flight."""
    check(report.clean_shutdown, f"{label}: run did not shut down cleanly")
    check(
        report.jobs_offered == report.jobs_dispatched + report.jobs_shed,
        f"{label}: offered {report.jobs_offered} != dispatched "
        f"{report.jobs_dispatched} + shed {report.jobs_shed}",
    )
    completed = sum(w.completed for w in report.windows)
    accounted = (
        completed + report.jobs_lost + report.jobs_pending_retry
        + report.jobs_in_flight
    )
    check(
        report.jobs_dispatched == accounted,
        f"{label}: dispatched {report.jobs_dispatched} != completed "
        f"{completed} + lost {report.jobs_lost} + pending retry "
        f"{report.jobs_pending_retry} + in flight {report.jobs_in_flight}",
    )


def paper_workload() -> ArrivalWorkload:
    """The paper's arrivals and job sizes on the base system at ρ=0.7."""
    return ArrivalWorkload(total_speed=sum(BASE_SPEEDS), utilization=SERVE_UTILIZATION)


def service_config(
    workload: ArrivalWorkload, jobs: int, windows: int, faults=None,
    fault_seed: int = 0,
) -> ServiceConfig:
    """A service horizon that offers about *jobs* jobs in *windows* windows."""
    duration = jobs / workload.arrival_rate
    return ServiceConfig(
        speeds=BASE_SPEEDS,
        duration=duration,
        control_period=duration / windows,
        faults=None if faults is None else faults(duration),
        fault_seed=fault_seed,
    )


def _faults(duration: float) -> FaultConfig:
    return FaultConfig(mtbf=duration / 4, mttr=duration / 40)


def _offered(reports) -> int:
    return int(sum(r.jobs_offered for r in reports))


class Serve(Workload):
    """Fault-free serving, then serving under server failures.

    How much work a run does per job depends on its stream (how often
    the allocation swaps, how many servers fail), so each phase serves
    several independently seeded streams and a run's figure averages
    over them rather than over one draw.
    """

    name = "serve"
    #: (phase, size key prefix, streams, fault config factory)
    PHASES = (("serve", "serve", 4, None), ("serve_faults", "faults", 8, _faults))

    def prepare(self) -> None:
        self.workload = paper_workload()
        sources = iter(self.seeds["source_seeds"])
        faults = iter(self.seeds["fault_seeds"])
        self.runs = []
        for _, key, streams, fault_config in self.PHASES:
            jobs = int(self.size[f"{key}_jobs"]) // streams
            windows = int(self.size[f"{key}_windows"]) // streams
            self.runs.append([
                (
                    service_config(self.workload, jobs, windows, fault_config,
                                   next(faults)),
                    next(sources),
                )
                for _ in range(streams)
            ])

    def _serve(self, runs) -> list:
        return [
            SchedulerService(config, SyntheticJobSource(self.workload, seed)).run()
            for config, seed in runs
        ]

    def phases(self) -> list:
        return [lambda runs=runs: self._serve(runs) for runs in self.runs]

    def jobs(self, out: Phased) -> int:
        return sum(_offered(reports) for reports in out.outputs)

    def digest(self, out: Phased) -> str:
        return canonical_digest(
            [[r.as_dict() for r in reports] for reports in out.outputs]
        )

    def verify(self, out: Phased) -> None:
        for (phase, _, streams, _), reports in zip(self.PHASES, out.outputs):
            check(len(reports) == streams, f"{phase}: wrong number of reports")
            for i, report in enumerate(reports):
                verify_service_report(report, f"{phase} stream {i}")

    def failure_counts(self, out: Phased) -> tuple[int, int]:
        reports = [r for phase in out.outputs for r in phase]
        return int(sum(r.jobs_shed + r.jobs_lost for r in reports)), self.jobs(out)

    def program_metrics(self, outs, scales) -> dict:
        fault_free, faulted = outs[0].outputs
        return {
            "service.resolves": sum(r.resolves for r in fault_free),
            "service.swaps": sum(r.swaps for r in fault_free),
            "faulted.jobs_retried": sum(r.jobs_retried for r in faulted),
            "faulted.jobs_lost": sum(r.jobs_lost for r in faulted),
            "faulted.bounced": sum(w.bounced for r in faulted for w in r.windows),
            "faulted.membership_changes": sum(r.membership_changes for r in faulted),
            "serve_jobs_per_s": _median([
                _offered(o.outputs[0]) / (o.walls[0] * k) for o, k in zip(outs, scales)
            ]),
            "serve_faults_jobs_per_s": _median([
                _offered(o.outputs[1]) / (o.walls[1] * k) for o, k in zip(outs, scales)
            ]),
        }


class Net(Workload):
    name = "net"
    n_shards = 2
    max_inflight = 4

    def prepare(self) -> None:
        self.workload = paper_workload()
        self.config = service_config(
            self.workload, int(self.size["net_jobs"]), int(self.size["net_windows"])
        )

    def source(self) -> SyntheticJobSource:
        return SyntheticJobSource(self.workload, self.seeds["source_seeds"][0])

    def phases(self) -> list:
        return [lambda: asyncio.run(
            net_runtime.run_sockets(
                self.config, self.source(),
                n_shards=self.n_shards, max_inflight=self.max_inflight,
            )
        )]

    def jobs(self, out: Phased) -> int:
        return _offered(out.outputs[0].reports)

    def digest(self, out: Phased) -> str:
        return canonical_digest([r.as_dict() for r in out.outputs[0].reports])

    def verify(self, out: Phased) -> None:
        reports = out.outputs[0].reports
        check(len(reports) == self.n_shards, "wrong number of shard reports")
        for s, report in enumerate(reports):
            verify_service_report(report, f"shard {s}")

    def cross_check(self, out: Phased) -> None:
        sim = net_runtime.run_in_process(
            self.config, self.source(), n_shards=self.n_shards
        )
        live = [json.dumps(r.as_dict(), sort_keys=True) for r in out.outputs[0].reports]
        ref = [json.dumps(r.as_dict(), sort_keys=True) for r in sim.reports]
        check(live == ref, "socket shard reports differ from the in-process run")

    def failure_counts(self, out: Phased) -> tuple[int, int]:
        reports = out.outputs[0].reports
        return int(sum(r.jobs_shed + r.jobs_lost for r in reports)), self.jobs(out)

    def program_metrics(self, outs, scales) -> dict:
        runs = [o.outputs[0] for o in outs]
        m = [r.metrics for r in runs]
        return {
            "service.resolves": sum(r.resolves for r in runs[0].reports),
            "service.swaps": sum(r.swaps for r in runs[0].reports),
            "net.rtt_p50_ms": _median([x.rtt_p50_s * 1e3 for x in m]),
            "net.rtt_p99_ms": _median([x.rtt_p99_s * 1e3 for x in m]),
            "net.peak_inflight": max(x.peak_inflight for x in m),
            "net.peak_submit_queue": max(x.peak_submit_queue for x in m),
            "net.stale_timeouts": sum(x.stale_timeouts for x in m),
            "net.dispatch_ns_per_job": _median([x.dispatch_ns_per_job for x in m]),
        }


WORKLOADS = {
    w.name: w
    for w in (PaperSweep, StaticSweep, Serve, Net)
}


def make(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, size)


# ----------------------------------------------------------------------
# Layers: the entry points the traced run wraps
# ----------------------------------------------------------------------


def _streams_units(args, kwargs, result):
    times, sizes = result
    return {"jobs": times.size, "bytes": times.nbytes + sizes.nbytes}


def _plan_units(args, kwargs, result):
    return {"reused": result[1] in ("hit", "extend"), "memo_calls": 1}


def _ckernel_units(args, kwargs, result):
    times, plans = args[1], args[4]
    return {"jobs": times.size * len(plans)}


def _engine_units(args, kwargs, result):
    return {"jobs": result.total_arrivals}


def _grid_units(args, kwargs, result):
    return {"tasks": len(args[0]), "retries": result.retried}


def _frame_units(args, kwargs, result):
    return {"frames": 1, "bytes": len(result)}


def _msg_window(args):
    return args[1].window


#: Every wrapped entry point and the layer (span name) it is timed as.
#: One list serves every workload: a layer a workload never calls
#: records no spans and reports zero there.
LAYERS = (
    # sweeps
    LayerSpec("repro.core.executor:run_cell_grid", "core.executor", units=_grid_units),
    LayerSpec("repro.core.executor:run_replication_grid", "core.executor",
              units=_grid_units),
    LayerSpec("repro.core.executor:summarize_outcomes", "metrics.summarize"),
    LayerSpec("repro.sim.fastpath:_summarize_plan", "metrics.summarize"),
    LayerSpec("repro.sim.fastpath:run_cell", "sim.fastpath"),
    LayerSpec("repro.sim.engine:run_simulation", "sim.engine", units=_engine_units),
    LayerSpec("repro.sim.streams:materialize_streams", "sim.streams",
              units=_streams_units),
    LayerSpec("repro.dispatch.round_robin:build_dispatch_sequence", "dispatch.plan",
              units=_plan_units),
    LayerSpec("repro.dispatch.random_dispatch:RandomDispatcher.draw", "dispatch.plan"),
    LayerSpec("repro.dispatch.random_dispatch:RandomDispatcher.select_batch_given",
              "dispatch.plan"),
    LayerSpec("repro.sim.ckernel:replay_cell_c", "sim.ckernel", units=_ckernel_units),
    # serving
    LayerSpec("repro.service.loop:SchedulerService.run", "service.loop"),
    LayerSpec("repro.service.loop:SchedulerService._run_window", "service.window",
              sets_window=True),
    LayerSpec("repro.service.loop:SchedulerService._run_window_faulted",
              "service.window", sets_window=True),
    LayerSpec("repro.service.loop:build_timeline", "faults.timeline"),
    LayerSpec("repro.service.sources:SyntheticJobSource.jobs_until", "service.sources"),
    LayerSpec("repro.service.controller:QuasiStaticController.observe_arrivals",
              "service.estimator"),
    LayerSpec("repro.service.controller:QuasiStaticController.observe_arrival",
              "service.estimator"),
    LayerSpec("repro.service.controller:QuasiStaticController.observe_services_grouped",
              "service.fold"),
    LayerSpec("repro.service.controller:QuasiStaticController.observe_service",
              "service.fold"),
    LayerSpec("repro.service.controller:QuasiStaticController.observe_responses",
              "service.fold"),
    LayerSpec("repro.service.controller:QuasiStaticController.observe_response",
              "service.fold"),
    LayerSpec("repro.service.controller:QuasiStaticController.resolve",
              "service.resolve"),
    LayerSpec("repro.service.controller:AdmissionGate.admit_mask", "service.gate"),
    LayerSpec("repro.dispatch.round_robin:SequenceRoundRobin.select_batch",
              "dispatch.select_batch"),
    LayerSpec("repro.service.replay:ServerBank.replay_window_grouped", "service.replay"),
    LayerSpec("repro.service.replay:ServerBank.dispatch", "faulted.replay.dispatch"),
    LayerSpec("repro.service.replay:ServerBank.collect_completions",
              "faulted.replay.collect"),
    LayerSpec("repro.service.replay:ServerBank.fail", "faulted.replay.fail"),
    # net
    LayerSpec("repro.net.runtime:run_sockets", "net.runtime"),
    LayerSpec("repro.net.protocol:pack", "net.protocol.encode", units=_frame_units),
    LayerSpec("repro.net.protocol:write_message", "net.protocol.encode"),
    LayerSpec("repro.net.protocol:unpack", "net.protocol.decode"),
    LayerSpec("repro.net.protocol:_decode_body", "net.protocol.decode"),
    LayerSpec("repro.net.orchestrator:OrchestratorShard.handle_submit",
              "net.orchestrator.submit", window=_msg_window),
    LayerSpec("repro.net.orchestrator:OrchestratorShard.handle_complete",
              "net.orchestrator.fold", window=_msg_window),
    LayerSpec("repro.net.server:ServerStub.handle_dispatch", "net.server.replay",
              window=_msg_window),
    LayerSpec("repro.net.client:LoadClient.next_submits", "net.client"),
    LayerSpec("repro.net.client:LoadClient.handle_resolve", "net.client",
              window=_msg_window),
    LayerSpec("repro.net.client:CapacityRouter.route", "net.client"),
)
