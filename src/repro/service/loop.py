"""The quasi-static scheduler service loop.

:class:`SchedulerService` ties the pieces together: a
:class:`~repro.service.sources.JobSource` supplies arrivals, the
:class:`~repro.service.controller.QuasiStaticController` estimates the
workload and periodically re-solves Theorems 1–3, the live
:class:`~repro.dispatch.round_robin.RoundRobinDispatcher` turns
allocations into a dispatch sequence, and the
:class:`~repro.service.replay.ServerBank` carries each server's FCFS
backlog across control windows.

Time advances one control period at a time.  Within a window the
dispatch sequence is immutable — Algorithm 2's interleaving invariant
holds for the segment — and the controller may swap it only at the
boundary (drain-and-switch).  Admission thinning decided at the last
re-solve applies to the *next* window's arrivals, mirroring how a real
controller can only act on what it has already measured.

**One window step.**  :class:`WindowStep` owns the controller, the
admission gate and the dispatcher and runs the phases every window
shares: ``admit`` (estimator arrival fold, admission mask), ``fold``
(speed witnesses and response means of the completed jobs) and
``close`` (boundary re-solve, dispatcher swap, the window record and
report totals).  The vectorized window is admit → grouped replay →
fold → close; the networked orchestrator shard
(:mod:`repro.net.orchestrator`) calls the same step around its remote
replay, so the two stacks agree by construction.

**Fault tolerance.**  With a :class:`~repro.faults.models.FaultConfig`
(or a scripted event list — the chaos harness) the pre-generated fault
timeline cuts each window into segments.  Each segment dispatches in
one compiled :meth:`ServerBank.dispatch` call, and each fault event
applies after the jobs at or before its timestamp.  A job aimed at a
down server — and every resident of a server that fails — bounces
through the :class:`~repro.faults.models.RetryPolicy`: it re-enters
the stream at ``bounce_time + delay`` with its original arrival as
response-time origin, or counts as lost once ``max_attempts``
placements failed (or immediately under ``on_failure="lose"``).  The
dispatch sequence stays immutable within the window even when a
failure lands mid-window; the controller learns of the membership
change (failure detector) and the *next boundary* re-solve runs
out-of-band over the survivors.  The fault-mode window runs the shared
admit, fold and close; the completions it folds are the jobs that
*finished* in the window, in completion order.

**Crash safety.**  A :class:`~repro.service.checkpoint.ServiceCheckpoint`
snapshots the full loop state (controller, gate, bank, dispatcher
mid-sequence position, pending retries, report-so-far) every
``checkpoint_every`` windows; :meth:`SchedulerService.restore` plus the
source fast-forward in :meth:`run` continue a crashed run to a report
field-for-field equal to the uninterrupted one.  ``crash_after``
simulates the crash (raising :class:`ServiceCrash`) so the CI
``chaos-smoke`` job can assert exactly that round trip.

The run is fully deterministic given the seed: estimator updates,
thinning, dispatch, replay, fault timelines, and retry backoff all
avoid hidden randomness, so a service run is a reproducible
experiment, not just a demo.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields

import numpy as np

from ..dispatch.round_robin import RoundRobinDispatcher, SequenceRoundRobin
from ..faults.models import (
    DEGRADE_END,
    DEGRADE_START,
    DOWN,
    UP,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
    build_timeline,
)
from ..obs import counters
from ..obs.spans import span
from ..sim import ckernel
from .checkpoint import ServiceCheckpoint
from .controller import AdmissionGate, ControlDecision, QuasiStaticController
from .replay import DEP, ORIGIN, SERVER, SIZE, SVC, ServerBank
from .sources import JobSource

__all__ = [
    "ServiceConfig",
    "WindowRecord",
    "ServiceReport",
    "SchedulerService",
    "ServiceCrash",
    "WindowStep",
    "build_controller",
]


def build_controller(config: "ServiceConfig") -> QuasiStaticController:
    """The controller a service run gets from its config.

    The :class:`WindowStep` default, so the in-process service and the
    networked orchestrator shards map config knobs to controller
    parameters the same way.
    """
    return QuasiStaticController(
        np.asarray(config.speeds, dtype=float),
        window=config.window,
        ewma_weight=config.ewma_weight,
        shed_threshold=config.shed_threshold,
        rho_cap=config.rho_cap,
        swap_tolerance=config.swap_tolerance,
        min_arrivals_to_shed=config.min_arrivals_to_shed,
        slo_target=config.slo_target,
        min_responses_to_shed=config.min_responses_to_shed,
        max_shed_fraction=config.max_shed_fraction,
    )


class ServiceCrash(RuntimeError):
    """Simulated hard crash (``crash_after``): the loop stops mid-run,
    leaving recovery to ``serve --resume`` from the last checkpoint."""

    def __init__(self, windows_completed: int):
        super().__init__(f"simulated crash after window {windows_completed}")
        self.windows_completed = windows_completed


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the service loop (workload construction lives with
    the callers — CLI and experiments — which build the JobSource)."""

    speeds: tuple[float, ...]
    duration: float
    control_period: float
    estimator_window: float | None = None  # default: 2 control periods
    # 1/weight ≈ 100-sample memory: mean-size estimates with a shorter
    # memory make ρ̂ swing ±20% on exponential sizes, which churns the
    # swap logic for nothing.
    ewma_weight: float = 0.01
    shed_threshold: float = 0.95
    rho_cap: float = 0.98
    swap_tolerance: float = 0.01
    min_arrivals_to_shed: int = 200
    # SLO-targeted shedding (None keeps the legacy ρ̂-threshold rule).
    slo_target: float | None = None
    min_responses_to_shed: int = 50
    max_shed_fraction: float = 0.9
    # Fault injection: a FaultConfig drives a pre-generated failure
    # timeline from its own RNG substreams (never the arrival streams).
    faults: FaultConfig | None = None
    fault_seed: int = 0

    def __post_init__(self):
        if len(self.speeds) == 0 or any(s <= 0 for s in self.speeds):
            raise ValueError(f"speeds must be positive, got {self.speeds}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.control_period <= 0 or self.control_period > self.duration:
            raise ValueError(
                f"control_period must lie in (0, duration], got {self.control_period}"
            )
        if self.slo_target is not None and self.slo_target <= 0:
            raise ValueError(f"slo_target must be positive, got {self.slo_target}")

    @property
    def window(self) -> float:
        return (
            self.estimator_window
            if self.estimator_window is not None
            else 2.0 * self.control_period
        )


@dataclass(frozen=True)
class WindowRecord:
    """Telemetry of one control window."""

    start: float
    end: float
    offered: int
    admitted: int
    shed: int
    mean_response_time: float  # NaN when the window completed nothing
    mean_response_ratio: float
    lambda_hat: float
    rho_hat: float
    swapped: bool
    alphas: np.ndarray
    # Tail telemetry (per-window P² estimates; NaN when nothing completed).
    p50: float = float("nan")
    p99: float = float("nan")
    # Fault accounting.  In fault mode response-time stats cover jobs
    # *completed* in the window (jobs still in flight at the boundary
    # count in the window their departure lands in); the fault-free path
    # keeps its dispatch-window attribution.
    completed: int = 0
    lost: int = 0
    retried: int = 0
    bounced: int = 0
    servers_up: int = 0
    reason: str = "periodic"


@dataclass
class ServiceReport:
    """Everything a service run produced, JSON-serializable."""

    config: ServiceConfig
    windows: list[WindowRecord] = field(default_factory=list)
    jobs_offered: int = 0
    jobs_dispatched: int = 0
    jobs_shed: int = 0
    swaps: int = 0
    resolves: int = 0
    clean_shutdown: bool = False
    # Fault accounting (all zero on a fault-free run).
    jobs_lost: int = 0
    jobs_retried: int = 0
    jobs_pending_retry: int = 0
    jobs_in_flight: int = 0
    membership_changes: int = 0
    # Lifetime response-time quantiles (streaming P²).
    p50: float = float("nan")
    p99: float = float("nan")

    @property
    def final_alphas(self) -> np.ndarray:
        if not self.windows:
            raise ValueError("no windows recorded")
        return self.windows[-1].alphas

    @property
    def loss_rate(self) -> float:
        """Fraction of offered jobs lost to failures (0 when none offered)."""
        if self.jobs_offered == 0:
            return 0.0
        return self.jobs_lost / self.jobs_offered

    @property
    def time_averaged_mrt(self) -> float:
        """Job-weighted mean response time over the whole run.

        Each window's MRT covers the jobs it *completed* (fault mode and
        net kills can admit jobs into a window that completes none), so
        ``completed`` is the weight; fault-free it equals ``admitted``.
        """
        total_jobs = sum(w.completed for w in self.windows)
        if total_jobs == 0:
            return float("nan")
        weighted = sum(
            w.completed * w.mean_response_time
            for w in self.windows
            if w.completed > 0
        )
        return weighted / total_jobs

    def allocation_history(self) -> list[tuple[float, np.ndarray]]:
        """(window end, allocation) at every swap, initial included."""
        out: list[tuple[float, np.ndarray]] = []
        for w in self.windows:
            if not out or w.swapped:
                out.append((w.end, w.alphas))
        return out

    def as_dict(self) -> dict:
        return {
            "speeds": list(self.config.speeds),
            "duration": self.config.duration,
            "control_period": self.config.control_period,
            "jobs_offered": self.jobs_offered,
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_shed": self.jobs_shed,
            "jobs_lost": self.jobs_lost,
            "jobs_retried": self.jobs_retried,
            "jobs_pending_retry": self.jobs_pending_retry,
            "jobs_in_flight": self.jobs_in_flight,
            "loss_rate": self.loss_rate,
            "membership_changes": self.membership_changes,
            "swaps": self.swaps,
            "resolves": self.resolves,
            "clean_shutdown": self.clean_shutdown,
            "time_averaged_mrt": self.time_averaged_mrt,
            "p50": self.p50,
            "p99": self.p99,
            "final_alphas": [float(a) for a in self.final_alphas]
            if self.windows
            else [],
            "windows": [
                {name: getattr(w, name) for name in _WINDOW_FIELDS
                 if name != "alphas"}
                for w in self.windows
            ],
        }


# ----------------------------------------------------------------------
# Checkpoint (de)serialization of report state
# ----------------------------------------------------------------------

_REPORT_SCALARS = (
    "jobs_offered", "jobs_dispatched", "jobs_shed", "swaps", "resolves",
    "jobs_lost", "jobs_retried", "jobs_pending_retry", "jobs_in_flight",
    "membership_changes", "p50", "p99",
)


_WINDOW_FIELDS = tuple(f.name for f in fields(WindowRecord))


def _window_state(w: WindowRecord) -> dict:
    out = {name: getattr(w, name) for name in _WINDOW_FIELDS}
    out["alphas"] = [float(a) for a in w.alphas]
    return out


def _window_from_state(state: dict) -> WindowRecord:
    kwargs = dict(state)
    kwargs["alphas"] = np.asarray(kwargs["alphas"], dtype=float)
    return WindowRecord(**kwargs)


def _report_state(report: ServiceReport) -> dict:
    out = {name: getattr(report, name) for name in _REPORT_SCALARS}
    out["windows"] = [_window_state(w) for w in report.windows]
    return out


def _report_from_state(config: ServiceConfig, state: dict) -> ServiceReport:
    report = ServiceReport(config=config)
    for name in _REPORT_SCALARS:
        setattr(report, name, state[name])
    report.windows = [_window_from_state(w) for w in state["windows"]]
    return report


class WindowStep:
    """One control window of the ORR policy, sans IO.

    Owns the quasi-static controller, the admission gate and the
    Algorithm 2 dispatcher, and runs the three phases every window
    shares: :meth:`admit` thins the offered arrivals, :meth:`fold`
    feeds the window's completions back to the estimators, and
    :meth:`close` re-solves at the boundary and records the window.
    Placement and replay sit between admit and fold and belong to the
    caller — :class:`SchedulerService` replays in process, the networked
    orchestrator shard (:mod:`repro.net.orchestrator`) fans dispatches
    out to server stubs — so the two stacks run this one step.

    ``reference`` selects the live per-job Algorithm 2 scan instead of
    the memoized sequence (see :class:`SchedulerService`).
    """

    def __init__(
        self,
        config: ServiceConfig,
        controller: QuasiStaticController | None = None,
        *,
        reference: bool = False,
    ):
        self.config = config
        self.controller = controller or build_controller(config)
        self.reference = bool(reference)
        self.gate = AdmissionGate()
        self.dispatcher = self.new_dispatcher()
        self.dispatcher.reset(self.controller.alphas)

    def new_dispatcher(self):
        """A fresh dispatcher for the configured execution mode.

        Both classes walk the identical Algorithm 2 sequence; the fast
        path serves it as memoized slices (O(window) per batch), the
        reference path runs the live per-job scan.
        """
        if self.reference:
            return RoundRobinDispatcher()
        return SequenceRoundRobin()

    def admit(
        self, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observe the offered arrivals, return the admitted ones."""
        controller = self.controller
        # The estimator sees the *offered* stream — shed jobs included —
        # because sizing decisions must track demand, not what survived
        # the previous shedding decision.
        controller.observe_arrivals(times, sizes)
        mask = self.gate.admit_mask(times.size, 1.0 - controller.shed_fraction)
        if mask.all():
            # The fault-free default: nothing shed, no fancy-index copy.
            return times, sizes
        return times[mask], sizes[mask]

    def fold(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        departures: np.ndarray,
        service_times: np.ndarray,
        order: np.ndarray,
        offsets: np.ndarray,
        *,
        sequential: bool = False,
    ) -> tuple[float, float]:
        """Fold completed jobs into the estimators.

        All four job arrays are in arrival order (completion order in
        fault mode, *times* then the original arrivals); *order*/*offsets*
        are their stable group-by-server partition.  Returns the window's
        mean response time and mean response ratio (NaN when nothing
        completed): numpy's pairwise means, or left-to-right sums with
        *sequential* (the fault-mode window's reduction order).
        """
        n = int(times.size)
        if not n:
            return float("nan"), float("nan")
        controller = self.controller
        a = ckernel.arena()
        # Per-server speed witnesses, folded in server-grouped order
        # (identical EWMA state: per-server estimators are independent
        # and the stable grouping preserves each server's observation
        # order).
        wit = a.f64("loop.wit", n)
        np.divide(sizes, service_times, out=wit)
        witg = a.f64("loop.witg", n)
        np.take(wit, order, out=witg)
        controller.observe_services_grouped(witg, offsets)
        # Response means in arrival order: numpy's pairwise summation
        # makes the reduction order part of the result.
        response = a.f64("loop.resp", n)
        np.subtract(departures, times, out=response)
        ratio_buf = a.f64("loop.ratio", n)
        np.divide(response, sizes, out=ratio_buf)
        if sequential:
            mrt = float(np.cumsum(response)[-1]) / n
            ratio = float(np.cumsum(ratio_buf)[-1]) / n
        else:
            mrt = float(response.mean())
            ratio = float(ratio_buf.mean())
        controller.observe_responses(response)
        return mrt, ratio

    def close(
        self,
        report: ServiceReport,
        start: float,
        end: float,
        offered: int,
        admitted: int,
        mrt: float,
        ratio: float,
        *,
        completed: int | None = None,
        lost: int = 0,
        retried: int = 0,
        bounced: int = 0,
        servers_up: int | None = None,
    ) -> ControlDecision:
        """Re-solve at the boundary, record the window, update totals.

        ``completed`` defaults to ``admitted`` and ``servers_up`` to the
        whole bank — the fault-free case.
        """
        controller = self.controller
        # Drain-and-switch: the controller may change the allocation
        # only here, between windows; a swap restarts the sequence.
        decision = controller.resolve(end)
        if decision.swapped:
            self.dispatcher = self.new_dispatcher()
            self.dispatcher.reset(decision.alphas)

        shed = offered - admitted
        counters.inc("service.jobs_dispatched", value=admitted)
        if shed:
            counters.inc("service.jobs_shed", value=shed)
        estimate = decision.estimate
        report.windows.append(
            WindowRecord(
                start=start,
                end=end,
                offered=offered,
                admitted=admitted,
                shed=shed,
                mean_response_time=mrt,
                mean_response_ratio=ratio,
                lambda_hat=(estimate.arrival_rate if estimate else float("nan")),
                rho_hat=(estimate.utilization if estimate else float("nan")),
                swapped=decision.swapped,
                alphas=decision.alphas,
                p50=decision.window_p50,
                p99=decision.window_p99,
                completed=admitted if completed is None else completed,
                lost=lost,
                retried=retried,
                bounced=bounced,
                servers_up=(
                    len(self.config.speeds) if servers_up is None else servers_up
                ),
                reason=decision.reason,
            )
        )
        report.jobs_offered += offered
        report.jobs_dispatched += admitted
        report.jobs_shed += shed
        report.jobs_lost += lost
        report.jobs_retried += retried
        report.swaps = controller.swaps
        report.resolves = controller.resolves
        report.membership_changes = controller.membership_events
        report.p50 = controller.p50.value
        report.p99 = controller.p99.value
        return decision


class SchedulerService:
    """Run the quasi-static loop over a job source until the horizon.

    Parameters
    ----------
    fault_events:
        Optional scripted fault timeline (the chaos harness passes one).
        When omitted and ``config.faults`` is enabled, the timeline is
        pre-generated via :func:`~repro.faults.models.build_timeline`.
        Passing a list — even an empty one — selects the fault-mode
        window; otherwise fault mode engages only for an enabled
        ``config.faults``.
    checkpoint:
        A :class:`~repro.service.checkpoint.ServiceCheckpoint` to
        snapshot into every ``checkpoint_every`` completed windows.
    crash_after:
        Simulate a crash (raise :class:`ServiceCrash`) once this many
        windows completed in *this* run — test/CI hook for resume.
    reference:
        Run the fault-free window through the original per-job loop
        (scalar gate, per-job estimator updates, live Algorithm 2
        scans) instead of the vectorized hot path.  The two produce
        field-for-field identical reports — the reference branch exists
        as the oracle the bit-identity tests and the ``bench --serve``
        speedup measure against.
    """

    def __init__(
        self,
        config: ServiceConfig,
        source: JobSource,
        controller: QuasiStaticController | None = None,
        *,
        fault_events: list[FaultEvent] | None = None,
        checkpoint: ServiceCheckpoint | None = None,
        checkpoint_every: int = 10,
        crash_after: int | None = None,
        reference: bool = False,
    ):
        self.config = config
        self.source = source
        self.step = WindowStep(config, controller, reference=reference)
        self.bank = ServerBank(config.speeds)

        timeline = fault_events
        if timeline is None and config.faults is not None and config.faults.enabled:
            timeline = build_timeline(
                config.faults, len(config.speeds), config.duration, config.fault_seed
            )
        self._faulted = timeline is not None
        self.fault_events: list[FaultEvent] = sorted(
            timeline or [], key=lambda e: (e.time, e.server, e.kind)
        )
        fc = config.faults
        self._retry: RetryPolicy = fc.retry if fc is not None else RetryPolicy()
        self._on_failure = fc.on_failure if fc is not None else "retry"
        self._degrade_factor = fc.degrade_factor if fc is not None else 0.5
        self._event_pos = 0
        # Pending retries, heap-ordered by (due time, insertion seq):
        # (due, seq, origin arrival, size, failed placements).  The seq
        # tie-break reproduces the schedule order a stable sort by due
        # time would give, while due-time re-entry pops the heap front
        # instead of scanning the whole list every window.
        self._pending: list[tuple] = []
        self._pending_seq = 0
        self._degrade_level = [0] * len(config.speeds)

        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        self.crash_after = None if crash_after is None else int(crash_after)
        self._start_window = 0
        self._restored_report: ServiceReport | None = None

    @property
    def controller(self) -> QuasiStaticController:
        return self.step.controller

    @property
    def dispatcher(self):
        return self.step.dispatcher

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self) -> ServiceReport:
        config = self.config
        report = (
            self._restored_report
            if self._restored_report is not None
            else ServiceReport(config=config)
        )
        self._restored_report = None
        cp = config.control_period
        n_windows = int(np.ceil(config.duration / cp))
        with span("service.run", windows=n_windows,
                  servers=len(config.speeds), faulted=self._faulted):
            for k in range(n_windows):
                end = min((k + 1) * cp, config.duration)
                if k < self._start_window:
                    # Resume fast-forward: replay the job source with the
                    # original call pattern so its stream state matches
                    # the crashed run exactly; everything else came from
                    # the checkpoint.
                    self.source.jobs_until(end)
                    continue
                start = k * cp
                if self._faulted:
                    self._run_window_faulted(start, end, report)
                elif self.step.reference:
                    self._run_window_reference(start, end, report)
                else:
                    self._run_window(start, end, report)
                done = k + 1
                if (
                    self.checkpoint is not None
                    and done < n_windows
                    and done % self.checkpoint_every == 0
                ):
                    self.checkpoint.append(self.state_dict(done, report))
                if (
                    self.crash_after is not None
                    and done < n_windows
                    and done - self._start_window >= self.crash_after
                ):
                    raise ServiceCrash(done)
        report.clean_shutdown = True
        return report

    # ------------------------------------------------------------------
    # Fault-free window
    # ------------------------------------------------------------------

    def _run_window(self, start: float, end: float, report: ServiceReport) -> None:
        """The vectorized serve hot path (default fault-free window).

        One compiled carry-state replay call plus batched estimator
        folds per window — no per-job Python.  Field-for-field
        identical report to :meth:`_run_window_reference`: every batch
        operation either runs the identical float recursion (compiled
        folds, grouped replay) or a formulation proven equal on the
        values the loop produces (the gate's cumulative-sum mask).
        """
        step = self.step
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = step.admit(times, sizes)
        # Dispatch under the window's (immutable) sequence and replay
        # with carried backlog.
        targets = step.dispatcher.select_batch(adm_sizes)
        departures, service_times, order, offsets = self.bank.replay_window_grouped(
            targets, adm_times, adm_sizes
        )
        mrt, ratio = step.fold(
            adm_times, adm_sizes, departures, service_times, order, offsets
        )
        step.close(
            report, start, end, int(times.size), int(adm_times.size), mrt, ratio
        )

    def _run_window_reference(
        self, start: float, end: float, report: ServiceReport
    ) -> None:
        """The original per-job fault-free window (oracle path).

        Kept verbatim up to the boundary — scalar admission accumulator,
        per-job estimator updates, live Algorithm 2 scans, fresh replay
        outputs — so the property tests and ``bench --serve`` can pin
        the vectorized path against it, report for report.
        """
        controller = self.controller
        times, sizes = self.source.jobs_until(end)
        for t, x in zip(times, sizes):
            controller.observe_arrival(t, x)
        keep = 1.0 - controller.shed_fraction
        mask = self.step.gate.admit_mask_scalar(times.size, keep)
        adm_times = times[mask]
        adm_sizes = sizes[mask]

        targets = self.dispatcher.select_batch(adm_sizes)
        departures, service_times = self.bank.replay_window(
            targets, adm_times, adm_sizes
        )
        for srv, x, svc in zip(targets, adm_sizes, service_times):
            controller.observe_service(int(srv), float(x), float(svc))

        if adm_times.size:
            response = departures - adm_times
            mrt = float(response.mean())
            ratio = float((response / adm_sizes).mean())
            for r in response:
                controller.observe_response(float(r))
        else:
            mrt = float("nan")
            ratio = float("nan")
        self.step.close(
            report, start, end, int(times.size), int(adm_times.size), mrt, ratio
        )

    # ------------------------------------------------------------------
    # Fault-mode window (segmented by fault events)
    # ------------------------------------------------------------------

    def _bounce(self, tally: dict, now, origins, sizes, attempts) -> None:
        """Placements just failed at *now*; retry or lose each job.

        One batch per segment (*now* a scalar or one time per job;
        *attempts* the failed placements *before* this one), counted
        into *tally*.  Retries join the heap in job order, with the due
        keys and insertion seqs one push per job would give.
        """
        failed = attempts + 1
        # Losing bounced jobs is a one-placement retry budget.
        limit = 1 if self._on_failure == "lose" else self._retry.max_attempts
        retry = failed < limit
        retried = int(np.count_nonzero(retry))
        lost = int(failed.size) - retried
        tally["bounced"] += lost + retried
        tally["lost"] += lost
        tally["retried"] += retried
        if lost:
            counters.inc("service.jobs_lost", value=lost)
        if retried:
            counters.inc("service.jobs_retried", value=retried)
            now = np.asarray(now, dtype=float)
            due = (now[retry] if now.ndim else now) + np.array(
                [self._retry.delay(a) for a in attempts[retry].tolist()]
            )
            seq = self._pending_seq
            for job in zip(due.tolist(), range(seq, seq + retried),
                           origins[retry].tolist(), sizes[retry].tolist(),
                           failed[retry].tolist()):
                heapq.heappush(self._pending, job)
            self._pending_seq += retried

    def _run_window_faulted(
        self, start: float, end: float, report: ServiceReport
    ) -> None:
        """The fault-mode window, cut into segments by its fault events.

        Each segment — the jobs up to the next event — dispatches in one
        :meth:`ServerBank.dispatch` call and bounces its refusals in one
        batch; the window's completions are collected and folded once.
        """
        controller = self.controller
        bank = self.bank
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = self.step.admit(times, sizes)

        # Fold due retries into the window's stream: a retry scheduled
        # for time d re-enters the sequence as an arrival at max(d,
        # start) — bounces become eligible at the *next* window, never
        # inside the one that bounced them.  Ties go to fresh arrivals
        # (stable sort, arrivals listed first).  Heap pops come out
        # ordered by (due, insertion seq): the stable sort by due time.
        jobs = [adm_times, adm_sizes, adm_times,
                np.zeros(adm_times.size, dtype=np.int64)]
        due: list[tuple] = []
        while self._pending and self._pending[0][0] <= end:
            due.append(heapq.heappop(self._pending))
        if due:
            retries = ([max(r[0], start) for r in due], [r[3] for r in due],
                       [r[2] for r in due], [r[4] for r in due])
            jobs = [np.concatenate((col, np.asarray(extra, dtype=col.dtype)))
                    for col, extra in zip(jobs, retries)]
            order = np.argsort(jobs[0], kind="stable")
            jobs = [col[order] for col in jobs]
        job_times, job_sizes, job_origins, job_attempts = jobs

        # The window's dispatch sequence is fixed up front — a failure
        # mid-window never rewrites it (Algorithm 2's invariant); the
        # re-plan waits for the boundary resolve below.
        targets = self.dispatcher.select_batch(job_sizes)

        events: list[FaultEvent] = []
        while (
            self._event_pos < len(self.fault_events)
            and self.fault_events[self._event_pos].time <= end
        ):
            events.append(self.fault_events[self._event_pos])
            self._event_pos += 1
        # Jobs at exactly an event's timestamp dispatch before the event
        # applies (arrival-then-event tie-break, documented).
        ends = [ev.time for ev in events] + [end]
        cuts = np.searchsorted(job_times, ends, side="right").tolist()

        tally = {"bounced": 0, "lost": 0, "retried": 0}
        lo = 0
        for ev, hi in zip([*events, None], cuts):
            if hi > lo:
                refused = lo + bank.dispatch(
                    targets[lo:hi], job_times[lo:hi], job_sizes[lo:hi],
                    job_origins[lo:hi], job_attempts[lo:hi],
                )
                if refused.size:
                    self._bounce(
                        tally, job_times[refused], job_origins[refused],
                        job_sizes[refused], job_attempts[refused],
                    )
                lo = hi
            if ev is None:
                break
            if ev.kind == DOWN:
                if bank.up[ev.server]:
                    residents = bank.fail(ev.server, ev.time)
                    controller.mark_server_down(ev.server, ev.time)
                    if residents[0].size:
                        self._bounce(tally, ev.time, *residents)
            elif ev.kind == UP:
                if not bank.up[ev.server]:
                    bank.repair(ev.server, ev.time)
                    # The same machine resumes, so its pre-outage speed
                    # history stays; the networked rejoin path passes
                    # fresh_estimates=True instead (restarted process).
                    controller.mark_server_up(ev.server, ev.time)
            elif ev.kind in (DEGRADE_START, DEGRADE_END):
                step = 1 if ev.kind == DEGRADE_START else -1
                level = max(0, self._degrade_level[ev.server] + step)
                self._degrade_level[ev.server] = level
                bank.set_speed_factor(ev.server, ev.time,
                                      self._degrade_factor**level)

        # Completion-based accounting: response times span retries
        # (departure minus *original* arrival) and land in the window
        # the job actually finished in.
        done = bank.collect_completions(ends)
        order = np.argsort(done[SERVER], kind="stable")
        offsets = np.searchsorted(done[SERVER, order], np.arange(bank.n + 1))
        mrt, ratio = self.step.fold(
            done[ORIGIN], done[SIZE], done[DEP], done[SVC], order, offsets,
            sequential=True,
        )

        report.jobs_pending_retry = len(self._pending)
        report.jobs_in_flight = bank.inflight_count()
        self.step.close(
            report, start, end, int(times.size), int(adm_times.size), mrt, ratio,
            completed=int(done.shape[1]),
            servers_up=int(np.count_nonzero(bank.up)), **tally,
        )

    # ------------------------------------------------------------------
    # Crash-safe checkpointing
    # ------------------------------------------------------------------

    def state_dict(self, next_window: int, report: ServiceReport) -> dict:
        """Full loop state after ``next_window`` windows completed."""
        return {
            "next_window": int(next_window),
            "config": self._config_fingerprint(),
            "controller": self.controller.state_dict(),
            "gate": self.step.gate.state_dict(),
            "bank": self.bank.state_dict(),
            "dispatcher": self.dispatcher.state_dict(),
            # External format unchanged from the list era: 4-field
            # records in (due, schedule) order, no heap internals.
            "pending": [
                [r[0], r[2], r[3], r[4]] for r in sorted(self._pending)
            ],
            "degrade_level": [int(x) for x in self._degrade_level],
            "event_pos": int(self._event_pos),
            "report": _report_state(report),
        }

    def _config_fingerprint(self) -> dict:
        return {
            "speeds": [float(s) for s in self.config.speeds],
            "duration": float(self.config.duration),
            "control_period": float(self.config.control_period),
            "faulted": bool(self._faulted),
        }

    def restore(self, state: dict) -> None:
        """Adopt a checkpointed state; :meth:`run` then continues it.

        The service must be constructed with the same config and an
        equivalent job source (same seed / trace) as the crashed run —
        the fingerprint check catches mismatched geometry, but stream
        identity is the caller's contract.
        """
        fingerprint = self._config_fingerprint()
        if state["config"] != fingerprint:
            raise ValueError(
                "checkpoint belongs to a different run configuration: "
                f"{state['config']} != {fingerprint}"
            )
        self.controller.load_state(state["controller"])
        self.step.gate.load_state(state["gate"])
        self.bank.load_state(state["bank"])
        self.step.dispatcher = self.step.new_dispatcher()
        self.step.dispatcher.load_state(state["dispatcher"])
        # Re-number insertion seqs in checkpointed (due, schedule)
        # order: future pops keep breaking due-time ties exactly as the
        # uninterrupted run would.
        self._pending = [
            (float(r[0]), seq, float(r[1]), float(r[2]), int(r[3]))
            for seq, r in enumerate(state["pending"])
        ]
        self._pending_seq = len(self._pending)
        heapq.heapify(self._pending)
        self._degrade_level = [int(x) for x in state["degrade_level"]]
        self._event_pos = int(state["event_pos"])
        self._start_window = int(state["next_window"])
        self._restored_report = _report_from_state(self.config, state["report"])
