"""The grid executor: one scheduler for every sweep, on a shared worker pool.

A sweep is a grid of *members* — one replication of one policy at one
sweep point, keyed ``(x, policy, r)``.  Two entry points hand that grid
to the same checkpoint/cache lookup and the same scheduling loop:

* :func:`run_cell_grid` runs every experiment sweep.  Each sweep point
  is a :class:`CellTask` whose members run in *slices* (every pending
  policy of a chunk of replications), so one stream materialization per
  replication serves every policy and cross-policy plan dedup fires.
* :func:`run_replication_grid` is the per-replication oracle: every
  member is a standalone :class:`ReplicationTask` run through
  :func:`~repro.core.evaluate.run_policy_once`.  Tests pin the cell path
  to it bit for bit.

The loop runs *units* — a cell slice or a chunk of replication tasks —
either in-process with inline retries or on the process-wide worker
pool with timeouts, pool rebuilds and suspect isolation:

* **One pool per process.**  The ``ProcessPoolExecutor`` is created
  lazily on first parallel use and reused across sweep points, figures,
  and :func:`evaluate_policy_parallel` calls in a single CLI invocation
  — no per-call spin-up churn.  Worker processes persist, so
  per-process memos (the round-robin dispatch-sequence cache) stay warm
  across tasks.
* **Bit-identical results.**  Each replication derives its streams from
  its own seed, workers rebuild policies from registry names, and the
  caller aggregates outcomes keyed by member — never by completion
  order.  In-process runs skip the pool (and pickling) entirely.
* **Failures are charged to single members.**  A unit that fails —
  raises, kills its worker, or overruns its budget — and holds more
  than one member is re-run, uncharged, as single-member units, so
  attempts and :class:`TaskFailure` records always name exactly one
  (point, policy, replication) and its siblings complete.  A dead
  worker breaks the whole pool and cannot say which unit killed it:
  every unit in flight becomes a *suspect* and re-runs alone on a
  rebuilt pool, where a break names its culprit.  Unrecoverable
  failures raise one aggregate :class:`GridTaskError`.

Hardening knobs (all off by default):

* ``retries`` — a failed member is retried up to N times with a bounded
  exponential backoff before it counts as failed.
* ``task_timeout`` — wall-clock budget per member; a unit of k members
  gets k times the budget.  An overrun counts as a crash and recycles
  the pool.  A requested timeout always runs on real workers (a
  one-worker pool when ``n_jobs=1``).
* ``quarantine`` — members that exhaust their retries are quarantined
  into ``GridReport.failures`` as structured :class:`TaskFailure`
  records instead of aborting the whole grid.
* ``checkpoint`` — a :class:`~repro.core.checkpoint.SweepCheckpoint`;
  finished members are appended as they complete and skipped on re-runs
  (``repro run --resume``).

``n_jobs`` resolution: explicit argument > ``REPRO_JOBS`` environment
variable > 1 (serial).  The string ``"auto"`` maps to ``os.cpu_count()``.
"""

from __future__ import annotations

import atexit
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from ..obs import counters
from ..obs.spans import span
from ..rng import replication_seeds
from ..sim import run_cell
from ..sim.config import SimulationConfig
from ..sim.streams import SharedStreamPool, StreamPool, attach_streams
from .cache import ReplicationCache
from .checkpoint import SweepCheckpoint
from .evaluate import (
    PolicyEvaluation,
    _cell_fast_indices,
    _result_outcome,
    run_policy_once,
    summarize_outcomes,
)
from .policies import get_policy

__all__ = [
    "ReplicationTask",
    "CellTask",
    "TaskFailure",
    "GridTaskError",
    "GridReport",
    "resolve_n_jobs",
    "shared_executor",
    "shutdown_shared_executor",
    "run_replication_grid",
    "run_cell_grid",
    "evaluate_policy_parallel",
    "summarize_outcomes",
]

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0

#: Test seam: when set (before workers fork), every unit calls
#: ``_TEST_WORKER_HOOK(task)`` once per member, with the member as a
#: :class:`ReplicationTask`, before it runs — fault-injection tests use
#: it to crash or stall specific members.  Never set in production.
_TEST_WORKER_HOOK = None

#: Bounded backoff between retry attempts of a failed member (seconds).
_RETRY_BASE_DELAY = 0.05
_RETRY_MAX_DELAY = 2.0

#: Grids at or below this many pending members run in-process even when
#: ``n_jobs > 1``: spinning up (or round-tripping) worker processes
#: costs more than a handful of replications, and serial execution is
#: bit-identical anyway.  Retries and the test worker hook opt out of
#: it, and a task timeout always gets real workers.
_AUTO_SERIAL_TASKS = 4

#: Matches :class:`repro.experiments.base.Scale`'s base seed.
DEFAULT_BASE_SEED = 2000


def resolve_n_jobs(value: int | str | None = None) -> int:
    """Resolve a worker count: arg > ``REPRO_JOBS`` env > 1; 'auto' = cores."""
    if value is None:
        value = os.environ.get("REPRO_JOBS", "1")
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"n_jobs must be a positive integer or 'auto', got {value!r}"
            ) from None
    n = int(value)
    if n < 1:
        raise ValueError(f"n_jobs must be positive, got {n}")
    return n


def shared_executor(n_jobs: int) -> ProcessPoolExecutor:
    """The process-wide worker pool, created lazily on first use.

    Reused while ``n_jobs`` stays the same; a different ``n_jobs``
    drains the old pool and builds a fresh one.
    """
    global _pool, _pool_workers
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be positive, got {n_jobs}")
    if _pool is None or _pool_workers != n_jobs:
        shutdown_shared_executor()
        _pool = ProcessPoolExecutor(max_workers=n_jobs)
        _pool_workers = n_jobs
    return _pool


def shutdown_shared_executor() -> None:
    """Drain and drop the shared pool (no-op when none exists)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown()
        _pool = None
        _pool_workers = 0


def _rebuild_pool() -> None:
    """Discard a broken/stalled pool without waiting on stuck workers."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0
        counters.inc("executor.pool_rebuilds")


atexit.register(shutdown_shared_executor)


@dataclass(frozen=True)
class ReplicationTask:
    """One replication of one policy on one configuration."""

    key: Hashable
    config: SimulationConfig
    policy_name: str
    estimation_error: float | None
    seed: int | np.random.SeedSequence


@dataclass(frozen=True)
class CellTask:
    """One sweep cell: every (policy × replication) member at one point.

    ``policy_names`` are the display names used in member keys — the
    same ``(x, policy, r)`` triples the per-replication grid uses —
    while ``base_names``/``estimation_errors`` are the registry
    coordinates workers rebuild each policy from (see :meth:`member`).
    """

    x: Hashable
    config: SimulationConfig
    policy_names: tuple[str, ...]
    base_names: tuple[str, ...]
    estimation_errors: tuple[float | None, ...]
    seeds: tuple

    def member_key(self, pi: int, r: int) -> tuple:
        return (self.x, self.policy_names[pi], r)

    def member(self, pi: int, r: int) -> ReplicationTask:
        """Member ``(pi, r)`` as a standalone replication task — the
        same key, cache key and outcome."""
        return ReplicationTask(
            key=self.member_key(pi, r),
            config=self.config,
            policy_name=self.base_names[pi],
            estimation_error=self.estimation_errors[pi],
            seed=self.seeds[r],
        )

    def policies(self):
        return [
            get_policy(base, estimation_error=err)
            for base, err in zip(self.base_names, self.estimation_errors)
        ]


@dataclass(frozen=True)
class TaskFailure:
    """One grid member that exhausted its retries.

    ``key`` is the sweep's member key — for the standard experiment
    sweeps a ``(sweep point, policy, replication)`` triple — so the
    failure names exactly which member died and why.
    """

    key: Hashable
    policy_name: str
    attempts: int
    error: str

    def describe(self) -> str:
        where = self.key
        if isinstance(where, tuple) and len(where) == 3:
            x, policy, r = where
            where = f"point {x!r}, policy {policy}, replication {r}"
        first_line = self.error.strip().splitlines()[-1] if self.error else "?"
        return f"{where} ({self.attempts} attempt(s)): {first_line}"


class GridTaskError(RuntimeError):
    """Aggregate error for a grid run with unrecoverable task failures.

    Subclasses :class:`RuntimeError` and keeps the historical
    "grid tasks failed" message, so existing handlers keep working;
    structured details live in :attr:`failures`.
    """

    def __init__(self, failures: list["TaskFailure"], total: int):
        self.failures = tuple(failures)
        detail = "\n\n".join(
            f"task {f.key!r}:\n{f.error}" for f in failures[:5]
        )
        super().__init__(
            f"{len(failures)} of {total} grid tasks failed; "
            f"first failure(s):\n{detail}"
        )


@dataclass
class GridReport:
    """Outcomes plus observability for one grid run."""

    #: member key → (mean_response_time, mean_response_ratio, fairness,
    #: jobs, dispatch_fractions, loss_rate) — the per-replication
    #: outcome tuple (loss_rate is 0.0 for fault-free runs).
    outcomes: dict
    cache_hits: int = 0
    cache_misses: int = 0
    #: Per-stage wall-clock seconds ("cache_lookup", "simulate").
    timings: dict[str, float] = field(default_factory=dict)
    #: Quarantined members (only populated with ``quarantine=True``).
    failures: list[TaskFailure] = field(default_factory=list)
    #: Finished members served from the sweep checkpoint.
    checkpoint_hits: int = 0
    #: Member attempts beyond the first (failures that recovered).
    retried: int = 0


@dataclass(frozen=True)
class _Unit:
    """What one worker call runs: a slice of one cell's ``(pi, r)``
    members, or a chunk of standalone :class:`ReplicationTask` members
    (``cell is None``).  A unit succeeds or fails as a whole."""

    cell: CellTask | None
    members: tuple

    def tasks(self) -> list[ReplicationTask]:
        if self.cell is None:
            return list(self.members)
        return [self.cell.member(pi, r) for pi, r in self.members]

    def split(self) -> list["_Unit"]:
        return [_Unit(self.cell, (m,)) for m in self.members]


def _run_replication(task: ReplicationTask):
    policy = get_policy(task.policy_name, estimation_error=task.estimation_error)
    return _result_outcome(run_policy_once(task.config, policy, seed=task.seed))


def _run_cell_members(task: CellTask, members, pool: StreamPool) -> list:
    """Run the given (policy, rep) members of one cell on pooled streams.

    Static members on ps/fcfs go through the batched
    :func:`~repro.sim.fastpath.run_cell` replay; everything else falls
    back to :func:`run_policy_once` per member (identical seeds either
    way).  Returns the members' outcome tuples in ``members`` order.
    """
    policies = task.policies()
    fast = _cell_fast_indices(task.config, policies)
    fast_members = [(pi, r) for pi, r in members if pi in fast]
    batched = {}
    if fast_members:
        batched = run_cell(
            task.config, policies, task.seeds, pool=pool, members=fast_members
        )
    out = []
    for pi, r in members:
        result = batched.get((pi, r))
        if result is None:
            result = run_policy_once(
                task.config, policies[pi], seed=task.seeds[r]
            )
        out.append(_result_outcome(result))
    return out


def _run_unit(unit: _Unit, handles=()):
    """Run one unit, in-process or as the pool entry point; never raises.

    Returns ``(outcomes, error, delta)``: the members' outcome tuples in
    unit order (``None`` on failure), the traceback text (``None`` on
    success), and the run's counter delta
    (:func:`repro.obs.counters.diff_since`), which the parent merges so
    a parallel grid reports the same run-level counters as a serial
    one; in-process callers drop it, their increments already landed.
    ``handles`` are ``(r, StreamHandle)`` pairs mapping the parent's
    shared-memory streams for a cell slice's replications; the others
    sample privately.
    """
    before = counters.snapshot()
    pool = None
    attached = []
    try:
        if _TEST_WORKER_HOOK is not None:
            for task in unit.tasks():
                _TEST_WORKER_HOOK(task)
        if unit.cell is None:
            outcomes = [_run_replication(task) for task in unit.members]
        else:
            cell = unit.cell
            reps = {r for _, r in unit.members}
            pool = StreamPool(max_entries=len(reps))
            for r, handle in handles:
                view = attach_streams(handle)
                attached.append(view)
                pool.prime(cell.config, cell.seeds[r], view.times, view.sizes)
            outcomes = _run_cell_members(cell, unit.members, pool)
        return outcomes, None, counters.diff_since(before)
    except Exception:  # noqa: BLE001 — captured per unit by design
        return None, traceback.format_exc(), None
    finally:
        pool = None  # noqa: F841 — drop shm-backed views before unmapping
        for view in attached:
            view.close()


def _retry_delay(next_attempt: int) -> float:
    """Bounded exponential backoff before attempt *next_attempt* (≥ 2)."""
    return min(_RETRY_MAX_DELAY, _RETRY_BASE_DELAY * 2.0 ** (next_attempt - 2))


def _schedule(
    units,
    on_done,
    *,
    n_jobs: int,
    use_pool: bool,
    retries: int,
    task_timeout: float | None,
    handles_for=lambda unit: (),
) -> None:
    """The one scheduling loop: run *units* until every member settles.

    ``on_done(task, outcome, error, attempts)`` is called once per
    member as it settles.  In-process, units run inline and retry
    inline.  On the pool, units are submitted with a deadline of
    ``task_timeout`` per member; suspects from a broken pool then run
    one at a time, so a break or overrun names its culprit.
    ``handles_for(unit)`` supplies a unit's shared-memory stream
    handles for the pool.
    """
    todo = deque((unit, 1) for unit in units)
    suspects: deque = deque()  # run one at a time on a fresh pool
    in_flight: dict = {}  # future -> (unit, attempt, deadline, solo)
    # With a timeout, only as many units as workers are in flight, so a
    # deadline never counts time spent queued behind another unit.
    capacity = n_jobs if task_timeout is not None else 2 * n_jobs

    def settle(unit, attempt, outcomes, error, queue):
        """Record a finished attempt.  A failed multi-member unit is
        split into single-member units, uncharged; a failed single
        member is retried with backoff or charged."""
        if error is None:
            for task, outcome in zip(unit.tasks(), outcomes):
                on_done(task, outcome, None, attempt)
        elif len(unit.members) > 1:
            queue.extend((single, 1) for single in unit.split())
        elif attempt <= retries:
            time.sleep(_retry_delay(attempt + 1))
            queue.append((unit, attempt + 1))
        else:
            on_done(unit.tasks()[0], None, error, attempt)

    def submit(unit, attempt, solo):
        handles = handles_for(unit)
        try:
            future = shared_executor(n_jobs).submit(_run_unit, unit, handles)
        except BrokenProcessPool:  # a worker died since the last wait
            _rebuild_pool()
            future = shared_executor(n_jobs).submit(_run_unit, unit, handles)
        deadline = None
        if task_timeout is not None:
            deadline = time.monotonic() + task_timeout * len(unit.members)
        in_flight[future] = (unit, attempt, deadline, solo)

    while todo or suspects or in_flight:
        if not use_pool:
            unit, attempt = todo.popleft()
            outcomes, error, _delta = _run_unit(unit)
            settle(unit, attempt, outcomes, error, todo)
            continue
        if suspects:
            if not in_flight:
                submit(*suspects.popleft(), solo=True)
        else:
            while todo and len(in_flight) < capacity:
                submit(*todo.popleft(), solo=False)

        deadlines = [d for (_, _, d, _) in in_flight.values() if d is not None]
        wait_timeout = (
            max(0.0, min(deadlines) - time.monotonic()) + 0.01
            if deadlines
            else None
        )
        done, _ = wait(set(in_flight), timeout=wait_timeout,
                       return_when=FIRST_COMPLETED)

        broken = False
        for future in done:
            unit, attempt, _, solo = in_flight.pop(future)
            queue = suspects if solo else todo
            try:
                outcomes, error, delta = future.result()
            except BrokenProcessPool:
                broken = True
                if solo:  # alone on the pool: it killed its worker
                    settle(unit, attempt, None,
                           "task killed its worker process", queue)
                else:  # the dead worker is unattributed: suspect, uncharged
                    suspects.append((unit, attempt))
                continue
            except Exception:  # noqa: BLE001 — surfaced as a task failure
                outcomes, error, delta = None, traceback.format_exc(), None
            counters.merge(delta)
            settle(unit, attempt, outcomes, error, queue)

        now = time.monotonic()
        for future, (unit, attempt, deadline, solo) in list(in_flight.items()):
            if deadline is not None and now >= deadline:
                del in_flight[future]
                if not future.cancel():
                    # Already running: the worker can't be reclaimed,
                    # so the pool gets recycled below.
                    broken = True
                budget = task_timeout * len(unit.members)
                settle(unit, attempt, None,
                       f"task exceeded its {budget}s wall-clock budget",
                       suspects if solo else todo)

        if broken:
            # Everything still in flight was on the broken pool too:
            # it joins the suspects, uncharged.
            suspects.extend((u, a) for u, a, _, _ in in_flight.values())
            in_flight.clear()
            _rebuild_pool()


def _run_grid(
    groups,
    *,
    n_jobs: int | str | None,
    cache: ReplicationCache | None,
    checkpoint: SweepCheckpoint | None,
    retries: int,
    task_timeout: float | None,
    quarantine: bool,
    chunks_per_worker: int = 4,
) -> GridReport:
    """Both grid entry points: checkpoint, then cache, then the loop.

    ``groups`` are ``(cell, members)`` pairs — a :class:`CellTask` with
    its ``(pi, r)`` members, or ``None`` with standalone
    :class:`ReplicationTask` members.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be positive, got {task_timeout}")
    report = GridReport(outcomes={})
    total = sum(len(members) for _, members in groups)

    t0 = time.perf_counter()
    cache_keys: dict[Hashable, str] = {}
    pending = []
    with span("cache_lookup", tasks=total):
        done_cells = checkpoint.load() if checkpoint is not None else {}
        for cell, members in groups:
            todo = []
            for member in members:
                task = member if cell is None else cell.member(*member)
                if task.key in done_cells:
                    report.outcomes[task.key] = done_cells[task.key]
                    report.checkpoint_hits += 1
                    continue
                if cache is not None:
                    ck = cache.task_key(
                        task.config, task.policy_name, task.estimation_error,
                        task.seed,
                    )
                    cache_keys[task.key] = ck
                    hit = cache.get(ck)
                    if hit is not None:
                        report.outcomes[task.key] = hit
                        report.cache_hits += 1
                        if checkpoint is not None:
                            checkpoint.record(task.key, hit)
                        continue
                    report.cache_misses += 1
                todo.append(member)
            if todo:
                pending.append((cell, todo))
    report.timings["cache_lookup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    failures: list[TaskFailure] = []

    def on_done(task, outcome, error, attempts):
        report.retried += attempts - 1
        if error is not None:
            failures.append(
                TaskFailure(
                    key=task.key,
                    policy_name=task.policy_name,
                    attempts=attempts,
                    error=error,
                )
            )
            return
        report.outcomes[task.key] = outcome
        if cache is not None:
            cache.put(cache_keys[task.key], outcome)
        if checkpoint is not None:
            checkpoint.record(task.key, outcome)

    n_pending = sum(len(members) for _, members in pending)
    use_pool = task_timeout is not None or (
        n_jobs > 1
        and n_pending > 1
        and (
            n_pending > _AUTO_SERIAL_TASKS
            or retries > 0
            or _TEST_WORKER_HOOK is not None
        )
    )
    knobs = dict(
        n_jobs=n_jobs, use_pool=use_pool, retries=retries,
        task_timeout=task_timeout,
    )
    for cell, members in pending:
        if cell is None:
            # Chunked submission amortizes pickling overhead while
            # keeping enough chunks in flight to balance uneven tasks.
            size = (
                max(1, len(members) // (chunks_per_worker * n_jobs))
                if use_pool
                else 1
            )
            units = [
                _Unit(None, tuple(members[i:i + size]))
                for i in range(0, len(members), size)
            ]
            _schedule(units, on_done, **knobs)
            continue
        # Slice by replication chunks, one per worker, keeping every
        # policy of a replication in the same slice: the batched replay
        # can then dedup identical dispatch plans across policies.
        by_rep: dict[int, list[int]] = {}
        for pi, r in members:
            by_rep.setdefault(r, []).append(pi)
        reps = sorted(by_rep)
        n_chunks = min(n_jobs, len(reps)) if use_pool else 1
        units = [
            _Unit(cell, tuple((pi, r) for r in reps[i::n_chunks]
                              for pi in by_rep[r]))
            for i in range(n_chunks)
        ]
        fast = _cell_fast_indices(cell.config, cell.policies())
        # Cells run back to back, so at most one cell's streams are
        # resident in shared memory; the parent owns and always unlinks
        # every segment, even when a worker crashes.
        with SharedStreamPool() as shared:
            handles: dict = {}

            def handles_for(unit):
                reps = sorted({r for pi, r in unit.members if pi in fast})
                for r in reps:
                    if r not in handles:
                        handles[r] = shared.share(cell.config, cell.seeds[r])
                return [(r, handles[r]) for r in reps]

            _schedule(units, on_done, handles_for=handles_for, **knobs)
    report.timings["simulate"] = time.perf_counter() - t0

    if failures:
        report.failures = failures
        if not quarantine:
            raise GridTaskError(failures, total)
    return report


def run_replication_grid(
    tasks: Iterable[ReplicationTask],
    *,
    n_jobs: int | str | None = None,
    cache: ReplicationCache | None = None,
    chunks_per_worker: int = 4,
    retries: int = 0,
    task_timeout: float | None = None,
    quarantine: bool = False,
    checkpoint: SweepCheckpoint | None = None,
) -> GridReport:
    """Run standalone replication tasks: the per-replication oracle.

    Every task runs :func:`~repro.core.evaluate.run_policy_once` on its
    own, so this grid pins the cell-batched :func:`run_cell_grid`, which
    shares task keys and cache entries with it.  Results are keyed by
    ``task.key``; with the same seeds the outcome is bit-identical to
    running the tasks serially.  Parallel runs submit chunks of about
    ``len(tasks) / (chunks_per_worker * n_jobs)`` tasks.  Failures and
    the hardening knobs behave as described in the module docstring.
    """
    return _run_grid(
        [(None, list(tasks))],
        n_jobs=n_jobs, cache=cache, checkpoint=checkpoint, retries=retries,
        task_timeout=task_timeout, quarantine=quarantine,
        chunks_per_worker=chunks_per_worker,
    )


def run_cell_grid(
    cells: Iterable[CellTask],
    *,
    n_jobs: int | str | None = None,
    cache: ReplicationCache | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    quarantine: bool = False,
    checkpoint: SweepCheckpoint | None = None,
) -> GridReport:
    """Run sweep cells whole: one stream materialization per replication.

    Member outcomes are keyed ``(cell.x, policy_name, r)`` with the same
    cache keys as :func:`run_replication_grid`, so results, caches, and
    checkpoints are interchangeable between the two — and with the same
    seeds the outcomes are bit-identical.  In-process a cell runs as one
    slice; parallel runs fan it out one replication-chunk slice per
    worker and ship each replication's streams through shared memory.
    Retries, timeouts and quarantine work per member, as described in
    the module docstring.
    """
    return _run_grid(
        [
            (cell, [(pi, r) for pi in range(len(cell.policy_names))
                    for r in range(len(cell.seeds))])
            for cell in cells
        ],
        n_jobs=n_jobs, cache=cache, checkpoint=checkpoint, retries=retries,
        task_timeout=task_timeout, quarantine=quarantine,
    )


def evaluate_policy_parallel(
    config: SimulationConfig,
    policy_name: str,
    *,
    estimation_error: float | None = None,
    replications: int = 10,
    base_seed: int = DEFAULT_BASE_SEED,
    confidence: float = 0.95,
    n_jobs: int = 2,
    cache: ReplicationCache | None = None,
) -> PolicyEvaluation:
    """Replicated evaluation spread over *n_jobs* worker processes.

    Runs one single-policy :class:`CellTask` through
    :func:`run_cell_grid`, on the shared pool; the result is
    bit-identical to the serial
    :func:`~repro.core.evaluate.evaluate_policy` with the same seeds.
    ``policy_name`` (plus the optional Figure 6 ``estimation_error``)
    must resolve through :func:`repro.core.policies.get_policy` — the
    policy is rebuilt inside each worker, so custom
    :class:`~repro.core.policies.SchedulingPolicy` instances must use
    the serial evaluator.  The default ``base_seed`` is the sweep
    harness's (2000).  Pass a :class:`~repro.core.cache.ReplicationCache`
    to reuse completed replications across invocations.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    # Validate the name up front (fail fast in the parent process).
    policy = get_policy(policy_name, estimation_error=estimation_error)
    cell = CellTask(
        x=None,
        config=config,
        policy_names=(policy.name,),
        base_names=(policy_name,),
        estimation_errors=(estimation_error,),
        seeds=tuple(replication_seeds(base_seed, replications)),
    )
    report = run_cell_grid([cell], n_jobs=n_jobs, cache=cache)
    outcomes = [report.outcomes[cell.member_key(0, r)] for r in range(replications)]
    return summarize_outcomes(policy.name, config, outcomes, confidence=confidence)
