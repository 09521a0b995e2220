"""The segmented fault-mode window against the per-job oracle.

:class:`fault_oracle.PerJobFaultService` runs the original job-at-a-time
fault window.  :class:`~repro.service.SchedulerService` must produce the
same report (``as_dict``, every bit) and the same checkpoint after every
window (``state_dict``, byte for byte as JSON) on random scripted
timelines — events on arrival timestamps and window boundaries, total
outages, degradation stacks — random retry policies, ``max_attempts``
exhaustion and ``on_failure="lose"``, with the compiled dispatch kernel
and on the Python fallback.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions import distribution_from_mean_cv
from repro.faults.models import (
    DEGRADE_END,
    DEGRADE_START,
    DOWN,
    UP,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.service import SchedulerService, ServiceConfig, SyntheticJobSource
from repro.sim import ckernel
from repro.sim.arrivals import Workload

from .fault_oracle import PerJobFaultService

SPEEDS = (1.0, 2.0, 3.0, 2.0)
PERIOD = 50.0
KINDS = (DOWN, UP, DEGRADE_START, DEGRADE_END)


@contextmanager
def kernel_mode(compiled: bool):
    """Run the block on the compiled kernel or on the Python fallback."""
    saved = ckernel._fns
    if not compiled:
        ckernel._fns = False
    try:
        yield
    finally:
        ckernel._fns = saved


class _Snapshots(list):
    """A checkpoint sink that keeps every snapshot as canonical JSON."""

    def append(self, state: dict) -> None:
        super().append(json.dumps(state, sort_keys=True))


def _source(utilization, seed):
    """Mean-1 exponential sizes: a few jobs per time unit at these loads."""
    workload = Workload(
        total_speed=sum(SPEEDS), utilization=utilization,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SyntheticJobSource(workload, seed)


def _run(cls, config, seed, utilization, events):
    snapshots = _Snapshots()
    service = cls(
        config,
        _source(utilization, seed),
        fault_events=None if events is None else list(events),
        checkpoint=snapshots,
        checkpoint_every=1,
    )
    report = service.run()
    n_windows = len(report.windows)
    snapshots.append(service.state_dict(n_windows, report))
    return json.dumps(report.as_dict(), sort_keys=True), list(snapshots)


retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=5),
    base_delay=st.sampled_from([0.0, 0.5, 3.0, 40.0]),
    backoff=st.sampled_from([1.0, 2.0, 3.5]),
    max_delay=st.just(60.0),
)


@st.composite
def scenarios(draw):
    duration = draw(st.sampled_from([300.0, 450.0, 650.0]))
    utilization = draw(st.sampled_from([0.4, 0.7, 0.95]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    faults = FaultConfig(
        on_failure=draw(st.sampled_from(["retry", "retry", "lose"])),
        retry=draw(retry_policies),
        # Powers of two rescale exactly, which would hide on which side of
        # a degradation a tied arrival dispatched.
        degrade_factor=draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
    )
    if draw(st.booleans()):
        # A pre-generated Markov timeline (failures and degradation).
        faults = FaultConfig(
            mtbf=draw(st.sampled_from([60.0, 150.0, 400.0])),
            mttr=draw(st.sampled_from([10.0, 40.0])),
            degrade_rate=draw(st.sampled_from([0.0, 0.01])),
            degrade_duration=20.0,
            on_failure=faults.on_failure,
            retry=faults.retry,
            degrade_factor=faults.degrade_factor,
        )
        return duration, utilization, seed, faults, None
    # Arrival times exactly as the service draws them, window by window.
    source = _source(utilization, seed)
    arrivals = np.concatenate([
        source.jobs_until(min(k * PERIOD, duration))[0]
        for k in range(1, int(np.ceil(duration / PERIOD)) + 1)
    ])
    instants = st.one_of(
        st.floats(min_value=0.0, max_value=duration),
        st.integers(0, int(duration / PERIOD)).map(lambda k: k * PERIOD),
        st.integers(0, arrivals.size - 1).map(lambda i: float(arrivals[i])),
    )
    events = draw(st.lists(
        st.builds(
            FaultEvent,
            time=instants,
            kind=st.sampled_from(KINDS),
            server=st.integers(0, len(SPEEDS) - 1),
        ),
        max_size=30,
    ))
    if draw(st.booleans()):
        # A total outage on top of whatever else was drawn.
        t = draw(instants)
        events += [FaultEvent(t, DOWN, s) for s in range(len(SPEEDS))]
        events += [FaultEvent(t + draw(st.sampled_from([5.0, 80.0])), UP, s)
                   for s in range(len(SPEEDS))]
    return duration, utilization, seed, faults, events


@pytest.mark.parametrize("compiled", [True, False], ids=["ckernel", "python"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_segmented_window_matches_per_job_oracle(compiled, scenario):
    duration, utilization, seed, faults, events = scenario
    config = ServiceConfig(
        speeds=SPEEDS, duration=duration, control_period=PERIOD,
        faults=faults, fault_seed=seed,
    )
    with kernel_mode(compiled):
        report, snapshots = _run(
            SchedulerService, config, seed, utilization, events
        )
    oracle_report, oracle_snapshots = _run(
        PerJobFaultService, config, seed, utilization, events
    )
    assert report == oracle_report
    assert snapshots == oracle_snapshots


def test_oracle_exercises_every_fault_path():
    """The scenario family reaches bounces, losses, retries and degrades."""
    events = [
        FaultEvent(120.0, DOWN, 2), FaultEvent(130.0, DEGRADE_START, 1),
        FaultEvent(200.0, DOWN, 0), FaultEvent(200.0, DOWN, 1),
        FaultEvent(200.0, DOWN, 3), FaultEvent(260.0, UP, 0),
        FaultEvent(260.0, UP, 1), FaultEvent(260.0, UP, 2),
        FaultEvent(260.0, UP, 3), FaultEvent(300.0, DEGRADE_END, 1),
    ]
    config = ServiceConfig(
        speeds=SPEEDS, duration=600.0, control_period=PERIOD,
        faults=FaultConfig(retry=RetryPolicy(max_attempts=2)),
    )
    report, snapshots = _run(SchedulerService, config, 3, 0.9, events)
    oracle_report, oracle_snapshots = _run(
        PerJobFaultService, config, 3, 0.9, events
    )
    assert report == oracle_report and snapshots == oracle_snapshots
    parsed = json.loads(report)
    assert parsed["jobs_lost"] > 0 and parsed["jobs_retried"] > 0
    assert min(w["servers_up"] for w in parsed["windows"]) == 0
    assert any(
        json.loads(s)["degrade_level"][1] for s in snapshots
    ) and np.isfinite(parsed["p99"])
