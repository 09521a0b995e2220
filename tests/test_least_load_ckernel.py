"""The compiled Least-Load loop against the Python event engine.

``run_simulation`` hands fault-free Dynamic Least-Load over PS/FCFS
servers to ``least_load_run`` in ``_pskernel.c``; the Python engine is
the oracle.  Every field of :class:`SimulationResults` must match bit
for bit, the feedback generator must end in the same state (untouched
in the oracle-feedback case), and every ineligible configuration must
still run on the Python engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch import LeastLoadDispatcher, PowerOfDChoicesDispatcher
from repro.distributions import Deterministic, distribution_from_mean_cv
from repro.faults import FaultConfig
from repro.obs import counters
from repro.rng import StreamFactory, substream
from repro.sim import SimulationConfig, ckernel, engine, run_simulation
from repro.sim.feedback import FeedbackModel
from repro.sim.modulated import step_profile
from repro.sim.sampling import QueueSampler

pytestmark = pytest.mark.skipif(
    ckernel.least_load_fn() is None, reason="compiled Least-Load loop unavailable"
)

ORACLE = FeedbackModel(detection_window=0.0, message_delay_mean=0.0)
SIZES = {
    "exp": distribution_from_mean_cv(1.0, 1.0),
    "h2": distribution_from_mean_cv(1.0, 3.0),
    "det": Deterministic(1.0),
}


class _RecordingFactory(StreamFactory):
    """StreamFactory that remembers every instance the engine builds."""

    made: list = []

    def __init__(self, seed):
        super().__init__(seed)
        _RecordingFactory.made.append(self)


def _run(config, seed, *, python, monkeypatch, record_trace=False):
    """One replication and the final state of its feedback generator."""
    _RecordingFactory.made = []
    with monkeypatch.context() as m:
        m.setattr(engine, "StreamFactory", _RecordingFactory)
        if python:
            m.setattr(ckernel, "_fns", False)
        with counters.scoped() as delta:
            result = run_simulation(
                config, LeastLoadDispatcher(config.speeds), seed=seed,
                record_trace=record_trace,
            )
    (factory,) = _RecordingFactory.made
    feedback = factory._cache["feedback"].bit_generator.state
    backend = "engine" if python else "c"
    assert delta[counters.key(
        "engine.engaged", policy="least_load", backend=backend
    )] == 1
    return result, feedback


def _assert_identical(a, b):
    assert a.metrics == b.metrics
    assert a.servers == b.servers
    assert a.total_arrivals == b.total_arrivals
    assert a.duration == b.duration and a.warmup == b.warmup
    assert np.array_equal(a.dispatch_fractions, b.dispatch_fractions)
    assert a.faults is None and b.faults is None
    if a.trace is None:
        assert b.trace is None
    else:
        assert np.array_equal(a.trace.times, b.trace.times)
        assert np.array_equal(a.trace.targets, b.trace.targets)


@settings(max_examples=40, deadline=None)
@given(
    speeds=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 10.0]),
                    min_size=1, max_size=5),
    rho=st.floats(0.2, 0.95),
    discipline=st.sampled_from(["ps", "fcfs"]),
    drain=st.booleans(),
    warmup_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    feedback=st.sampled_from(["paper", "oracle"]),
    sizes=st.sampled_from(sorted(SIZES)),
    arrival_cv=st.sampled_from([0.0, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_loop_matches_python_engine(
    speeds, rho, discipline, drain, warmup_fraction, feedback, sizes,
    arrival_cv, seed,
):
    duration = 400.0
    config = SimulationConfig(
        speeds=tuple(speeds), utilization=rho, duration=duration,
        warmup=warmup_fraction * duration, discipline=discipline,
        drain=drain, size_distribution=SIZES[sizes], arrival_cv=arrival_cv,
        feedback=FeedbackModel() if feedback == "paper" else ORACLE,
    )
    with pytest.MonkeyPatch.context() as mp:
        compiled, fb_c = _run(config, seed, python=False, monkeypatch=mp)
        python, fb_py = _run(config, seed, python=True, monkeypatch=mp)
    _assert_identical(compiled, python)
    assert fb_c == fb_py
    if feedback == "oracle":
        assert fb_c == substream(seed, "feedback").bit_generator.state


@pytest.mark.parametrize("discipline", ["ps", "fcfs"])
@pytest.mark.parametrize("speeds", [(1.0, 1.0), (1.0, 1.0, 2.0)])
@pytest.mark.parametrize("feedback", [FeedbackModel(), ORACLE])
def test_exact_time_ties(discipline, speeds, feedback, monkeypatch):
    """Deterministic gaps equal to a service time: departures, arrivals
    and zero-delay load updates land on the very same instants, so the
    (time, kind, seq) event order decides every dispatch."""
    config = SimulationConfig(
        speeds=speeds, utilization=0.5, duration=300.0, warmup=50.0,
        discipline=discipline, size_distribution=Deterministic(1.0),
        arrival_cv=0.0, feedback=feedback,
    )
    compiled, fb_c = _run(config, 1, python=False, monkeypatch=monkeypatch)
    python, fb_py = _run(config, 1, python=True, monkeypatch=monkeypatch)
    _assert_identical(compiled, python)
    assert fb_c == fb_py


@pytest.mark.parametrize("discipline", ["ps", "fcfs"])
def test_paper_workload_with_trace(discipline, monkeypatch):
    config = SimulationConfig(
        speeds=(1.0, 1.0, 2.0, 5.0, 10.0), utilization=0.9,
        duration=2.0e4, discipline=discipline,
    )
    compiled, fb_c = _run(config, 3, python=False, monkeypatch=monkeypatch,
                          record_trace=True)
    python, fb_py = _run(config, 3, python=True, monkeypatch=monkeypatch,
                         record_trace=True)
    assert compiled.total_arrivals > 3000
    _assert_identical(compiled, python)
    assert fb_c == fb_py


def test_dispatcher_left_in_engine_state(monkeypatch):
    config = SimulationConfig(
        speeds=(1.0, 4.0), utilization=0.8, duration=3000.0, drain=False,
    )
    compiled = LeastLoadDispatcher(config.speeds)
    run_simulation(config, compiled, seed=11)
    python = LeastLoadDispatcher(config.speeds)
    monkeypatch.setattr(ckernel, "_fns", False)
    run_simulation(config, python, seed=11)
    assert np.array_equal(compiled.known_queue_lengths,
                          python.known_queue_lengths)
    assert compiled.known_queue_lengths.sum() > 0  # cut cold at the horizon


BASE = SimulationConfig(speeds=(1.0, 2.0, 5.0), utilization=0.6,
                        duration=1500.0)


@pytest.mark.parametrize(
    "config, dispatcher, kwargs",
    [
        pytest.param(
            SimulationConfig(speeds=BASE.speeds, utilization=0.6,
                             duration=1500.0,
                             faults=FaultConfig(mtbf=500.0, mttr=50.0)),
            "least_load", {}, id="faults"),
        pytest.param(BASE, "least_load",
                     {"sampler": QueueSampler(100.0)}, id="sampler"),
        pytest.param(
            SimulationConfig(speeds=BASE.speeds, utilization=0.6,
                             duration=1500.0, discipline="rr_quantum",
                             quantum=5.0),
            "least_load", {}, id="rr_quantum"),
        pytest.param(
            SimulationConfig(speeds=BASE.speeds, utilization=0.6,
                             duration=1500.0,
                             rate_profile=step_profile(700.0, 1.3, 1500.0)),
            "least_load", {}, id="rate_profile"),
        pytest.param(BASE, "jsq2", {}, id="jsq2"),
    ],
)
def test_ineligible_configs_take_the_python_engine(config, dispatcher, kwargs):
    if dispatcher == "least_load":
        d = LeastLoadDispatcher(config.speeds)
    else:
        d = PowerOfDChoicesDispatcher(config.speeds, 2,
                                      np.random.default_rng(0))
    with counters.scoped() as delta:
        run_simulation(config, d, seed=4, **kwargs)
    engaged = {k: v for k, v in delta.items() if k.startswith("engine.engaged")}
    assert engaged == {
        counters.key("engine.engaged", policy=d.name, backend="engine"): 1
    }


def test_disabled_kernel_takes_the_python_engine(monkeypatch):
    monkeypatch.setattr(ckernel, "_fns", False)
    with counters.scoped() as delta:
        run_simulation(BASE, LeastLoadDispatcher(BASE.speeds), seed=4)
    assert delta.get(counters.key(
        "engine.engaged", policy="least_load", backend="engine")) == 1
    assert not any("backend=c" in k for k in delta)


def test_wrapper_rejects_mismatched_buffers():
    fn = ckernel.least_load_fn()
    times = np.array([1.0, 2.0])
    sizes = np.array([1.0, 1.0])
    speeds = np.array([1.0, 2.0])
    rest = (10.0, 0.0, True, None, 0.0, 0.0)  # duration ... delay_mean
    with pytest.raises(ValueError, match="sizes"):
        ckernel.run_least_load_c(fn, times, sizes[:1], speeds, True, speeds,
                                 np.zeros(2, dtype=np.int64), *rest)
    with pytest.raises(ValueError, match="known queues"):
        ckernel.run_least_load_c(fn, times, sizes, speeds, True, speeds,
                                 np.zeros(2, dtype=np.int32), *rest)
    with pytest.raises(ValueError, match="targets"):
        ckernel.run_least_load_c(fn, times, sizes, speeds, True, speeds,
                                 np.zeros(2, dtype=np.int64), *rest,
                                 targets=np.empty(1, dtype=np.int64))
