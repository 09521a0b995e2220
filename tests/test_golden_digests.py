"""Golden seed-stability digests: pinned SHAs over packed result vectors.

The simulation digests below are the SHA-256 of the little-endian
float64 bytes of the pinned-config result vectors (see
:mod:`repro.obs.digest`); the serve and net digests at the end hash
canonical report JSON.  They freeze two things at once:

* **seed stability** — the RNG layout (base_seed 2000, spawn-key
  substreams) keeps producing the same trajectories release to release;
* **cross-path bit-identity** — the default cell-batched sweep, the
  serial and parallel hardened sweeps (retries and quarantine on), and
  the pure-Python PS kernel must all hash to the same digest, not
  merely be "close".

If a digest changes legitimately (an intentional RNG or kernel-order
change), recompute it with the corresponding ``run_*``/digest call and
update the constant — and bump ``KERNEL_VERSION`` if replay bits moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import get_policy
from repro.core.evaluate import run_policy_once
from repro.distributions import distribution_from_mean_cv
from repro.experiments.base import SCALES
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.faults import FaultConfig, FaultEvent, RetryPolicy
from repro.net import run_in_process
from repro.obs.digest import figure2_digest, results_digest, sweep_digest
from repro.rng import replication_seeds
from repro.service import (
    SchedulerService,
    ServiceCheckpoint,
    ServiceConfig,
    SyntheticJobSource,
)
from repro.sim import SimulationConfig, ckernel
from repro.sim.arrivals import Workload
from repro.sim.modulated import step_profile

SMOKE = SCALES["smoke"]
FIGURE3_KWARGS = dict(fast_speeds=(1.0, 10.0), policies=("WRR", "ORR"))
HARDENED = dict(retries=1, quarantine=True)

#: SHA-256 of the figure3 smoke subset (2 points x WRR/ORR x 2 reps).
FIGURE3_SMOKE_DIGEST = (
    "946e55683b6f73e4d06256288a60a38ffb46ee7d66c47d97887e7ea151a0c97a"
)
#: SHA-256 of the figure2 smoke deviation series (round-robin + random).
FIGURE2_SMOKE_DIGEST = (
    "1e49e7190c02216636e14be0a08dc17127c5d540a5db4ed7198a6f1ba32fe954"
)
#: SHA-256 of one pinned ORR replication (speeds 1,1,10 at rho=0.7),
#: one constant per server discipline.
SINGLE_REPLICATION_DIGESTS = {
    "ps": "e037a940ceeec49cb288dbf2c2699abaa73e348e3c289a120645ca6a5dca7b4b",
    "fcfs": "a2505283561f906f2a670bf792ca8aaea2cf67363e968f2f823bfdf7c82b3407",
}
#: SHA-256 over the ``results_digest`` of two LEAST_LOAD replications
#: (speeds 1,2,2,10 at rho=0.8, smoke horizon, paper feedback delays),
#: one constant per server discipline.
LEAST_LOAD_DIGESTS = {
    "ps": "d8a6f011f39f44018de5c823b33a8c999bbbadaf9f35633da945eaa0122b8d5e",
    "fcfs": "83e926b67102ace01ab2d4bd7ae74d0772180959a5b132f2e5cff314ace38a6f",
}


class TestFigure3GoldenDigest:
    def test_serial_hardened_sweep(self):
        result = run_figure3(SMOKE, **HARDENED, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST

    def test_parallel_grid(self):
        result = run_figure3(SMOKE, n_jobs=2, **HARDENED, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST

    def test_default_cell_sweep(self):
        result = run_figure3(SMOKE, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST

    def test_python_kernel(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_fns", False)  # force the Python loop
        result = run_figure3(SMOKE, **HARDENED, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST


class TestOtherGoldenDigests:
    def test_figure2_deviations(self):
        assert figure2_digest(run_figure2("smoke")) == FIGURE2_SMOKE_DIGEST

    def test_single_replication(self):
        for discipline, digest in SINGLE_REPLICATION_DIGESTS.items():
            assert _single_replication_digest(discipline) == digest, discipline

    def test_single_replication_python_kernel(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_fns", False)  # force the numpy path
        for discipline, digest in SINGLE_REPLICATION_DIGESTS.items():
            assert _single_replication_digest(discipline) == digest, discipline


def _single_replication_digest(discipline: str) -> str:
    config = SimulationConfig(
        speeds=(1.0, 1.0, 10.0), utilization=0.7,
        duration=SMOKE.duration, warmup=SMOKE.warmup, discipline=discipline,
    )
    result = run_policy_once(config, get_policy("ORR"), seed=SMOKE.base_seed)
    return results_digest(result)


def _least_load_digest(discipline: str) -> str:
    config = SimulationConfig(
        speeds=(1.0, 2.0, 2.0, 10.0), utilization=0.8,
        duration=SMOKE.duration, warmup=SMOKE.warmup, discipline=discipline,
    )
    digests = [
        results_digest(run_policy_once(config, get_policy("LEAST_LOAD"), seed=s))
        for s in replication_seeds(SMOKE.base_seed, 2)
    ]
    return hashlib.sha256("".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("discipline", ["ps", "fcfs"])
class TestLeastLoadGoldenDigest:
    """The Dynamic Least-Load yardstick: compiled loop == Python engine."""

    def test_default_path(self, discipline):
        assert _least_load_digest(discipline) == LEAST_LOAD_DIGESTS[discipline]

    def test_python_engine(self, discipline, monkeypatch):
        monkeypatch.setattr(ckernel, "_fns", False)  # force the Python engine
        assert _least_load_digest(discipline) == LEAST_LOAD_DIGESTS[discipline]


# ----------------------------------------------------------------------
# Serve and net report digests
# ----------------------------------------------------------------------
#
# SHA-256 of the canonical ``as_dict()`` JSON (sorted keys, compact
# separators) of pinned serving runs.  They freeze every window record
# of the service loop in its three modes (vectorized, reference,
# fault-mode) and of the networked orchestrator (sharded, kill, and
# kill+rejoin), so any refactor of the window step that moves a bit
# fails here.  The fault-mode and net digests leave out
# ``time_averaged_mrt``: it is derived from the window records, which
# stay pinned, and its weighting rule is tested on its own in
# ``tests/test_service_faults.py``.

#: Fault-free serve on a stepped workload (vectorized == reference).
SERVE_DIGEST = (
    "835660adde2280c582ff5d35d43a31caeeb85c808543517483a3db63553aeac6"
)
#: Serve with SLO-targeted admission shedding engaged.
SERVE_SLO_DIGEST = (
    "36da29439556b353be461ba34984e279a8fe1e3de4126cdef0b8c1e6d78c7527"
)
#: Fault-mode serve (MTBF 300, MTTR 100, retries), MRT summary dropped.
SERVE_FAULTS_DIGEST = (
    "6a5baa5d5f143b8da0cbc1e9659f7b317ee39be44035fef1d8f68f7aa3a91470"
)
#: Fault-mode serve with degradation episodes on top of failures.
SERVE_DEGRADE_DIGEST = (
    "1303f8b689972a449936a61e0bc97bd814e4095ea2c0d17f001121f183804c85"
)
#: Fault-mode serve that loses bounced jobs instead of retrying them.
SERVE_LOSE_DIGEST = (
    "93318b910123020115b7c3f07132970e4857cf1fa66d0eee3d40f5c7588a9f49"
)
#: A scripted DOWN/UP/DEGRADE timeline whose events land exactly on
#: arrival timestamps (the arrival-then-event tie-break).
SERVE_TIES_DIGEST = (
    "f9263bdbb19bc06e771f3947a1bdea1b5d60f81ce894fa63a17b54273d050bd3"
)
#: A scripted total outage: every server down at once, then back.
SERVE_OUTAGE_DIGEST = (
    "cd138866d7b27762d4ec944f1a84a740b93c571290f67d08e60f4228f46958f2"
)
#: Two-shard in-process net run, one report per shard.
NET_SHARDED_DIGEST = (
    "b905c450d0ca261578d52d3b87dd55c8d11a93cc1ae2dad0c50106e9a6aff375"
)
#: In-process net run with server 2 killed after window 9.
NET_KILL_DIGEST = (
    "5c87ec7d7299de433d5e217545e778206c8c15f0a101d4f5a49ac3547d92877a"
)
#: The kill run with server 2 re-registering for window 14.
NET_REJOIN_DIGEST = (
    "9df05e975168b1dd7c90f98bf373527dbae22f74eaaabe35434cf268539cbf2e"
)

SERVE_SPEEDS = (1.0, 2.0, 3.0)
DEGRADE_CHECKPOINT = Path(__file__).with_name("data") / "serve_degrade_checkpoint.jsonl"
NET_SPEEDS = (1.0, 2.0, 3.0, 2.0)


def _report_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _without_mrt(report) -> dict:
    out = report.as_dict()
    del out["time_averaged_mrt"]
    return out


def _source(speeds, rho, seed, profile=None):
    workload = Workload(
        total_speed=sum(speeds),
        utilization=rho,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
        rate_profile=profile,
    )
    return SyntheticJobSource(workload, seed)


def _serve_config(**kw):
    kw.setdefault("speeds", SERVE_SPEEDS)
    kw.setdefault("duration", 2000.0)
    kw.setdefault("control_period", 100.0)
    return ServiceConfig(**kw)


def _degrade_config():
    return _serve_config(
        speeds=NET_SPEEDS,
        faults=FaultConfig(mtbf=400.0, mttr=100.0, degrade_rate=0.002,
                           degrade_duration=50.0),
    )


def _step_source():
    return _source(
        SERVE_SPEEDS, 0.5, 1,
        step_profile(step_time=1000.0, factor=1.5, horizon=2000.0),
    )


def _net_config():
    return ServiceConfig(
        speeds=NET_SPEEDS, duration=2000.0, control_period=100.0
    )


class TestServeGoldenDigests:
    def test_fault_free(self):
        report = SchedulerService(_serve_config(), _step_source()).run()
        assert report.swaps > 0
        assert _report_digest(report.as_dict()) == SERVE_DIGEST

    def test_reference_path(self):
        report = SchedulerService(
            _serve_config(), _step_source(), reference=True
        ).run()
        assert _report_digest(report.as_dict()) == SERVE_DIGEST

    def test_slo_shedding(self):
        report = SchedulerService(
            _serve_config(slo_target=4.0), _source(SERVE_SPEEDS, 0.9, 5)
        ).run()
        assert report.jobs_shed > 0
        assert _report_digest(report.as_dict()) == SERVE_SLO_DIGEST

    def test_fault_mode(self):
        config = _serve_config(
            speeds=NET_SPEEDS, faults=FaultConfig(mtbf=300.0, mttr=100.0)
        )
        report = SchedulerService(config, _source(NET_SPEEDS, 0.6, 21)).run()
        assert report.jobs_retried > 0
        assert _report_digest(_without_mrt(report)) == SERVE_FAULTS_DIGEST

    def test_degradation(self):
        report = SchedulerService(
            _degrade_config(), _source(NET_SPEEDS, 0.6, 21)
        ).run()
        assert report.jobs_retried > 0
        assert _report_digest(_without_mrt(report)) == SERVE_DEGRADE_DIGEST

    def test_checkpoint_from_earlier_release_resumes(self):
        # Written by the per-job fault window after window 15 of the
        # degradation run: servers down, a degraded server, retries
        # pending and jobs in flight.
        state = ServiceCheckpoint(DEGRADE_CHECKPOINT).load_last()
        assert state["next_window"] == 15 and state["pending"]
        assert any(state["degrade_level"]) and not all(state["bank"]["up"])
        service = SchedulerService(
            _degrade_config(), _source(NET_SPEEDS, 0.6, 21)
        )
        service.restore(state)
        report = service.run()
        assert _report_digest(_without_mrt(report)) == SERVE_DEGRADE_DIGEST

    def test_lose_mode(self):
        config = _serve_config(
            speeds=NET_SPEEDS,
            faults=FaultConfig(mtbf=300.0, mttr=100.0, on_failure="lose"),
        )
        report = SchedulerService(config, _source(NET_SPEEDS, 0.6, 21)).run()
        assert report.jobs_lost > 0 and report.jobs_retried == 0
        assert _report_digest(_without_mrt(report)) == SERVE_LOSE_DIGEST

    def test_events_on_arrival_timestamps(self):
        # Arrival times exactly as the service draws them, one window at
        # a time (a single long draw differs in the last bits).
        source = _source(NET_SPEEDS, 0.6, 21)
        times = np.concatenate(
            [source.jobs_until(100.0 * k)[0] for k in range(1, 21)]
        )
        # Short outages inside one window (the sequence still targets the
        # server when it rejoins) and a degradation factor that is not a
        # power of two, so a job's side of each tie shows in the bits.
        script = [
            (300, "down", 1), (306, "up", 1), (500, "degrade_start", 2),
            (1100, "degrade_end", 2), (1500, "down", 3),
            (1500, "degrade_start", 0), (1504, "up", 3), (2000, "down", 2),
            (2003, "up", 2), (2600, "degrade_end", 0), (3000, "down", 0),
            (3005, "up", 0),
        ]
        events = [FaultEvent(float(times[i]), kind, srv) for i, kind, srv in script]
        report = SchedulerService(
            _serve_config(speeds=NET_SPEEDS, faults=FaultConfig(degrade_factor=0.3)),
            _source(NET_SPEEDS, 0.6, 21), fault_events=events,
        ).run()
        assert report.membership_changes == 8
        assert _report_digest(_without_mrt(report)) == SERVE_TIES_DIGEST

    def test_total_outage(self):
        events = [FaultEvent(t, kind, srv)
                  for t, kind in ((850.0, "down"), (1100.0, "up"))
                  for srv in range(len(NET_SPEEDS))]
        config = _serve_config(
            speeds=NET_SPEEDS,
            faults=FaultConfig(retry=RetryPolicy(max_attempts=3)),
        )
        report = SchedulerService(
            config, _source(NET_SPEEDS, 0.6, 21), fault_events=events
        ).run()
        assert report.jobs_lost > 0 and report.jobs_retried > 0
        assert min(w.servers_up for w in report.windows) == 0
        assert _report_digest(_without_mrt(report)) == SERVE_OUTAGE_DIGEST


class TestNetGoldenDigests:
    def test_two_shards_in_process(self):
        net = run_in_process(
            _net_config(), _source(NET_SPEEDS, 0.6, 21), n_shards=2
        )
        payload = [_without_mrt(r) for r in net.reports]
        assert _report_digest(payload) == NET_SHARDED_DIGEST

    def test_kill(self):
        net = run_in_process(
            _net_config(), _source(NET_SPEEDS, 0.6, 21), kill={2: 9}
        )
        assert net.report.jobs_lost > 0
        assert _report_digest(_without_mrt(net.report)) == NET_KILL_DIGEST

    def test_kill_and_rejoin(self):
        net = run_in_process(
            _net_config(), _source(NET_SPEEDS, 0.6, 21),
            kill={2: 9}, rejoin={2: 14},
        )
        assert net.report.membership_changes == 2
        assert _report_digest(_without_mrt(net.report)) == NET_REJOIN_DIGEST
