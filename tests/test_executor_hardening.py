"""Tests for executor hardening: retries, timeouts, crash recovery,
quarantine, and sweep checkpointing.

Crash/stall injection uses the module-level ``_TEST_WORKER_HOOK`` seam:
set before the pool forks, it runs inside each worker once per member
ahead of the real work.  Hooks coordinate through flag files so a task
can fail exactly once and then succeed — the retry path must finish the
job.  The same hooks drive both grids: the per-replication oracle and
the cell grid every sweep runs on.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import executor as ex
from repro.core.checkpoint import SweepCheckpoint
from repro.core.executor import (
    CellTask,
    GridTaskError,
    ReplicationTask,
    TaskFailure,
    run_cell_grid,
    run_replication_grid,
    shutdown_shared_executor,
)
from repro.rng import replication_seeds
from repro.sim import SimulationConfig

SMOKE = dict(speeds=(1.0, 1.0, 10.0), utilization=0.6, duration=5.0e3)


def _tasks(policies=("ORR",), replications=2):
    config = SimulationConfig(**SMOKE)
    seeds = replication_seeds(2000, replications)
    return [
        ReplicationTask(
            key=(1.0, p, r), config=config, policy_name=p,
            estimation_error=None, seed=seed,
        )
        for p in policies
        for r, seed in enumerate(seeds)
    ]


@pytest.fixture
def worker_hook():
    """Install a worker hook with a clean pool; restore both after."""
    shutdown_shared_executor()

    def install(hook):
        ex._TEST_WORKER_HOOK = hook

    yield install
    ex._TEST_WORKER_HOOK = None
    shutdown_shared_executor()


def _crash_once_hook(flag: str, victim_key, sig=None):
    """Crash (or raise) the first time *victim_key* is seen."""

    def hook(task):
        if task.key == victim_key and not os.path.exists(flag):
            with open(flag, "w") as fh:
                fh.write("crashed")
            if sig is None:
                raise RuntimeError("injected task failure")
            os.kill(os.getpid(), sig)

    return hook


class TestRetries:
    def test_serial_retry_recovers(self, worker_hook, tmp_path):
        tasks = _tasks()
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[0].key))
        report = run_replication_grid(tasks, n_jobs=1, retries=2)
        assert report.retried == 1
        assert set(report.outcomes) == {t.key for t in tasks}

    def test_serial_no_retries_still_aggregates_error(self, worker_hook,
                                                      tmp_path):
        tasks = _tasks()
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[0].key))
        with pytest.raises(GridTaskError, match="grid tasks failed"):
            run_replication_grid(tasks, n_jobs=1)

    def test_parallel_retry_recovers(self, worker_hook, tmp_path):
        tasks = _tasks(replications=3)
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[1].key))
        report = run_replication_grid(tasks, n_jobs=2, retries=2)
        assert report.retried >= 1
        assert set(report.outcomes) == {t.key for t in tasks}

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_replication_grid(_tasks(), retries=-1)


class TestCrashRecovery:
    def test_killed_worker_matches_undisturbed_run(self, worker_hook,
                                                   tmp_path):
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        undisturbed = run_replication_grid(tasks, n_jobs=1)

        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[2].key, sig=signal.SIGKILL))
        report = run_replication_grid(tasks, n_jobs=2, retries=2)

        assert os.path.exists(flag)  # the kill really happened
        assert set(report.outcomes) == set(undisturbed.outcomes)
        for key, expected in undisturbed.outcomes.items():
            got = report.outcomes[key]
            assert got[:4] == expected[:4]
            np.testing.assert_array_equal(got[4], expected[4])

    def test_unrecoverable_crash_raises_structured_error(self, worker_hook):
        def always_die(task):
            if task.key[1] == "WRR":
                os.kill(os.getpid(), signal.SIGKILL)

        tasks = _tasks(policies=("ORR", "WRR"), replications=1)
        worker_hook(always_die)
        with pytest.raises(GridTaskError, match="grid tasks failed") as err:
            run_replication_grid(tasks, n_jobs=2, retries=1)
        assert all(isinstance(f, TaskFailure) for f in err.value.failures)
        assert {f.key[1] for f in err.value.failures} == {"WRR"}


class TestTimeout:
    def test_stuck_task_times_out_and_retries(self, worker_hook, tmp_path):
        flag = str(tmp_path / "flag")
        tasks = _tasks(replications=2)

        def stall_once(task):
            if task.key == tasks[0].key and not os.path.exists(flag):
                with open(flag, "w") as fh:
                    fh.write("stalled")
                time.sleep(15.0)

        worker_hook(stall_once)
        t0 = time.monotonic()
        report = run_replication_grid(tasks, n_jobs=2, retries=1,
                                      task_timeout=1.5)
        assert time.monotonic() - t0 < 14.0  # did not wait out the stall
        assert set(report.outcomes) == {t.key for t in tasks}
        assert report.retried >= 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            run_replication_grid(_tasks(), task_timeout=0.0)


class TestQuarantine:
    def test_quarantine_reports_instead_of_raising(self, worker_hook):
        def poison(task):
            if task.key[1] == "WRR":
                raise RuntimeError("poison task")

        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        worker_hook(poison)
        report = run_replication_grid(tasks, n_jobs=1, quarantine=True)
        assert {f.key[1] for f in report.failures} == {"WRR"}
        assert {k[1] for k in report.outcomes} == {"ORR"}
        described = report.failures[0].describe()
        assert "WRR" in described and "point" in described

    def test_failure_names_point_policy_replication(self):
        failure = TaskFailure(
            key=(4.0, "ORR", 1), policy_name="ORR", attempts=3,
            error="Traceback ...\nRuntimeError: boom",
        )
        text = failure.describe()
        assert "point 4.0" in text
        assert "policy ORR" in text
        assert "replication 1" in text
        assert "3 attempt" in text
        assert "boom" in text

    def test_sweep_survives_quarantined_policy(self, worker_hook):
        from repro.experiments import SCALES, run_policy_sweep
        from repro.experiments.configs import skewness_config

        def poison(task):
            if task.key[1] == "WRR":
                raise RuntimeError("poison task")

        worker_hook(poison)
        result = run_policy_sweep(
            "t", "t", "x", [4.0],
            lambda x: skewness_config(x, 0.6),
            ["ORR", "WRR"],
            SCALES["smoke"].with_replications(1),
            quarantine=True,
        )
        assert "ORR" in result.cells[4.0]
        assert "WRR" not in result.cells[4.0]
        assert len(result.failures) == 1


class TestCheckpoint:
    def test_resume_skips_finished_cells(self, worker_hook, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        first = run_replication_grid(tasks, n_jobs=1,
                                     checkpoint=SweepCheckpoint(path))
        assert first.checkpoint_hits == 0
        assert len(SweepCheckpoint(path)) == len(tasks)

        # Any recomputation would now blow up inside the worker.
        def explode(task):
            raise AssertionError("cell recomputed despite checkpoint")

        worker_hook(explode)
        second = run_replication_grid(tasks, n_jobs=1,
                                      checkpoint=SweepCheckpoint(path))
        assert second.checkpoint_hits == len(tasks)
        assert set(second.outcomes) == set(first.outcomes)
        for key in first.outcomes:
            assert second.outcomes[key][:4] == first.outcomes[key][:4]

    def test_partial_checkpoint_completes_rest(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        half = tasks[: len(tasks) // 2]
        run_replication_grid(half, n_jobs=1, checkpoint=SweepCheckpoint(path))

        report = run_replication_grid(tasks, n_jobs=1,
                                      checkpoint=SweepCheckpoint(path))
        assert report.checkpoint_hits == len(half)
        assert set(report.outcomes) == {t.key for t in tasks}
        # The file now covers the full grid.
        assert len(SweepCheckpoint(path)) == len(tasks)

    def test_corrupt_lines_recompute(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks(replications=2)
        run_replication_grid(tasks, n_jobs=1, checkpoint=SweepCheckpoint(path))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # torn append
        path.write_text("\n".join(lines) + "\n")

        report = run_replication_grid(tasks, n_jobs=1,
                                      checkpoint=SweepCheckpoint(path))
        assert report.checkpoint_hits == len(tasks) - 1
        assert set(report.outcomes) == {t.key for t in tasks}

    def test_checkpoint_round_trips_outcomes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cp = SweepCheckpoint(path)
        outcome = (1.5, 0.75, 0.2, 123, np.asarray([0.25, 0.75]), 0.01)
        cp.record((2.0, "ORR", 0), outcome)
        loaded = cp.load()[(2.0, "ORR", 0)]
        assert loaded[:4] == outcome[:4]
        np.testing.assert_array_equal(loaded[4], outcome[4])
        assert loaded[5] == outcome[5]


class TestTimeoutAlwaysEnforced:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_single_stuck_task_times_out(self, worker_hook, n_jobs):
        def stall(task):
            time.sleep(3.0)

        worker_hook(stall)
        t0 = time.monotonic()
        report = run_replication_grid(_tasks(replications=1), n_jobs=n_jobs,
                                      task_timeout=0.5, quarantine=True)
        assert time.monotonic() - t0 < 2.5  # did not wait out the stall
        assert len(report.failures) == 1
        assert "wall-clock budget" in report.failures[0].error
        assert report.outcomes == {}


def _cells(policies=("ORR", "WRR"), replications=2, xs=(1.0, 4.0)):
    config = SimulationConfig(**SMOKE)
    seeds = tuple(replication_seeds(2000, replications))
    return [
        CellTask(x=x, config=config, policy_names=tuple(policies),
                 base_names=tuple(policies),
                 estimation_errors=(None,) * len(policies), seeds=seeds)
        for x in xs
    ]


def _assert_same_outcomes(got: dict, want: dict):
    assert set(got) == set(want)
    for key, expected in want.items():
        assert got[key][:4] == expected[:4], key
        np.testing.assert_array_equal(got[key][4], expected[4])


class TestCellGridHardening:
    def test_crash_once_member_recovers_with_one_retry(self, worker_hook,
                                                       tmp_path):
        # One policy, two replications, two workers: every slice holds
        # one member, so the crash is charged to it and retried.
        cells = _cells(policies=("ORR",))
        undisturbed = run_cell_grid(cells, n_jobs=1)
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, (4.0, "ORR", 1)))
        report = run_cell_grid(cells, n_jobs=2, retries=1)
        assert os.path.exists(flag)
        assert report.retried == 1
        assert report.failures == []
        _assert_same_outcomes(report.outcomes, undisturbed.outcomes)

    def test_failed_slice_reruns_members_uncharged(self, worker_hook,
                                                   tmp_path):
        # In-process a cell is one slice: the crash fails the slice,
        # whose members then re-run alone without spending an attempt.
        cells = _cells()
        undisturbed = run_cell_grid(cells, n_jobs=1)
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, (1.0, "WRR", 0)))
        report = run_cell_grid(cells, n_jobs=1)
        assert os.path.exists(flag)
        assert report.retried == 0
        _assert_same_outcomes(report.outcomes, undisturbed.outcomes)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_poisoned_member_quarantined_alone(self, worker_hook, n_jobs):
        cells = _cells()
        undisturbed = run_cell_grid(cells, n_jobs=1)
        victim = (4.0, "WRR", 1)

        def poison(task):
            if task.key == victim:
                raise RuntimeError("poison member")

        worker_hook(poison)
        report = run_cell_grid(cells, n_jobs=n_jobs, retries=1,
                               quarantine=True)
        assert [(f.key, f.attempts) for f in report.failures] == [(victim, 2)]
        assert "poison member" in report.failures[0].error
        assert report.retried == 1
        expected = dict(undisturbed.outcomes)
        del expected[victim]
        _assert_same_outcomes(report.outcomes, expected)

    def test_killed_worker_mid_cell_recovers(self, worker_hook, tmp_path):
        cells = _cells()
        undisturbed = run_cell_grid(cells, n_jobs=1)
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, (1.0, "WRR", 1),
                                     sig=signal.SIGKILL))
        report = run_cell_grid(cells, n_jobs=2, retries=1)
        assert os.path.exists(flag)  # the kill really happened
        assert report.failures == []
        _assert_same_outcomes(report.outcomes, undisturbed.outcomes)

    def test_resume_from_half_written_checkpoint(self, worker_hook,
                                                 tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = _cells()
        first = run_cell_grid(cells, n_jobs=1,
                              checkpoint=SweepCheckpoint(path))
        lines = path.read_text().splitlines()
        kept = lines[: len(lines) // 2]
        torn = lines[len(lines) // 2][:10]  # an interrupted append
        path.write_text("\n".join(kept + [torn]) + "\n")
        done = set(SweepCheckpoint(path).load())
        assert len(done) == len(kept)

        def no_recompute(task):
            if task.key in done:
                raise AssertionError("checkpointed member recomputed")

        worker_hook(no_recompute)
        report = run_cell_grid(cells, n_jobs=1,
                               checkpoint=SweepCheckpoint(path))
        assert report.checkpoint_hits == len(kept)
        _assert_same_outcomes(report.outcomes, first.outcomes)
        assert len(SweepCheckpoint(path)) == len(first.outcomes)


class TestDeadWorkerOnDefaultSweep:
    def test_pool_rebuilt_and_error_names_members(self, worker_hook,
                                                  monkeypatch):
        from repro.experiments.base import SCALES
        from repro.experiments.figure3 import run_figure3

        smoke = SCALES["smoke"]
        kwargs = dict(fast_speeds=(1.0, 10.0), policies=("WRR", "ORR"))
        reference = run_figure3(smoke, **kwargs)
        parent = os.getpid()
        real = ex._run_cell_members

        def die_in_worker(task, members, pool):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(task, members, pool)

        monkeypatch.setattr(ex, "_run_cell_members", die_in_worker)
        with pytest.raises(GridTaskError, match="grid tasks failed") as err:
            run_figure3(smoke, n_jobs=2, **kwargs)
        members = {
            (x, p, r)
            for x in reference.x_values
            for p in reference.policies
            for r in range(smoke.replications)
        }
        assert {f.key for f in err.value.failures} == members
        monkeypatch.undo()

        # The broken pool was replaced: later sweeps in this process run.
        for extra in ({}, {"retries": 1}):
            again = run_figure3(smoke, n_jobs=2, **extra, **kwargs)
            for p in reference.policies:
                np.testing.assert_array_equal(
                    again.series(p, "mean_response_ratio"),
                    reference.series(p, "mean_response_ratio"),
                )
