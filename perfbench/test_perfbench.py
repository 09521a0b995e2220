"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q

They check that a smoke-size run of every workload prints every metric
``BENCHMARK.json`` names, that traced runs put every wrapped entry point
back, and that each correctness check fails when its input is wrong.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_load_run_module().pin_environment()

from perfbench import bench, report, tracing, workloads  # noqa: E402
from perfbench.workloads import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in report.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in report.PER_LAYER
    ]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("serve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _bindings():
    """Every (holder, attribute) -> object for the wrapped entry points."""
    out = {}
    for spec in workloads.LAYERS:
        _, owner, attr = tracing._resolve(spec.target)
        if isinstance(owner, type):
            out[(owner, attr)] = vars(owner).get(attr)
            continue
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in vars(module).items():
                if value is original:
                    out[(module, key)] = value
    return out


@pytest.mark.parametrize("workload", ["static-sweep", "serve", "net"])
def test_traced_run_restores_every_entry_point(workload):
    before = _bindings()
    w = workloads.make(workload, 5, "smoke")
    w.prepare()
    out, wall, tracer, summary = bench.traced_op(w)
    assert len(tracer.start) > 1 and summary.min_self_s > -1e-6
    w.verify(out)
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_install_undoes_partial_patches_on_error():
    before = _bindings()
    bad = workloads.LAYERS + (tracing.LayerSpec("repro.sim.engine:no_such", "x"),)
    with pytest.raises(AttributeError):
        tracing.install(tracing.Tracer(), bad)
    after = _bindings()
    for key, value in before.items():
        assert after[key] is value, key


# ----------------------------------------------------------------------
# Correctness checks fail on injected mismatches
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    w = workloads.make("static-sweep", 7, "smoke")
    w.prepare()
    return w, w.op()


@pytest.fixture(scope="module")
def served():
    w = workloads.make("serve", 7, "smoke")
    w.prepare()
    return w, w.op()


@pytest.fixture(scope="module")
def netted():
    w = workloads.make("net", 7, "smoke")
    w.prepare()
    return w, w.op()


def test_sweep_checks_pass_then_fail_on_a_broken_ledger(sweep):
    w, out = sweep
    w.verify(out)
    broken = copy.deepcopy(out)
    counters = broken.outputs[0].counters
    key = next(k for k in counters if k.startswith("jobs.completed{"))
    counters[key] -= 1
    with pytest.raises(CheckFailed, match="ledger"):
        w.verify(broken)


def test_sweep_check_fails_on_a_missing_replication(sweep):
    w, out = sweep
    broken = copy.deepcopy(out)
    broken.outputs[1].counters["runs.completed"] -= 1
    with pytest.raises(CheckFailed, match="runs.completed"):
        w.verify(broken)


def test_sweep_check_fails_when_the_kernel_fell_back(sweep):
    w, out = sweep
    broken = copy.deepcopy(out)
    result = broken.outputs[0]
    result.counters = {
        k.replace("backend=c", "backend=python"): v for k, v in result.counters.items()
    }
    with pytest.raises(CheckFailed, match="kernel"):
        w.verify(broken)


def test_default_and_hardened_check_fails_on_different_series(sweep):
    w, out = sweep
    broken = copy.deepcopy(out)
    hardened = broken.outputs[1]
    row = hardened.cells[hardened.x_values[0]]
    cell = row[hardened.policies[0]]
    row[hardened.policies[0]] = dataclasses.replace(
        cell, dispatch_fractions=cell.dispatch_fractions + 1e-12
    )
    with pytest.raises(CheckFailed, match="hardened"):
        w.verify(broken)


@pytest.mark.parametrize("phase", [0, 1])
@pytest.mark.parametrize("field", ["jobs_shed", "jobs_lost", "jobs_in_flight"])
def test_serve_ledger_fails_on_a_miscount(served, phase, field):
    w, out = served
    w.verify(out)
    broken = copy.deepcopy(out)
    report_ = broken.outputs[phase][1]
    setattr(report_, field, getattr(report_, field) + 1)
    with pytest.raises(CheckFailed):
        w.verify(broken)


def test_net_cross_check_fails_on_a_different_shard_report(netted):
    w, out = netted
    w.verify(out)
    w.cross_check(out)
    broken = copy.deepcopy(out)
    broken.outputs[0].reports[1].swaps += 1
    with pytest.raises(CheckFailed, match="in-process"):
        w.cross_check(broken)


def test_repeat_with_a_different_output_fails(served, monkeypatch):
    w, out = served
    calls = {"n": 0}

    def drifting_op(on_phase=None):
        calls["n"] += 1
        repeat = copy.deepcopy(out)
        if calls["n"] > 1:
            repeat.outputs[1][0].swaps += 1
        return repeat

    monkeypatch.setattr(w, "op", drifting_op)
    with pytest.raises(CheckFailed, match="digest"):
        bench.measure(w, 0.0, False, bench.Calibrator())


def test_kernel_check_fails_when_the_kernel_is_unavailable():
    from repro.obs import counters

    counters.inc("ckernel.unavailable", reason="injected")
    try:
        with pytest.raises(CheckFailed, match="kernel"):
            bench.require_kernel()
    finally:
        counters.reset()


def test_reconcile_reports_unaccounted_time():
    values = {m: 0.0 for m in set(report.SPAN_METRIC.values())}
    values["service.replay.self_s"] = 0.5
    assert report.reconcile(values, 0.5) == 0.0
    assert report.reconcile(values, 1.0) > report.RECONCILE_TOLERANCE
