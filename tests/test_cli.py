"""Tests for the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main

#: The trajectory record schema ``obs/gate.py`` reads: the key set of
#: every dict in a ``bench --serve --net`` record, by dotted path
#: (``[]`` marks the dicts inside a list).
_BENCH_SCHEMA = {
    "": "timestamp kernel_version compiler_flags openmp openmp_threads "
        "scale n_jobs kernels replication sweep cell executor telemetry "
        "serve net",
    "kernels": "fcfs_jobs fcfs_loop_s fcfs_fast_s fcfs_speedup ps_jobs "
               "ps_loop_s ps_fast_s ps_speedup ps_backend fcfs_backend "
               "fcfs_bit_identical",
    "replication": "ps fcfs",
    "replication.ps": "engine_s fast_s speedup agree",
    "replication.fcfs": "engine_s fast_s speedup agree",
    "sweep": "points policies replications serial_s grid_s grid_identical "
             "cache_cold_s cache_cold_hits cache_warm_s cache_warm_hits "
             "cache_speedup",
    "cell": "flat_s cell_s cell_speedup flat_ps_s cell_ps_s cell_speedup_ps "
            "cell_identical paired",
    "cell.paired[]": "skew policies replications paired_half_width "
                     "unpaired_half_width paired_vs_unpaired verdict",
    "executor": "small_tasks n_jobs pool_s auto_serial_s auto_serial_speedup",
    "telemetry": "noop_span_ns events_per_replication untraced_s traced_s "
                 "overhead_fraction overhead_ok trace_identical",
    "serve": "servers utilization jobs windows reference_s fast_s "
             "serve_speedup jobs_per_sec reference_jobs_per_sec "
             "dispatch_ns_per_job report_identical backend",
    "net": "servers utilization jobs windows report_identical "
           "overload_report_identical rejoin_report_identical "
           "balanced_no_shed even_split_shed dispatch_ns_per_job "
           "dispatch_ceiling_ns inproc_s inproc_jobs_per_sec socket_s "
           "jobs_per_sec rtt_p50_s rtt_p99_s max_inflight peak_inflight "
           "queue_limit peak_submit_queue backend",
}


def _key_sets(node, path="", out=None):
    """Dotted path -> key set of every dict nested in *node*."""
    out = {} if out is None else out
    if isinstance(node, dict):
        out[path] = set(node)
        for key, value in node.items():
            _key_sets(value, f"{path}.{key}".lstrip("."), out)
    elif isinstance(node, list):
        for item in node:
            _key_sets(item, f"{path}[]", out)
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "table1", "--scale", "smoke"])
        assert args.experiment == "table1"
        assert args.scale == "smoke"

    def test_invalid_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])

    def test_run_n_jobs_and_cache_args(self):
        args = build_parser().parse_args(
            ["run", "figure3", "--n-jobs", "auto", "--cache", "/tmp/c"]
        )
        assert args.n_jobs == "auto"
        assert args.cache == "/tmp/c"

    def test_simulate_n_jobs_arg(self):
        args = build_parser().parse_args(
            ["simulate", "--speeds", "1,2", "--utilization", "0.5",
             "--n-jobs", "2"]
        )
        assert args.n_jobs == "2"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.scale == "smoke"
        assert args.output == "BENCH_sweep.json"
        assert args.n_jobs is None and args.cache is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "table1" in out

    def test_allocate(self, capsys):
        code = main(["allocate", "--speeds", "1,1.5,2", "--utilization", "0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimized alpha" in out
        assert "predicted mean response ratio" in out

    def test_allocate_drops_slow_machines(self, capsys):
        main(["allocate", "--speeds", "0.05,1,10", "--utilization", "0.3"])
        out = capsys.readouterr().out
        assert "zero work" in out

    def test_allocate_bad_speeds(self, capsys):
        assert main(["allocate", "--speeds", "a,b", "--utilization", "0.5"]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_allocate_empty_speeds(self, capsys):
        assert main(["allocate", "--speeds", ",", "--utilization", "0.5"]) == 2

    def test_allocate_bad_utilization(self, capsys):
        assert main(["allocate", "--speeds", "1,2", "--utilization", "1.5"]) == 2
        assert "utilization" in capsys.readouterr().err

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "ORR" in capsys.readouterr().out

    def test_run_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "figure99"])

    def test_run_rejects_bad_n_jobs(self, capsys):
        assert main(["run", "table2", "--n-jobs", "bogus"]) == 2
        assert "n_jobs" in capsys.readouterr().err

    def test_simulate_rejects_bad_n_jobs(self, capsys):
        code = main(["simulate", "--speeds", "1,2", "--utilization", "0.5",
                     "--n-jobs", "-3"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_simulate_parallel_matches_serial(self, capsys):
        base = ["simulate", "--speeds", "1,1,10", "--utilization", "0.6",
                "--policies", "ORR", "--duration", "5e3",
                "--replications", "2"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--n-jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_run_with_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(["run", "figure3", "--scale", "smoke",
                     "--cache", str(cache_dir)])
        assert code == 0
        assert "ORR" in capsys.readouterr().out
        assert any(p.suffix == ".json" for p in cache_dir.iterdir())


class TestBench:
    def test_bench_appends_trajectory(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_sweep.json"
        assert main(["bench", "--output", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "FCFS kernel" in text and "cache" in text
        trajectory = json.loads(out_path.read_text())
        assert len(trajectory) == 1
        record = trajectory[0]
        assert record["sweep"]["grid_identical"] is True
        assert record["replication"]["ps"]["agree"] is True
        assert record["replication"]["fcfs"]["agree"] is True
        assert record["sweep"]["cache_warm_hits"] > 0
        assert record["cell"]["cell_identical"] is True
        assert record["cell"]["cell_speedup"] > 0
        for point in record["cell"]["paired"]:
            assert point["paired_half_width"] >= 0
            assert point["unpaired_half_width"] > 0
            assert point["verdict"] in ("a_wins", "b_wins", "tie")

        # A second invocation appends rather than overwrites.
        assert main(["bench", "--output", str(out_path)]) == 0
        capsys.readouterr()
        assert len(json.loads(out_path.read_text())) == 2

    def test_bench_rejects_bad_n_jobs(self, capsys, tmp_path):
        code = main(["bench", "--n-jobs", "zero",
                     "--output", str(tmp_path / "b.json")])
        assert code == 2
        assert "n_jobs" in capsys.readouterr().err

    def test_bench_serve_net_records_identity_and_schema(self, capsys,
                                                         tmp_path):
        out_path = tmp_path / "b.json"
        assert main(["bench", "--serve", "--net",
                     "--output", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "serve       :" in text and "net         :" in text
        (record,) = json.loads(out_path.read_text())
        assert record["serve"]["report_identical"] is True
        for flag in ("report_identical", "overload_report_identical",
                     "rejoin_report_identical", "balanced_no_shed"):
            assert record["net"][flag] is True, flag
        expected = {p: set(keys.split()) for p, keys in _BENCH_SCHEMA.items()}
        assert _key_sets(record) == expected

    def test_bench_failed_check_exits_1_and_appends_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.bench

        out_path = tmp_path / "b.json"
        out_path.write_text('[{"scale": "smoke"}]\n')
        before = out_path.read_bytes()
        monkeypatch.setattr(repro.bench, "fcfs_replay",
                            lambda times, work, speed: np.zeros_like(times))
        assert main(["bench", "--output", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "error: FCFS kernel disagrees with reference loop" in err
        assert out_path.read_bytes() == before

    def test_bench_failed_gate_exits_1_and_appends_nothing(self, capsys,
                                                           tmp_path):
        out_path = tmp_path / "b.json"
        baseline = {"scale": "smoke", "timestamp": "t0",
                    "kernels": {"fcfs_speedup": 1e12}}
        out_path.write_text(json.dumps([baseline]))
        before = out_path.read_bytes()
        assert main(["bench", "--gate", "--output", str(out_path)]) == 1
        out = capsys.readouterr().out
        assert "perf gate: FAIL" in out and "fcfs_speedup" in out
        assert out_path.read_bytes() == before

    @pytest.mark.parametrize("content", [
        b'[{"scale": "smoke"},]', b"not json", b"\xff\xfe[]",
    ])
    def test_bench_refuses_unreadable_trajectory(self, capsys, tmp_path,
                                                 content):
        out_path = tmp_path / "b.json"
        out_path.write_bytes(content)
        assert main(["bench", "--output", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot read trajectory {out_path}:" in captured.err
        assert captured.out == ""  # no section ran
        assert out_path.read_bytes() == content

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "inf"])
    def test_bench_rejects_bad_gate_threshold(self, capsys, tmp_path,
                                              threshold):
        out_path = tmp_path / "b.json"
        code = main(["bench", "--gate", "--gate-threshold", threshold,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "gate threshold" in captured.err and threshold in captured.err
        assert captured.out == ""  # no section ran
        assert not out_path.exists()

    def test_cli_import_leaves_bench_unloaded(self):
        import os

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro.cli; "
                "sys.exit('repro.bench' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0


class TestServe:
    def test_serve_json_smoke(self, capsys):
        import json

        code = main(["serve", "--speeds", "1,2,3", "--duration", "500",
                     "--resolve-period", "100", "--seed", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean_shutdown"] is True
        assert payload["jobs_dispatched"] > 0
        assert payload["resolves"] == 5
        assert len(payload["final_alphas"]) == 3

    def test_serve_human_output(self, capsys):
        code = main(["serve", "--speeds", "1,2", "--duration", "300",
                     "--resolve-period", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs dispatched" in out
        assert "final allocation" in out

    def test_serve_step_workload(self, capsys):
        import json

        code = main(["serve", "--speeds", "1,2,3", "--duration", "1000",
                     "--resolve-period", "100", "--workload", "step",
                     "--step-factor", "1.5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean_shutdown"] is True
        # the step raises the late arrival rate above the early one
        windows = payload["windows"]
        early = sum(w["offered"] for w in windows[:5])
        late = sum(w["offered"] for w in windows[5:])
        assert late > early

    def test_serve_replay_trace(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.csv"
        trace.write_text(
            "".join(f"{t * 0.1:.3f},1.0\n" for t in range(200))
        )
        code = main(["serve", "--speeds", "1,1", "--duration", "20",
                     "--resolve-period", "5", "--replay", str(trace),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs_dispatched"] == 200

    def test_serve_bad_speeds(self, capsys):
        assert main(["serve", "--speeds", "x,y", "--duration", "100",
                     "--resolve-period", "10"]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_serve_bad_utilization(self, capsys):
        assert main(["serve", "--speeds", "1,2", "--utilization", "1.3",
                     "--duration", "100", "--resolve-period", "10"]) == 2
        assert "utilization" in capsys.readouterr().err

    def test_serve_missing_trace(self, capsys):
        assert main(["serve", "--speeds", "1,2", "--duration", "100",
                     "--resolve-period", "10",
                     "--replay", "/nonexistent/trace.csv"]) == 2
        assert "could not read" in capsys.readouterr().err

    def test_serve_bad_period(self, capsys):
        assert main(["serve", "--speeds", "1,2", "--duration", "10",
                     "--resolve-period", "100"]) == 2
        assert "control_period" in capsys.readouterr().err
