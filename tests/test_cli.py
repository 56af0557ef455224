"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.trace.format import TraceEvent, write_trace


class TestMaskCommand:
    def test_f0f0(self, capsys):
        assert main(["mask", "F0F0"]) == 0
        out = capsys.readouterr().out
        assert "0xF0F0" in out
        assert "suppressed quads: [0, 2]" in out

    def test_figure7_mask(self, capsys):
        assert main(["mask", "AAAA"]) == 0
        out = capsys.readouterr().out
        assert "2 cycles, 4 swizzles" in out

    def test_simd8(self, capsys):
        assert main(["mask", "0F", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "SIMD8" in out


class TestListCommand:
    def test_lists_workloads_and_traces(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out
        assert "luxmark_sky" in out
        assert "simulator" in out and "trace" in out


class TestRunCommand:
    def test_run_small_workload(self, capsys):
        assert main(["run", "va", "--policy", "scc"]) == 0
        out = capsys.readouterr().out
        assert "total_cycles" in out
        assert "EU-cycle reduction" in out

    def test_unknown_workload(self, capsys):
        assert main(["run", "nonexistent"]) == 2

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            main(["run", "va", "--policy", "tbc"])

    def test_json_payload_matches_serve_schema(self, tmp_path, capsys):
        """`run --json` emits the daemon's typed result payload."""
        import json

        out_path = tmp_path / "result.json"
        assert main(["run", "va", "--policy", "scc",
                     "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        from repro.serve.jobs import RESULT_SCHEMA

        assert payload["schema"] == RESULT_SCHEMA
        assert payload["workload"] == "va"
        assert payload["policy"] == "scc"
        assert len(payload["buffers_digest"]) == 64
        assert set(payload["fingerprints"]) == {"alu", "simd"}

        capsys.readouterr()
        assert main(["run", "va", "--policy", "scc", "--json", "-"]) == 0
        streamed = json.loads(capsys.readouterr().out)
        assert streamed == payload  # deterministic and path-independent


class TestRunVerificationFailure:
    @staticmethod
    def _failing_workload():
        from repro.kernels.linalg import vector_add

        workload = vector_add(n=64)

        def bad_check(_buffers):
            raise AssertionError("reference mismatch at lane 3")

        workload.check = bad_check
        return workload

    def test_clean_message_and_nonzero_exit(self, monkeypatch, capsys):
        from repro.kernels import WORKLOAD_REGISTRY

        monkeypatch.setitem(WORKLOAD_REGISTRY, "failcheck",
                            self._failing_workload)
        assert main(["run", "failcheck"]) == 1
        err = capsys.readouterr().err
        assert "verification FAILED" in err
        assert "failcheck" in err
        assert "reference mismatch at lane 3" in err
        assert "Traceback" not in err

    def test_no_verify_bypasses_check(self, monkeypatch, capsys):
        from repro.kernels import WORKLOAD_REGISTRY

        monkeypatch.setitem(WORKLOAD_REGISTRY, "failcheck",
                            self._failing_workload)
        assert main(["run", "failcheck", "--no-verify"]) == 0


class TestRunTelemetry:
    def test_counters_appear_in_summary(self, capsys):
        assert main(["run", "nested_l2", "--policy", "scc",
                     "--telemetry", "counters"]) == 0
        out = capsys.readouterr().out
        assert "telemetry.issue.total" in out
        assert "telemetry.compaction.quads_executed" in out

    def test_off_by_default(self, capsys):
        assert main(["run", "va"]) == 0
        assert "telemetry." not in capsys.readouterr().out

    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        import json

        from repro.telemetry.chrome_trace import validate_chrome_trace

        path = tmp_path / "t.json"
        assert main(["run", "nested_l3", "--policy", "bcc",
                     "--trace-out", str(path)]) == 0
        err = capsys.readouterr().err
        assert "trace event(s)" in err and "Perfetto" in err
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) > 0
        assert trace["otherData"]["kernel"] == "nested_l3"
        assert trace["otherData"]["policy"] == "bcc"
        names = {event["name"] for event in trace["traceEvents"]}
        assert "quad_exec" in names and "quad_skip" in names

    def test_profile_prints_host_report(self, capsys):
        assert main(["run", "va", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "host profile" in out
        assert "cycles/s" in out

    def test_profile_out_writes_bench_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "bench.json"
        assert main(["run", "va", "--profile-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["label"] == "run:va"
        assert "va" in payload["workloads"]


class TestSweepCommand:
    def test_grid_table_and_stats(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "va", "--policies", "ivb,scc",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "sweep results" in captured.out
        assert "2 unique" in captured.err

    def test_json_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "sweep.json"
        rc = main(["sweep", "--workloads", "va", "--policies", "ivb",
                   "--dc", "1.0,2.0", "--cache-dir", str(tmp_path / "cache"),
                   "--json", str(out_path)])
        assert rc == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["grid"]["workloads"] == ["va"]
        assert len(artifact["results"]) == 2
        assert artifact["failures"] == []
        assert {r["dc_lines_per_cycle"] for r in artifact["results"]} == {1.0, 2.0}

    def test_json_artifact_is_deterministic(self, tmp_path, capsys):
        # The artifact must be byte-stable across runs (cold vs. warm
        # cache, serial vs. resumed) so interrupted sweeps can be
        # verified against uninterrupted ones.
        args = ["sweep", "--workloads", "va", "--policies", "ivb",
                "--cache-dir", str(tmp_path / "cache")]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--json", str(out_a)]) == 0
        assert main(args + ["--json", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_cache_reused_across_invocations(self, tmp_path, capsys):
        args = ["sweep", "--workloads", "va", "--policies", "ivb",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 cached, 0 executed" in capsys.readouterr().err

    def test_unknown_workload(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "nonexistent",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2

    def test_bad_policy_reported_cleanly(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "va", "--policies", "ivb,sccc",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad sweep grid" in err
        assert "sccc" in err

    def test_bad_dc_value_reported_cleanly(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "va", "--dc", "1.0,fast",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "bad sweep grid" in capsys.readouterr().err

    def test_workload_groups_resolve(self):
        from repro.cli import _sweep_workloads
        from repro.kernels import WORKLOAD_REGISTRY

        names = _sweep_workloads("rodinia,va")
        assert names[:5] == ["bfs", "hotspot", "lavamd", "nw",
                             "particlefilter"]
        assert "va" in names
        assert all(name in WORKLOAD_REGISTRY for name in names)

    def test_groups_exclude_fault_workloads(self):
        from repro.cli import _sweep_workloads
        from repro.kernels import FAULT_WORKLOADS

        assert FAULT_WORKLOADS  # the harness exists...
        for group in ("all", "divergent", "rodinia"):
            names = _sweep_workloads(group)
            assert not set(names) & set(FAULT_WORKLOADS)
        # ...but explicit naming still works
        assert _sweep_workloads("fault_spin") == ["fault_spin"]


class TestSweepTelemetry:
    def test_trace_dir_writes_one_trace_per_point(self, tmp_path, capsys):
        import json

        from repro.telemetry.chrome_trace import validate_chrome_trace

        trace_dir = tmp_path / "traces"
        rc = main(["sweep", "--workloads", "va", "--policies", "bcc,scc",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--trace-dir", str(trace_dir)])
        assert rc == 0
        assert "wrote 2 Chrome trace(s)" in capsys.readouterr().err
        written = sorted(p.name for p in trace_dir.glob("*.json"))
        assert written == ["va_bcc_dc1.json", "va_scc_dc1.json"]
        for path in trace_dir.glob("*.json"):
            assert validate_chrome_trace(json.loads(path.read_text())) > 0

    def test_telemetry_level_changes_cache_key(self, tmp_path, capsys):
        args = ["sweep", "--workloads", "va", "--policies", "ivb",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        # Same grid at a different telemetry level must not hit the
        # plain run's cache entry (it carries no telemetry payload).
        assert main(args + ["--telemetry", "counters"]) == 0
        assert "0 cached, 1 executed" in capsys.readouterr().err

    def test_summary_reports_throughput(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "va", "--policies", "ivb",
                     "--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "simulating at" in err and "cycles/s" in err


class TestProfileCommand:
    def test_builtin_trace(self, capsys):
        assert main(["profile", "glbench_pro"]) == 0
        out = capsys.readouterr().out
        assert "scc_reduction_pct" in out

    def test_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        write_trace([TraceEvent(16, 0xF0F0)] * 10, path)
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "simd_efficiency" in out

    def test_missing_trace(self, capsys):
        assert main(["profile", "no_such_trace"]) == 2


class TestExperimentCommand:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "75.0%" in out  # the L2 SCC benefit

    def test_fig08(self, capsys):
        assert main(["experiment", "fig08"]) == 0
        out = capsys.readouterr().out
        assert "0xAAAA" in out

    def test_area(self, capsys):
        assert main(["experiment", "area"]) == 0
        out = capsys.readouterr().out
        assert "interwarp-8bank" in out

    def test_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2


class TestProfileWiden:
    def test_widen_grows_reduction(self, capsys):
        assert main(["profile", "luxmark_sky"]) == 0
        base_out = capsys.readouterr().out
        assert main(["profile", "luxmark_sky", "--widen", "4"]) == 0
        wide_out = capsys.readouterr().out

        def scc(text):
            for line in text.splitlines():
                if line.startswith("scc_reduction_pct"):
                    return float(line.split()[-1])
            raise AssertionError("no scc_reduction_pct in output")

        assert scc(wide_out) > scc(base_out)
        assert "widened x4" in wide_out


class TestRetryBudgetFlags:
    """Regression: a negative budget reached ``Runner``/``ServeClient``
    and died with a raw ``ValueError`` traceback; argparse now rejects
    it with its usage message and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workloads", "va", "--retries", "-1"],
        ["serve", "--retries", "-1"],
        ["client", "--max-retries", "-1", "health"],
        ["worker", "--max-retries", "-1"],
        ["client", "--max-retries", "two", "health"],
    ])
    def test_bad_budget_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert "expected a non-negative integer" in err
        assert "Traceback" not in err

    def test_no_retry_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["client", "--no-retry", "health"])
        assert info.value.code == 2
        assert "unrecognized arguments: --no-retry" in capsys.readouterr().err
