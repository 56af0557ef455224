"""CLI exit-code contract: every failure kind exits with its own code
and a one-line stderr diagnosis — never a traceback."""

import pytest

from repro import errors
from repro.cli import main


class TestExitCodeContract:
    def test_codes_are_distinct_per_error_kind(self):
        kinds = [errors.VerificationError, errors.DeadlockError,
                 errors.JobTimeoutError, errors.WorkerCrashError,
                 errors.CacheCorruptionError]
        codes = [kind.exit_code for kind in kinds]
        assert codes == [1, 3, 4, 5, 6]
        assert len(set(codes)) == len(codes)
        assert errors.SimulationError.exit_code == 8  # generic fallback

    def test_exit_code_for(self):
        assert errors.exit_code_for(errors.DeadlockError("x")) == 3
        assert errors.exit_code_for(KeyboardInterrupt()) == 130
        assert errors.exit_code_for(ValueError("x")) == 1

    def test_describe_is_one_line(self):
        error = errors.DeadlockError("stuck\nat cycle   12")
        assert errors.describe(error) == "DeadlockError: stuck at cycle 12"
        assert errors.describe(errors.JobTimeoutError("")) == \
            "JobTimeoutError: (no detail)"


class TestRunCommandExitCodes:
    def test_deadlock_exits_3_with_one_liner(self, capsys):
        rc = main(["run", "fault_spin", "--max-cycles", "20000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "DeadlockError" in err and "max_cycles" in err
        assert "Traceback" not in err

    def test_timeout_exits_4_with_one_liner(self, capsys):
        rc = main(["run", "fault_spin", "--timeout", "0.3"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "JobTimeoutError" in err
        assert "Traceback" not in err

    def test_verification_failure_exits_1(self, monkeypatch, capsys):
        from repro.kernels import WORKLOAD_REGISTRY
        from repro.kernels.linalg import vector_add

        def bad_va(**kwargs):
            workload = vector_add(**kwargs)
            workload.check = lambda _buffers: (_ for _ in ()).throw(
                AssertionError("reference mismatch at lane 3"))
            return workload

        monkeypatch.setitem(WORKLOAD_REGISTRY, "failcheck", bad_va)
        rc = main(["run", "failcheck"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "verification FAILED" in err
        assert "Traceback" not in err


class TestSweepExitCodes:
    def test_worker_crash_exits_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FAULT_MARKER", raising=False)
        monkeypatch.delenv("REPRO_FAULT_MODE", raising=False)
        rc = main(["sweep", "--workloads", "fault_crash",
                   "--policies", "ivb", "--retries", "0", "--no-cache"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "WorkerCrashError" in err and "1 FAILED" in err
        assert "Traceback" not in err

    def test_deadlock_in_grid_exits_3_and_artifact_records_it(
            self, tmp_path, capsys):
        import json

        out = tmp_path / "grid.json"
        rc = main(["sweep", "--workloads", "va,fault_spin",
                   "--policies", "ivb", "--max-cycles", "20000",
                   "--no-cache", "--json", str(out)])
        assert rc == 3
        artifact = json.loads(out.read_text())
        assert len(artifact["results"]) == 1  # va still made it
        (failure,) = artifact["failures"]
        assert failure["workload"] == "fault_spin"
        assert failure["exit_code"] == 3
        assert "DeadlockError" in failure["error"]

    def test_worker_that_always_dies_fails_alone(self, tmp_path):
        # Regression: after the pool broke, the fallback ran the remaining
        # jobs in the parent process, so a job that kills every process
        # it runs in took the CLI down with it (exit 23, no artifact).
        # A subprocess, because the fault kills the process running it.
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        env = {k: v for k, v in os.environ.items()
               if k != "REPRO_FAULT_MARKER"}
        env.update(REPRO_FAULT_MODE="exit", PYTHONPATH=str(src))
        out = tmp_path / "crash.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--workloads", "fault_crash,va,dp", "--policies", "ivb",
             "--jobs", "2", "--no-cache", "--json", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 5, proc.stderr
        artifact = json.loads(out.read_text())
        assert [r["workload"] for r in artifact["results"]] == ["va", "dp"]
        (failure,) = artifact["failures"]
        assert failure["workload"] == "fault_crash"
        assert failure["error"].startswith("WorkerCrashError:")
        assert failure["exit_code"] == 5

    def test_healthy_sweep_exits_0(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "va", "--policies", "ivb",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
