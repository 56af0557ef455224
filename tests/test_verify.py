"""Tests for the cross-policy differential verification harness."""

import json

import pytest

from repro.cli import main
from repro.core.policy import POLICY_ORDER, CompactionPolicy
from repro.core.stats import CompactionStats
from repro.errors import DeadlockError, JobTimeoutError
from repro.gpu.config import GpuConfig
from repro.gpu.results import KernelRunResult
from repro.runner import Runner
from repro.verify import (
    ARTIFACT_SCHEMA,
    PropertyReport,
    VerifyReport,
    Violation,
    WorkloadVerdict,
    error_verdict,
    run_differential,
    verifiable_workloads,
    verify_workload_results,
)


def _stats(events=((0xF0F0, 16),)):
    stats = CompactionStats(min_cycles=1)
    for mask, width in events:
        stats.record(mask, width)
    return stats


def _result(policy, total_cycles=100, digest="d" * 64, stats=None,
            instructions=None, **overrides):
    stats = stats if stats is not None else _stats()
    fields = dict(
        kernel="k", policy=policy, total_cycles=total_cycles,
        instructions=(instructions if instructions is not None
                      else stats.instructions),
        alu_stats=stats, simd_stats=stats, l3_hits=0, l3_accesses=0,
        llc_hits=0, llc_accesses=0, dc_lines=0, dram_lines=0,
        memory_messages=0, lines_requested=0, workgroups=1,
        buffers_digest=digest)
    fields.update(overrides)
    return KernelRunResult(**fields)


def _clean_results(**per_policy_overrides):
    """Four consistent policy runs (timed cycles properly ordered)."""
    cycles = {CompactionPolicy.RAW: 400, CompactionPolicy.IVB: 300,
              CompactionPolicy.BCC: 200, CompactionPolicy.SCC: 100}
    results = {}
    for policy in POLICY_ORDER:
        kwargs = {"total_cycles": cycles[policy],
                  **per_policy_overrides.get(policy.value, {})}
        results[policy] = _result(policy, **kwargs)
    return results


class TestVerifyWorkloadResults:
    def test_clean_results_pass(self):
        assert verify_workload_results("w", _clean_results()) == []

    def test_missing_policy_run(self):
        results = _clean_results()
        del results[CompactionPolicy.SCC]
        (violation,) = verify_workload_results("w", results)
        assert violation.check == "missing-run"
        assert "scc" in violation.message

    def test_differing_buffer_digests(self):
        results = _clean_results(scc={"digest": "e" * 64})
        checks = {v.check for v in verify_workload_results("w", results)}
        assert "functional-identity" in checks

    def test_missing_digest_flagged(self):
        results = _clean_results(bcc={"digest": None})
        checks = {v.check for v in verify_workload_results("w", results)}
        assert "functional-identity" in checks

    def test_differing_instruction_counts(self):
        results = _clean_results(ivb={"instructions": 999})
        checks = {v.check for v in verify_workload_results("w", results)}
        assert "instruction-count" in checks

    def test_differing_stats_fingerprints(self):
        divergent = _stats(((0x000F, 16),))  # efficiency 0.25, not 0.5
        results = _clean_results(scc={"stats": divergent})
        checks = {v.check for v in verify_workload_results("w", results)}
        assert "stats-identity" in checks
        assert "simd-efficiency" in checks

    def test_mask_nondeterministic_relaxes_stats_only(self):
        divergent = _stats(((0x00FF, 16),))  # same count, different mask
        results = _clean_results(scc={"stats": divergent})
        violations = verify_workload_results("w", results,
                                             mask_deterministic=False)
        assert violations == []
        # But functional identity is never relaxed.
        results = _clean_results(scc={"digest": "e" * 64})
        checks = {v.check for v in verify_workload_results(
            "w", results, mask_deterministic=False)}
        assert "functional-identity" in checks

    def test_wrong_policy_label(self):
        results = _clean_results()
        results[CompactionPolicy.SCC] = _result(
            CompactionPolicy.BCC, total_cycles=100)
        checks = {v.check for v in verify_workload_results("w", results)}
        assert "policy-label" in checks

    def test_timed_ordering_violation(self):
        results = _clean_results(scc={"total_cycles": 250})  # > BCC's 200
        (violation,) = verify_workload_results("w", results)
        assert violation.check == "timed-cycle-ordering"
        assert "scc=250" in violation.message

    def test_timed_tolerance_absorbs_interleaving_noise(self):
        results = _clean_results(scc={"total_cycles": 201})
        assert verify_workload_results("w", results) != []
        assert verify_workload_results("w", results,
                                       timed_tolerance=0.01) == []


class TestReportAndArtifact:
    def test_exit_codes(self):
        clean = VerifyReport(workloads=[WorkloadVerdict("a")])
        assert clean.passed and clean.exit_code() == 0

        bad = VerifyReport(workloads=[WorkloadVerdict(
            "a", violations=[Violation("a", "c", "m")])])
        assert not bad.passed and bad.exit_code() == 1

        err = VerifyReport(workloads=[
            error_verdict("a", JobTimeoutError("too slow"))])
        assert not err.passed and err.exit_code() == 4
        assert error_verdict("b", DeadlockError("stuck")).error_exit == 3

    def test_violations_trump_error_exit(self):
        report = VerifyReport(workloads=[
            error_verdict("a", JobTimeoutError("slow")),
            WorkloadVerdict("b", violations=[Violation("b", "c", "m")]),
        ])
        assert report.exit_code() == 1

    def test_artifact_schema_and_counts(self):
        report = VerifyReport(
            workloads=[WorkloadVerdict("a"),
                       WorkloadVerdict("b", violations=[
                           Violation("b", "chk", "msg")])],
            properties=[PropertyReport("p", cases=10, seed=3)])
        artifact = json.loads(json.dumps(report.as_artifact()))
        assert artifact["schema"] == ARTIFACT_SCHEMA
        assert artifact["passed"] is False
        assert artifact["exit_code"] == 1
        assert artifact["counts"] == {
            "workloads": 2, "workloads_passed": 1, "violations": 1,
            "errors": 0, "property_cases": 10}
        assert artifact["workloads"][1]["violations"][0]["check"] == "chk"
        assert artifact["properties"][0]["seed"] == 3

    def test_summary_lines_name_every_violation(self):
        report = VerifyReport(workloads=[
            WorkloadVerdict("a", violations=[Violation("a", "chk", "boom")]),
            error_verdict("b", DeadlockError("stuck")),
        ])
        text = "\n".join(report.summary_lines())
        assert "VIOLATION [a] chk: boom" in text
        assert "ERROR [b]" in text


class TestRunDifferential:
    def test_registry_excludes_faults(self):
        names = verifiable_workloads()
        assert "va" in names and "bfs" in names
        assert not any(name.startswith("fault_") for name in names)

    def test_live_differential_on_small_workload(self):
        runner = Runner(workers=1, cache=False)
        (verdict,) = run_differential(["va"], GpuConfig(), runner)
        assert verdict.workload == "va"
        assert verdict.passed, verdict.violations
        digests = {metrics["buffers_digest"]
                   for metrics in verdict.metrics.values()}
        assert len(digests) == 1 and None not in digests
        assert set(verdict.metrics) == {"raw", "ivb", "bcc", "scc"}

    def test_failing_workload_yields_error_verdict(self):
        runner = Runner(workers=1, cache=False, timeout=0.001, retries=0)
        (verdict,) = run_differential(["mm"], GpuConfig(), runner)
        assert not verdict.passed
        assert verdict.error is not None
        assert verdict.error_exit == 4


def _fail_host_check(monkeypatch, name, error):
    """Make *name*'s host reference check raise *error*."""
    from repro.kernels.workload import Workload

    real = Workload.verify

    def verify(self):
        if self.name == name:
            raise error
        real(self)

    monkeypatch.setattr(Workload, "verify", verify)


class TestSimVsProfilerReuse:
    BASE = GpuConfig(policy=CompactionPolicy.IVB, engine="interp")

    @staticmethod
    def _count_runs(monkeypatch):
        import repro.kernels.workload as workload

        real = workload.run_workload
        runs = []

        def counting(instance, config=None, *args, **kwargs):
            runs.append((instance.name, config.engine, config.policy.value))
            return real(instance, config, *args, **kwargs)

        monkeypatch.setattr(workload, "run_workload", counting)
        return runs

    def test_each_simulation_runs_once(self, monkeypatch, tmp_path):
        from repro.runner import ResultCache
        from repro.verify import run_verify

        runs = self._count_runs(monkeypatch)
        report = run_verify(["gnoise", "bsearch"], self.BASE,
                            runner=Runner(workers=1,
                                          cache=ResultCache(tmp_path)),
                            fuzz_iterations=0)
        assert report.passed, report.summary_lines()
        (profiler,) = [p for p in report.properties
                       if p.name == "sim-vs-profiler"]
        assert profiler.cases == 2
        expected = [(name, "interp", policy.value)
                    for name in ("gnoise", "bsearch")
                    for policy in POLICY_ORDER]
        expected += [(name, "fast", "ivb") for name in ("gnoise", "bsearch")]
        assert sorted(runs) == sorted(expected)

    def test_profiler_name_outside_names_gets_one_traced_run(
            self, monkeypatch):
        from repro.verify import run_verify

        runs = self._count_runs(monkeypatch)
        report = run_verify(["va"], self.BASE,
                            runner=Runner(workers=1, cache=False),
                            fuzz_iterations=0, engine_parity=False,
                            profiler_names=["va", "gnoise"])
        assert report.passed, report.summary_lines()
        assert report.properties[-1].cases == 2
        assert runs.count(("gnoise", "interp", "ivb")) == 1
        assert len(runs) == 5

    @pytest.mark.parametrize("error, exit_code", [
        (AssertionError("host mismatch"), 1),
        (DeadlockError("stuck"), DeadlockError.exit_code),
    ])
    def test_failed_profiler_run_keeps_the_report(self, monkeypatch,
                                                 error, exit_code):
        from repro.verify import run_verify

        _fail_host_check(monkeypatch, "va", error)
        report = run_verify(["va"], GpuConfig(),
                            runner=Runner(workers=1, cache=False, retries=0),
                            fuzz_iterations=0)
        kind = ("VerificationError" if isinstance(error, AssertionError)
                else "DeadlockError")
        differential = report.workloads[0]
        assert differential.workload == "va"
        assert kind in differential.error
        (profiler,) = report.properties
        assert profiler.name == "sim-vs-profiler" and profiler.cases == 1
        (violation,) = profiler.violations
        assert violation.message.startswith("va: ") and kind in violation.message
        assert report.exit_code() == exit_code
        artifact = json.loads(json.dumps(report.as_artifact()))
        assert artifact["exit_code"] == exit_code


class TestVerifyCli:
    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["verify", "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_fault_workload_rejected(self, capsys):
        from repro.kernels import FAULT_WORKLOADS

        fault = sorted(FAULT_WORKLOADS)[0]
        assert main(["verify", "--workloads", fault]) == 2
        assert "fault-injection" in capsys.readouterr().err

    def test_negative_fuzz_rejected(self, capsys):
        assert main(["verify", "--workloads", "va", "--fuzz", "-1"]) == 2

    def test_verify_passes_and_writes_artifact(self, tmp_path, capsys):
        artifact_path = tmp_path / "verify.json"
        code = main(["verify", "--workloads", "va", "--fuzz", "25",
                     "--no-cache", "--json", str(artifact_path)])
        captured = capsys.readouterr()
        assert code == 0
        artifact = json.loads(artifact_path.read_text())
        assert artifact["passed"] is True
        # One cross-policy verdict plus the interp-vs-fast parity verdict.
        assert artifact["counts"]["workloads"] == 2
        names = [w["workload"] for w in artifact["workloads"]]
        assert names == ["va", "va@engines"]
        assert {p["name"] for p in artifact["properties"]} >= {
            "cycle-model", "unswizzle-inversion", "crossbar-roundtrip",
            "sim-vs-profiler"}
        assert "2/2 workload(s) passed" in captured.err
        assert "cross-policy differential verification" in captured.out
        assert "engine parity" in captured.out
