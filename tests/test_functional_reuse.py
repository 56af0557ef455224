"""Functional-pass reuse across compaction policies (fast engine).

The serial runner makes each launch's functional pass once per policy
group — jobs that differ only in ``config.policy`` — and replays it
under every policy.  Compaction changes timing, never architectural
state, so every grouped result must be byte-identical to the same job
run alone without reuse.  These tests pin that parity, the memo's
per-group scope, content-keyed misses, failure handling, and that
grouping leaves progress events and sweep resume intact.
"""

import json

import pytest

import repro.eu.batch as batch
from repro.cli import main
from repro.core.policy import CompactionPolicy
from repro.dsl.stress import stress_batch
from repro.errors import DeadlockError
from repro.eu.batch import FunctionalMemo
from repro.gpu.config import GpuConfig
from repro.kernels import WORKLOAD_REGISTRY
from repro.kernels.linalg import vector_add
from repro.kernels.workload import run_workload
from repro.runner import Job, ResultCache, Runner

POLICIES = (CompactionPolicy.RAW, CompactionPolicy.IVB,
            CompactionPolicy.BCC, CompactionPolicy.SCC)


@pytest.fixture
def pass_counter(monkeypatch):
    """Count real functional passes (calls of ``run_functional``)."""
    calls = []
    original = batch.run_functional

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(batch, "run_functional", counting)
    return calls


def _policy_jobs(workload, params=None, **config_kwargs):
    return [Job(workload, GpuConfig(policy=policy, engine="fast",
                                    **config_kwargs), params=params)
            for policy in POLICIES]


def _alone(job):
    """The job run by itself, with no memo."""
    return ResultCache.serialize(job.execute())


class TestParityWithPerPolicyRuns:
    @pytest.mark.parametrize("workload, params, config_kwargs", [
        ("bfs", {"num_nodes": 256}, {}),  # host-driven, many launches
        ("scla", {"n": 256}, {}),  # SLM + barriers
        (stress_batch(1)[0], None, {}),  # generated DSL scenario
        ("gnoise", {"n": 256}, {"telemetry": "counters"}),
    ])
    def test_grouped_results_match_independent_runs(
            self, pass_counter, workload, params, config_kwargs):
        jobs = _policy_jobs(workload, params, **config_kwargs)
        runner = Runner(cache=False)
        results = runner.run(jobs)
        launches = len(pass_counter)
        assert launches >= 1
        stats = runner.last_stats
        assert stats.functional_passes == launches
        assert stats.functional_reused == 3 * launches
        for job in jobs:
            assert ResultCache.serialize(results[job]) == _alone(job), (
                job.config.policy)
        # Each independent run made its own passes.
        assert len(pass_counter) == 5 * launches

    def test_trace_sink_events_match(self):
        memo = FunctionalMemo()
        for policy in POLICIES:
            config = GpuConfig(policy=policy, engine="fast")
            build = WORKLOAD_REGISTRY["gnoise"]
            shared_sink, alone_sink = [], []
            shared = run_workload(build(n=256), config,
                                  trace_sink=shared_sink, memo=memo)
            alone = run_workload(build(n=256), config, trace_sink=alone_sink)
            assert shared_sink and shared_sink == alone_sink
            assert (ResultCache.serialize(shared)
                    == ResultCache.serialize(alone))
        assert (memo.passes, memo.reused) == (1, 3)


class TestMemoScope:
    def test_each_run_call_makes_its_own_passes(self, pass_counter):
        jobs = _policy_jobs("gnoise", {"n": 256})
        runner = Runner(cache=False)
        for round_ in (1, 2):
            runner.run(jobs)
            assert len(pass_counter) == round_
            assert runner.last_stats.functional_passes == 1
            assert runner.last_stats.functional_reused == 3
        assert runner.total_functional_passes == 2
        assert runner.total_functional_reused == 6

    def test_sibling_with_different_input_bytes_misses(self):
        def pristine():
            return vector_add(n=256)

        def shifted():
            workload = vector_add(n=256)
            workload.buffers["a"] += 1.0  # the check reads the same array
            return workload

        ivb = GpuConfig(policy=CompactionPolicy.IVB, engine="fast")
        first = Job("va_inline", ivb, factory=pristine)
        sibling = Job("va_inline", ivb.with_policy(CompactionPolicy.SCC),
                      factory=shifted)
        runner = Runner(cache=False)
        results = runner.run([first, sibling])
        assert runner.last_stats.functional_passes == 2
        assert runner.last_stats.functional_reused == 0
        for job in (first, sibling):
            assert ResultCache.serialize(results[job]) == _alone(job)

    def test_failed_pass_is_never_stored(self, pass_counter):
        jobs = _policy_jobs("fault_spin", max_cycles=20_000)
        runner = Runner(cache=False, strict=False)
        assert runner.run(jobs) == {}
        stats = runner.last_stats
        assert stats.failed == 4
        errors = [stats.failures[job.key] for job in jobs]
        assert all(isinstance(error, DeadlockError) for error in errors)
        assert len({id(error) for error in errors}) == 4
        assert len(pass_counter) == 4  # every sibling ran its own pass
        assert stats.functional_passes == stats.functional_reused == 0

    def test_pool_path_makes_one_pass_per_job(self):
        runner = Runner(workers=2, cache=False)
        results = runner.run(_policy_jobs("gnoise", {"n": 256}))
        assert len(results) == 4
        assert runner.last_stats.functional_passes == 0
        assert runner.last_stats.functional_reused == 0


class TestGroupingKeepsRunnerContracts:
    def test_progress_indices_are_contiguous(self, tmp_path):
        fast = GpuConfig(engine="fast")
        jobs = [Job(name, fast.with_policy(policy), params={"n": 256})
                for policy in (CompactionPolicy.IVB, CompactionPolicy.SCC)
                for name in ("va", "gnoise")]
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run(jobs[:1])  # one cached job
        events = []
        runner = Runner(cache=cache, progress=events.append)
        results = runner.run(jobs)
        assert len(results) == 4
        assert [e.index for e in events] == [1, 2, 3, 4]
        assert {e.total for e in events} == {4}
        assert {e.job.key for e in events} == {job.key for job in jobs}
        assert [e.status for e in events].count("cached") == 1
        # Executed jobs run grouped: both gnoise jobs, then va's sibling.
        executed = [e.job for e in events if e.status == "executed"]
        assert executed == [jobs[1], jobs[3], jobs[2]]

    def test_sweep_resume_round_trip(self, tmp_path, monkeypatch, capsys):
        args = ["sweep", "--workloads", "va,gnoise", "--policies",
                "ivb,bcc,scc", "--engine", "fast", "--no-cache"]
        reference = tmp_path / "ref.json"
        assert main(args + ["--json", str(reference)]) == 0
        assert ", 2 functional passes, 4 reused" in capsys.readouterr().err

        # Interrupt inside the first policy group, then resume.
        resumed = tmp_path / "resumed.json"
        monkeypatch.setenv("REPRO_FAULT_INTERRUPT_AFTER", "2")
        assert main(args + ["--json", str(resumed)]) == 130
        monkeypatch.delenv("REPRO_FAULT_INTERRUPT_AFTER")
        assert main(args + ["--json", str(resumed), "--resume"]) == 0
        err = capsys.readouterr().err
        assert "resuming, 2/6 job(s)" in err
        assert ", 2 functional passes, 2 reused" in err
        assert resumed.read_bytes() == reference.read_bytes()
        assert len(json.loads(resumed.read_text())["results"]) == 6
