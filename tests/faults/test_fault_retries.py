"""Retry, degradation, and interrupt behaviour of the runner under faults."""

import random
import time

import pytest

from repro import retry
from repro.errors import (
    DeadlockError,
    JobTimeoutError,
    VerificationError,
    WorkerCrashError,
)
from repro.gpu.config import GpuConfig
from repro.runner import Job, Runner


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """Retry waits are recorded, not slept."""
    recorded = []
    monkeypatch.setattr(retry, "sleep", recorded.append)
    return recorded


def _runner(**kwargs):
    kwargs.setdefault("cache", False)
    return Runner(**kwargs)


class TestCrashOnceModes:
    def test_explicit_mode_beats_environment(self, monkeypatch):
        from repro.kernels.faults import crash_once

        monkeypatch.setenv("REPRO_FAULT_MODE", "exit")
        assert "(raise)" in crash_once(mode="raise").description
        assert "(exit)" in crash_once().description  # env fills the default
        monkeypatch.delenv("REPRO_FAULT_MODE")
        assert "(raise)" in crash_once().description


class TestSerialRetry:
    def test_transient_crash_recovers_on_retry(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed"
        monkeypatch.setenv("REPRO_FAULT_MARKER", str(marker))
        runner = _runner(workers=1, retries=2)
        job = Job("fault_crash")
        results = runner.run([job])
        assert job in results
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 0
        assert marker.exists()  # the first attempt really did crash

    def test_exhausted_retries_become_worker_crash(self, monkeypatch,
                                                   sleeps):
        monkeypatch.delenv("REPRO_FAULT_MARKER", raising=False)
        runner = _runner(workers=1, retries=1, strict=False)
        results = runner.run([Job("fault_crash")])  # crashes every attempt
        assert results == {}
        assert runner.last_stats.retried == 1
        assert len(sleeps) == 1 and 0.1 <= sleeps[0] <= 0.2  # retry 1
        assert runner.last_stats.failed == 1
        error = next(iter(runner.last_stats.failures.values()))
        assert isinstance(error, WorkerCrashError)
        assert error.transient
        assert "injected worker crash" in str(error)

    def test_strict_mode_reraises_first_failure(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_MARKER", raising=False)
        runner = _runner(workers=1, retries=0)  # strict is the default
        with pytest.raises(WorkerCrashError):
            runner.run([Job("fault_crash")])

    def test_deterministic_failures_never_retry(self):
        runner = _runner(workers=1, retries=5, strict=False)
        runner.run([Job("fault_spin", GpuConfig(max_cycles=20_000))])
        assert runner.last_stats.retried == 0
        error = next(iter(runner.last_stats.failures.values()))
        assert isinstance(error, DeadlockError)

    def test_timeout_counted_and_not_retried(self):
        runner = _runner(workers=1, retries=5, timeout=0.3, strict=False)
        runner.run([Job("fault_spin")])
        stats = runner.last_stats
        assert stats.retried == 0
        assert stats.timeouts == 1
        assert isinstance(next(iter(stats.failures.values())),
                          JobTimeoutError)

    def test_verification_failure_is_typed_and_final(self, monkeypatch):
        from repro.kernels import WORKLOAD_REGISTRY
        from repro.kernels.linalg import vector_add

        def bad_va(**kwargs):
            workload = vector_add(**kwargs)

            def bad_check(_buffers):
                raise AssertionError("reference mismatch at lane 3")

            workload.check = bad_check
            return workload

        monkeypatch.setitem(WORKLOAD_REGISTRY, "fault_badcheck", bad_va)
        runner = _runner(workers=1, retries=5, strict=False)
        runner.run([Job("fault_badcheck")])
        assert runner.last_stats.retried == 0
        error = next(iter(runner.last_stats.failures.values()))
        assert isinstance(error, VerificationError)
        assert isinstance(error, AssertionError)  # back-compat contract


class TestPoolFaults:
    def test_dead_worker_degrades_to_serial(self, tmp_path, monkeypatch):
        # fault_crash in "exit" mode hard-kills its worker, breaking the
        # pool; the runner must fall back to in-process serial and (the
        # marker now existing) complete every job.
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_FAULT_MARKER", str(marker))
        monkeypatch.setenv("REPRO_FAULT_MODE", "exit")
        runner = _runner(workers=2, retries=2)
        jobs = [Job("fault_crash"), Job("va"), Job("dp")]
        results = runner.run(jobs)
        assert len(results) == 3
        assert runner.last_stats.degraded == 1
        assert runner.last_stats.failed == 0

    def test_degradation_keeps_spent_retries(self, tmp_path, monkeypatch):
        # Regression: the serial fallback after a pool break restarted
        # every job's retry count at zero, so with retries=1 the
        # always-raising job ran three times (retried == 2) while its
        # error said "after 2 attempt(s)".  The 0.5 s sleeper holds the
        # second worker, so the pool breaks only after the raising job
        # has spent its retry there.
        monkeypatch.delenv("REPRO_FAULT_MARKER", raising=False)
        monkeypatch.delenv("REPRO_FAULT_MODE", raising=False)
        runner = _runner(workers=2, retries=1, strict=False)
        crash = Job("fault_crash", params={"mode": "raise"})
        jobs = [crash, Job("fault_sleep", params={"seconds": 0.5}),
                Job("fault_crash", params={
                    "mode": "exit", "marker": str(tmp_path / "killed")})]
        results = runner.run(jobs)
        stats = runner.last_stats
        assert stats.degraded == 1
        assert stats.retried == 1
        assert set(results) == set(jobs[1:])
        error = stats.failures[crash.key]
        assert isinstance(error, WorkerCrashError)
        assert "after 2 attempt(s)" in str(error)

    def test_transient_raise_retried_within_pool(self, tmp_path,
                                                 monkeypatch):
        marker = tmp_path / "raised"
        monkeypatch.setenv("REPRO_FAULT_MARKER", str(marker))
        monkeypatch.delenv("REPRO_FAULT_MODE", raising=False)
        runner = _runner(workers=2, retries=2)
        jobs = [Job("fault_crash"), Job("va"), Job("dp")]
        results = runner.run(jobs)
        assert len(results) == 3
        assert runner.last_stats.retried == 1
        assert runner.last_stats.degraded == 0

    def test_parallel_equivalence_under_single_worker_failure(
            self, tmp_path, monkeypatch):
        # The satellite contract: a batch that loses one worker mid-run
        # still produces results bit-identical to a clean serial run.
        jobs = [Job("va"), Job("dp"), Job("mvm")]
        serial = _runner(workers=1).run(jobs)

        marker = tmp_path / "equiv"
        monkeypatch.setenv("REPRO_FAULT_MARKER", str(marker))
        monkeypatch.setenv("REPRO_FAULT_MODE", "exit")
        faulty = _runner(workers=2, retries=2)
        with_fault = faulty.run([Job("fault_crash")] + jobs)
        assert faulty.last_stats.degraded == 1

        for job in jobs:
            a, b = serial[job], with_fault[job]
            assert a.summary() == b.summary()
            assert a.eu_cycles_by_policy() == b.eu_cycles_by_policy()

    def test_queued_jobs_do_not_age_against_the_deadline(self):
        # Regression: jobs were all submitted up front with the deadline
        # clock started at submit time, so any job queued behind a full
        # pool for longer than timeout+grace was condemned as overdue —
        # permanently failed and the whole pool killed — without ever
        # running.  The budget must cover execution only, not queueing.
        runner = _runner(workers=2, timeout=1.0, timeout_grace=0.2,
                         retries=0, strict=False)
        jobs = [Job("fault_sleep", params={"seconds": 0.4 + i / 1000})
                for i in range(8)]  # 4 waves: last waits ~3x the deadline
        results = runner.run(jobs)
        assert len(results) == 8
        assert runner.last_stats.timeouts == 0
        assert runner.last_stats.failed == 0

    def test_retry_backoff_does_not_stall_the_round(self, monkeypatch):
        # Regression: the pool path slept a failed job's retry backoff
        # inside the round's result loop, so no sibling result was
        # recorded and no free worker got the next job until it ended.
        # The backoff is now waited out between rounds.
        monkeypatch.delenv("REPRO_FAULT_MARKER", raising=False)
        monkeypatch.delenv("REPRO_FAULT_MODE", raising=False)
        # Real sleeps, a 2 s base and a seeded draw: the one retry owes
        # min(2.0, 2.0) * U(0.5, 1.0) = 1.639... s exactly.
        monkeypatch.setattr(retry, "sleep", time.sleep)
        monkeypatch.setattr(retry, "BASE", 2.0)
        monkeypatch.setattr(retry, "rng", random.Random(42))
        backoff = 2.0 * 0.8197133992289418
        executed = []

        def hook(event):
            if event.status == "executed":
                executed.append(time.monotonic())

        runner = Runner(workers=2, cache=False, retries=1, strict=False,
                        progress=hook)
        jobs = [Job("fault_crash")] + [
            Job("fault_sleep", params={"seconds": 0.3 + i / 1000})
            for i in range(3)]
        start = time.monotonic()
        runner.run(jobs)
        assert len(executed) == 3
        assert executed[0] - start < backoff
        # The retry still waits its full backoff before running.
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 1
        assert runner.last_stats.wall_seconds >= backoff

    def test_in_worker_timeout_survives_pool(self):
        # The hung job dies inside its worker (typed error through the
        # future); its healthy sibling completes in the same pool.
        runner = _runner(workers=2, timeout=15.0, retries=0, strict=False)
        spin = Job("fault_spin")
        good = Job("va")
        results = runner.run([spin, good])
        assert good in results and spin not in results
        assert isinstance(runner.last_stats.failures[spin.key],
                          JobTimeoutError)


class TestInterrupt:
    def test_keyboard_interrupt_propagates_with_stats(self):
        seen = []

        def hook(event):
            seen.append(event.status)
            raise KeyboardInterrupt

        runner = _runner(workers=1, progress=hook)
        with pytest.raises(KeyboardInterrupt):
            runner.run([Job("va"), Job("dp"), Job("mvm")])
        # Work done before the interrupt is accounted, not lost.
        assert seen == ["executed"]
        assert runner.last_stats.executed == 1

    def test_fault_jobs_never_cached(self, tmp_path):
        from repro.runner import ResultCache

        # The budget only needs to kill fault_spin; keep generous
        # headroom over va's ~0.3s runtime so a loaded machine doesn't
        # spuriously time the real job out.
        runner = Runner(workers=1, cache=ResultCache(tmp_path),
                        timeout=2.0, strict=False)
        runner.run([Job("va"), Job("fault_spin")])
        # va cached; the fault job left nothing behind.
        names = [p.name for p in tmp_path.glob("*/*/*.pkl")]
        assert len(names) == 1 and names[0].startswith("va-")
        assert not Job("fault_spin").cacheable
