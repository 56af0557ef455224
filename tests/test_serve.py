"""Service-level tests for the ``repro serve`` job service.

Exercises :class:`repro.serve.JobService` directly (no HTTP): in-flight
dedup proven with an execution-counting fault workload, cancellation of
queued jobs (including primary promotion), journal recovery across a
simulated restart, and the typed admission-control errors.
"""

import asyncio
import time

import pytest

from repro.errors import QueueFullError, RateLimitError
from repro.serve import (
    JobService,
    JobSpec,
    JobState,
    NotCancellableError,
    RateLimiter,
    UnknownJobError,
)
from repro.serve.service import LOCAL_WORKER

#: Terminal wait budget for locally-run jobs (generous for slow CI).
WAIT = 120.0


def _service(tmp_path, **kwargs):
    kwargs.setdefault("cache", tmp_path / "cache")
    return JobService(tmp_path / "data", **kwargs)


def _count_spec(counter, sleep=0.0, **extra):
    """A fault_count submission: every *execution* appends one line."""
    params = {"counter": str(counter)}
    if sleep:
        params["sleep"] = sleep
    return {"workload": "fault_count", "params": params, **extra}


def _lines(counter):
    try:
        return counter.read_text().splitlines()
    except OSError:
        return []


async def _wait(record, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while record.state not in JobState.TERMINAL:
        assert time.monotonic() < deadline, (
            f"job {record.id} stuck in {record.state}")
        await asyncio.sleep(0.01)
    return record


async def _wait_state(record, state, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while record.state != state:
        assert time.monotonic() < deadline, (
            f"job {record.id} is {record.state}, wanted {state}")
        await asyncio.sleep(0.01)
    return record


class TestDedup:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two identical in-flight submissions -> one execution, two
        identical results (the tentpole's core claim, proven by the
        never-cached counting workload)."""
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            first = service.submit(_count_spec(counter, sleep=0.3))
            await service.start()
            # Catch the primary mid-flight, then submit its duplicate.
            await _wait_state(first, JobState.RUNNING)
            second = service.submit(_count_spec(counter, sleep=0.3))
            assert second.dedup_of == first.id
            await _wait(first)
            await _wait(second)
            await service.drain()
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first.state == JobState.DONE
        assert second.state == JobState.DONE
        assert len(_lines(counter)) == 1  # exactly one simulation
        assert first.result == second.result
        assert first.result["buffers_digest"] == second.result["buffers_digest"]
        assert service.counters.get("serve.jobs.submitted") == 2
        assert service.counters.get("serve.jobs.deduped") == 1
        assert service.counters.get("serve.jobs.executed") == 1

    def test_queued_duplicates_collapse_before_dispatch(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            records = [service.submit(_count_spec(counter))
                       for _ in range(3)]
            await service.start()
            for record in records:
                await _wait(record)
            await service.drain()
            return service, records

        service, records = asyncio.run(scenario())
        assert [r.state for r in records] == [JobState.DONE] * 3
        assert len(_lines(counter)) == 1
        assert records[1].dedup_of == records[0].id
        assert records[2].dedup_of == records[0].id
        assert service.counters.get("serve.jobs.deduped") == 2

    def test_different_specs_do_not_dedup(self, tmp_path):
        a_file, b_file = tmp_path / "a.txt", tmp_path / "b.txt"

        async def scenario():
            service = _service(tmp_path)
            a = service.submit(_count_spec(a_file))
            b = service.submit(_count_spec(b_file))
            assert b.dedup_of is None
            await service.start()
            await _wait(a)
            await _wait(b)
            await service.drain()
            return a, b

        a, b = asyncio.run(scenario())
        assert len(_lines(a_file)) == 1
        assert len(_lines(b_file)) == 1
        # Same kernel, different counter file -> different content keys.
        assert a.key != b.key


class TestCancel:
    def test_cancel_while_queued_never_executes(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            record = service.submit(_count_spec(counter))
            cancelled = service.cancel(record.id)
            assert cancelled.state == JobState.CANCELLED
            # Start after cancelling: the dispatcher must skip it.
            await service.start()
            await service.drain()
            return service, record

        service, record = asyncio.run(scenario())
        assert record.state == JobState.CANCELLED
        assert _lines(counter) == []  # never simulated
        assert service.counters.get("serve.jobs.cancelled") == 1
        assert service.counters.get("serve.jobs.executed") == 0

    def test_cancel_primary_promotes_subscriber(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            primary = service.submit(_count_spec(counter))
            subscriber = service.submit(_count_spec(counter))
            assert subscriber.dedup_of == primary.id
            service.cancel(primary.id)
            # The duplicate is still owed a result: it takes over.
            assert subscriber.dedup_of is None
            await service.start()
            await _wait(subscriber)
            await service.drain()
            return primary, subscriber

        primary, subscriber = asyncio.run(scenario())
        assert primary.state == JobState.CANCELLED
        assert subscriber.state == JobState.DONE
        assert len(_lines(counter)) == 1

    def test_cancel_subscriber_leaves_primary(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            primary = service.submit(_count_spec(counter))
            subscriber = service.submit(_count_spec(counter))
            service.cancel(subscriber.id)
            await service.start()
            await _wait(primary)
            await service.drain()
            return primary, subscriber

        primary, subscriber = asyncio.run(scenario())
        assert primary.state == JobState.DONE
        assert subscriber.state == JobState.CANCELLED
        assert len(_lines(counter)) == 1

    def test_terminal_and_unknown_jobs_not_cancellable(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            record = service.submit({"workload": "va"})
            await service.start()
            await _wait(record)
            with pytest.raises(NotCancellableError):
                service.cancel(record.id)
            with pytest.raises(UnknownJobError):
                service.cancel("j99999-nope")
            await service.drain()

        asyncio.run(scenario())


class TestJournalRecovery:
    def test_unresolved_jobs_requeue_on_restart(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def before():
            service = _service(tmp_path)
            # Submitted but never dispatched: the daemon "crashes" here.
            service.submit(_count_spec(counter))
            service.submit(_count_spec(counter))  # its duplicate

        asyncio.run(before())

        async def after():
            service = _service(tmp_path)
            assert service.counters.get("serve.jobs.recovered") == 2
            records = service.list_jobs()
            assert [r.state for r in records] == [JobState.QUEUED] * 2
            # Dedup linkage is rebuilt from the journal order.
            assert records[1].dedup_of == records[0].id
            await service.start()
            for record in records:
                await _wait(record)
            await service.drain()
            return records

        records = asyncio.run(after())
        assert [r.state for r in records] == [JobState.DONE] * 2
        assert len(_lines(counter)) == 1

    def test_resolved_jobs_survive_restart_with_results(self, tmp_path):
        async def before():
            service = _service(tmp_path)
            await service.start()
            record = service.submit({"workload": "va", "policy": "scc"})
            await _wait(record)
            await service.drain()
            return record

        first = asyncio.run(before())
        assert first.state == JobState.DONE

        reborn = _service(tmp_path)
        record = reborn.get(first.id)
        assert record.state == JobState.DONE
        assert record.result == first.result
        assert reborn.counters.get("serve.jobs.recovered") == 0

    def test_cancelled_jobs_stay_cancelled_after_restart(self, tmp_path):
        async def before():
            service = _service(tmp_path)
            record = service.submit({"workload": "va"})
            service.cancel(record.id)
            return record

        first = asyncio.run(before())
        reborn = _service(tmp_path)
        assert reborn.get(first.id).state == JobState.CANCELLED
        assert len(reborn.list_jobs(state=JobState.QUEUED)) == 0


class TestLocalHolder:
    """The daemon's own executor is a lease holder named ``local``."""

    def test_local_run_journals_lease_and_resolve(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            record = service.submit({"workload": "va", "policy": "scc"})
            await _wait(record)
            await service.drain()
            return service, record

        service, record = asyncio.run(scenario())
        assert record.state == JobState.DONE
        assert record.worker == LOCAL_WORKER
        events = {e["event"]: e for e in service.journal.load()
                  if e["id"] == record.id}
        assert events["lease"]["worker"] == LOCAL_WORKER
        assert events["resolve"]["worker"] == LOCAL_WORKER
        assert events["resolve"]["fence"] == events["lease"]["fence"]
        assert events["lease"]["assignments"] == 1
        workers = service.metrics()["fleet"]["workers"]
        assert workers[LOCAL_WORKER]["completed"] == 1
        assert len(service.leases) == 0
        # However long the daemon idles, its executor is not retired.
        later = time.time() + 2 * service.worker_retire_horizon
        service._now = lambda: later
        service.expire_leases()
        assert LOCAL_WORKER in service.metrics()["fleet"]["workers"]

    def test_dead_daemons_local_lease_requeues_and_runs_once(self, tmp_path):
        """A journal still holding a ``local`` lease (daemon killed
        mid-batch) comes back QUEUED at once — no deadline to wait out —
        and the job then executes exactly once."""
        counter = tmp_path / "count.txt"

        async def before():
            service = _service(tmp_path)
            record = service.submit(_count_spec(counter))
            duplicate = service.submit(_count_spec(counter))
            # The local executor's claim; the daemon dies before running.
            grants = service._grant_jobs(LOCAL_WORKER, 1)
            assert [g["id"] for g in grants] == [record.id]
            return record.id, duplicate.id

        job_id, dup_id = asyncio.run(before())
        assert not _lines(counter)

        async def after():
            service = _service(tmp_path)
            record, duplicate = service.get(job_id), service.get(dup_id)
            assert record.state == JobState.QUEUED
            assert duplicate.state == JobState.QUEUED
            assert duplicate.dedup_of == job_id
            assert len(service.leases) == 0
            assert service.counters.get("serve.leases.reassigned") == 1
            await service.start()
            await _wait(record)
            await _wait(duplicate)
            await service.drain()
            return record, duplicate

        record, duplicate = asyncio.run(after())
        assert record.state == duplicate.state == JobState.DONE
        assert record.assignments == 2
        assert len(_lines(counter)) == 1

    def test_dead_daemons_local_lease_at_bound_fails_typed(self, tmp_path):
        counter = tmp_path / "count.txt"
        service = _service(tmp_path, max_assignments=1)
        record = service.submit(_count_spec(counter))
        service._grant_jobs(LOCAL_WORKER, 1)

        reborn = _service(tmp_path, max_assignments=1)
        record = reborn.get(record.id)
        assert record.state == JobState.FAILED
        assert record.exit_code == 5
        assert record.error.startswith("WorkerCrashError")
        assert not _lines(counter)

    def test_runner_crash_fails_the_batch_and_frees_its_leases(
            self, tmp_path):
        """A runner that dies outright (not one job failing) fails every
        job of its batch through the fenced path; no ``local`` lease is
        left behind, since those never expire."""
        async def scenario():
            service = _service(tmp_path)

            def crash(jobs, strict=None):
                raise RuntimeError("pool exploded")

            service.runner.run = crash
            await service.start()
            records = [service.submit({"workload": w}) for w in ("va", "dp")]
            for record in records:
                await _wait(record)
            await service.drain()
            return service, records

        service, records = asyncio.run(scenario())
        for record in records:
            assert record.state == JobState.FAILED
            assert record.error == "RuntimeError: pool exploded"
        assert len(service.leases) == 0
        assert service.metrics()["fleet"]["workers"][LOCAL_WORKER][
            "failed"] == 2

    def test_remote_workers_cannot_lease_as_local(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            service.submit({"workload": "va"})
            with pytest.raises(ValueError, match="reserved"):
                await service.lease(LOCAL_WORKER)

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_queue_full_raises_typed_503(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, queue_limit=1)
            service.submit({"workload": "va"})
            with pytest.raises(QueueFullError) as excinfo:
                service.submit({"workload": "dp"})
            assert excinfo.value.http_status == 503
            # A duplicate of the queued job adds no work: still admitted.
            duplicate = service.submit({"workload": "va"})
            assert duplicate.dedup_of is not None
            assert service.counters.get(
                "serve.jobs.rejected.queue_full") == 1

        asyncio.run(scenario())

    def test_rate_limit_raises_typed_429(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, rate_limit=1.0, rate_burst=1)
            service.submit({"workload": "va"}, client="alice")
            with pytest.raises(RateLimitError) as excinfo:
                service.submit({"workload": "dp"}, client="alice")
            assert excinfo.value.http_status == 429
            # Rate limits are per client identity.
            service.submit({"workload": "dp"}, client="bob")

        asyncio.run(scenario())

    def test_draining_rejects_submissions(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            await service.drain()
            with pytest.raises(QueueFullError):
                service.submit({"workload": "va"})

        asyncio.run(scenario())

    def test_rate_limiter_refills(self):
        limiter = RateLimiter(rate=10.0, burst=1)
        assert limiter.allow("c", now=0.0)
        assert not limiter.allow("c", now=0.01)
        assert limiter.allow("c", now=0.2)  # 0.19s * 10/s > 1 token


class TestSpecValidation:
    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"workload": "no_such_workload"},
        {"workload": "va", "policy": "warp-drive"},
        {"workload": "va", "engine": "jit"},
        {"workload": "va", "telemetry": "firehose"},
        {"workload": "va", "dc_lines_per_cycle": 0},
        {"workload": "va", "max_cycles": -5},
        {"workload": "va", "params": [1, 2]},
        {"workload": "va", "surprise": True},
    ])
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            JobSpec.from_payload(payload)

    def test_spec_compiles_to_content_keyed_job(self):
        spec = JobSpec.from_payload({
            "workload": "va", "policy": "scc", "engine": "fast",
            "telemetry": "counters", "dc_lines_per_cycle": 2.0,
            "perfect_l3": True, "max_cycles": 1000,
            "params": {"n": 32}})
        job = spec.to_job()
        assert job.key == spec.to_job().key
        assert JobSpec.from_payload(spec.as_dict()) == spec

    def test_timing_split_recorded(self, tmp_path):
        """queue_wait and exec_seconds are separate, both recorded."""
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            record = service.submit({"workload": "va"})
            await _wait(record)
            await service.drain()
            return record

        record = asyncio.run(scenario())
        assert record.queue_wait is not None and record.queue_wait >= 0.0
        assert record.exec_seconds is not None and record.exec_seconds > 0.0
        status = record.as_status()
        assert status["queue_wait_seconds"] == record.queue_wait
        assert status["exec_seconds"] == record.exec_seconds
