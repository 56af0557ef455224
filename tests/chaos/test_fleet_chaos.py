"""Chaos harness for the multi-host worker fleet.

Real processes, real SIGKILL: every scenario here runs a ``repro
serve`` daemon and ``repro worker`` subprocesses, injects one fault —
a worker killed mid-job, a partitioned worker whose heartbeats vanish,
a duplicated result post, the daemon itself crashing mid-fleet — and
asserts the fleet's contract:

* every surviving result is bit-identical to a foreground run;
* no job executes more times than its assignment count (and never
  more than the reassignment bound);
* zombie completions are fence-rejected, never silently merged.
"""

import time

from fleet_harness import Daemon, start_worker, wait_for

#: Worst-case terminal wait (slow CI).
WAIT = 120.0


def _count_spec(counter, sleep=0.0):
    params = {"counter": str(counter)}
    if sleep:
        params["sleep"] = sleep
    return {"workload": "fault_count", "params": params}


def _tally(counter):
    try:
        return counter.read_text().splitlines()
    except OSError:
        return []


def _job_events(daemon, job_id):
    """The journaled event kinds of one job, in order."""
    from repro.serve.journal import ServeJournal

    return [entry["event"] for entry in
            ServeJournal(daemon.data_dir / "jobs.jsonl").load()
            if entry["id"] == job_id]


def _foreground_payload(spec_body):
    """The result a plain in-process run produces for *spec_body* —
    the bit-identity reference every chaos survivor must match."""
    import json

    from repro.kernels import WORKLOAD_REGISTRY, run_workload
    from repro.serve.jobs import JobSpec, result_payload

    spec = JobSpec.from_payload(spec_body)
    workload = WORKLOAD_REGISTRY[spec.workload](**dict(spec.params))
    result = run_workload(workload, spec.to_config(), verify=spec.verify)
    # Round-trip through JSON exactly like a worker's HTTP post does.
    return json.loads(json.dumps(result_payload(spec, result)))


class TestWorkerKill9:
    def test_kill9_mid_job_reassigns_and_completes_exactly_once(
            self, daemon, tmp_path):
        """SIGKILL a worker mid-simulation: the lease expires, a peer
        picks the job up, and the tally shows exactly one execution
        per assignment — at-least-once work, exactly-once completion."""
        client = daemon.client()
        counter = tmp_path / "tally.txt"
        job = client.submit(_count_spec(counter, sleep=3.0))
        victim = daemon.worker("w1")
        # Wait for w1's tally line, not just the lease: fault_count
        # appends its pid *before* sleeping, so one line means w1 is
        # past the cache probe and inside the 3-second window.
        wait_for(lambda: len(_tally(counter)) == 1,
                 message="w1 to start executing the job")
        victim.kill()  # SIGKILL, mid-sleep
        victim.wait(timeout=30.0)
        daemon.worker("w2")
        final = client.watch(job["id"], timeout=WAIT)
        assert final["state"] == "done"
        assert final["worker"] == "w2"
        assert final["assignments"] == 2
        pids = _tally(counter)
        assert len(pids) == 2  # one execution per assignment, no more
        assert len(set(pids)) == 2  # by two different processes
        counters = client.metrics()["counters"]
        assert counters["serve.leases.expired"] >= 1
        assert counters["serve.leases.reassigned"] >= 1

    def test_crash_after_execution_result_is_bit_identical(
            self, daemon, tmp_path):
        """A worker that dies *between* executing and posting
        (die-before-result) has already published, so once its lease
        expires the daemon resolves the job from its store at the
        survivor's next lease poll; the surviving result must equal a
        foreground run bit for bit."""
        spec_body = {"workload": "va"}
        client = daemon.client()
        job = client.submit(spec_body)
        daemon.worker("w1", chaos="die-before-result")
        wait_for(lambda: client.metrics()["counters"].get(
            "serve.cache.published", 0) >= 1,
            message="w1 to execute and publish")
        daemon.worker("w2")  # the survivor
        final = client.watch(job["id"], timeout=WAIT)
        assert final["state"] == "done"
        assert final["cache_hit"] is True
        assert final["assignments"] == 1
        body = client.result(job["id"])
        assert body["result"] == _foreground_payload(spec_body)


class TestZombieWorker:
    def test_partitioned_workers_late_result_is_fence_rejected(
            self, daemon, tmp_path):
        """drop-heartbeats: the worker stays alive but silent, loses
        its lease mid-run, and its eventual post must bounce off the
        fence — the reassigned run's result is the one that lands."""
        client = daemon.client()
        counter = tmp_path / "tally.txt"
        job = client.submit(_count_spec(counter, sleep=5.0))
        daemon.worker("w1", chaos="drop-heartbeats")
        wait_for(lambda: client.status(job["id"]).get("worker") == "w1",
                 message="w1 to lease the job")
        daemon.worker("w2")
        final = client.watch(job["id"], timeout=WAIT)
        assert final["state"] == "done"
        assert final["worker"] == "w2"
        # The zombie eventually posts (its sleep ends) and is bounced.
        wait_for(lambda: client.metrics()["counters"].get(
            "serve.leases.fence_rejected", 0) >= 1,
            message="the zombie's late post to be fence-rejected")
        assert client.status(job["id"])["worker"] == "w2"  # unclobbered
        assert len(_tally(counter)) == 2


class TestDuplicateResultPost:
    def test_duplicate_post_is_answered_idempotently(self, daemon,
                                                     tmp_path):
        """dup-result: the worker posts its result twice (a retry whose
        first response was lost); the daemon resolves the job once and
        answers the echo without a fence rejection."""
        client = daemon.client()
        counter = tmp_path / "tally.txt"
        job = client.submit(_count_spec(counter))
        daemon.worker("w1", chaos="dup-result")
        final = client.watch(job["id"], timeout=WAIT)
        assert final["state"] == "done"
        assert final["worker"] == "w1"
        counters = client.metrics()["counters"]
        assert counters["serve.work.duplicate_results"] == 1.0
        assert counters.get("serve.leases.fence_rejected", 0) == 0
        assert counters["serve.jobs.executed"] == 1.0
        assert len(_tally(counter)) == 1


class TestDaemonCrash:
    def test_daemon_kill9_mid_fleet_worker_finishes_across_restart(
            self, tmp_path):
        """SIGKILL the *daemon* while a worker is mid-job, restart it
        on the same journal: the lease is replayed, the worker (which
        retried through the outage) posts under its original fence,
        and the job completes without ever being re-executed."""
        daemon = Daemon(tmp_path, "--no-local-exec", "--lease-ttl", "10")
        daemon.start()
        worker = None
        try:
            client = daemon.client()
            counter = tmp_path / "tally.txt"
            job = client.submit(_count_spec(counter, sleep=6.0))

            worker = start_worker(daemon.port, "w1",
                                  log=tmp_path / "w1.log")
            wait_for(lambda: client.status(job["id"]).get("worker") == "w1",
                     message="w1 to lease the job")
            daemon.kill9()
            time.sleep(1.0)  # the fleet runs ownerless for a moment
            daemon.restart()
            client = daemon.client()
            assert client.metrics()["counters"][
                "serve.leases.restored"] == 1.0
            final = client.watch(job["id"], timeout=WAIT)
            assert final["state"] == "done"
            assert final["worker"] == "w1"
            assert final["assignments"] == 1  # never reassigned
            assert len(_tally(counter)) == 1  # never re-executed
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
                worker.wait(timeout=30.0)
            if daemon.proc.poll() is None:
                daemon.terminate()


class TestCachePublishCrash:
    def test_die_after_publish_serves_reassigned_run_from_cache(
            self, daemon, tmp_path):
        """SIGKILL the worker in the window between its cache publish
        and its result post (die-after-publish): the lease expires, and
        the next grant finds the *published* result in the daemon's
        store and resolves the job from it — no second lease, and the
        tally shows exactly ONE execution.  A daemon restart plus
        resubmission of the same spec then resolves at admission: still
        one tally line, zero new leases or simulations."""
        client = daemon.client()
        counter = tmp_path / "tally.txt"
        spec_body = _count_spec(counter)
        job = client.submit(spec_body)
        daemon.worker("w1", chaos="die-after-publish")
        # w1 executes, publishes, dies before posting.
        wait_for(lambda: client.metrics()["counters"].get(
            "serve.cache.published", 0) >= 1,
            message="w1 to publish its result into the fleet cache")
        assert len(_tally(counter)) == 1  # executed exactly once so far
        daemon.worker("w2")
        final = client.watch(job["id"], timeout=WAIT)
        assert final["state"] == "done"
        assert final["assignments"] == 1  # w1's lease was the only one
        assert len(_tally(counter)) == 1  # never re-executed
        assert final["cache_hit"] is True
        counters = client.metrics()["counters"]
        assert counters["serve.leases.granted"] == 1
        # w1's real execution died before its post, and the store
        # answered the requeued job: nothing books under jobs.executed.
        assert counters.get("serve.jobs.executed", 0) == 0
        assert counters.get("serve.jobs.cache_hits", 0) == 1
        events = _job_events(daemon, job["id"])
        assert events.count("lease") == 1
        assert events.count("resolve") == 1
        assert events[-1] == "resolve"
        assert events.index("publish") < events.index("expire")

        # Daemon restart + resubmission: the store outlives the daemon.
        daemon.kill9()
        daemon.restart()
        client = daemon.client()
        again = client.submit(spec_body)
        assert again["id"] != job["id"]
        assert again["state"] == "done"  # resolved inside the submit
        assert again["cache_hit"] is True
        assert len(_tally(counter)) == 1  # STILL one execution, ever
        counters = client.metrics()["counters"]
        assert counters.get("serve.leases.granted", 0) == 0
        assert counters.get("serve.jobs.cache_hits", 0) == 1
        assert _job_events(daemon, again["id"]) == ["submit", "resolve"]

    def test_cache_served_result_is_bit_identical(self, daemon, tmp_path):
        """The result the daemon serves from the published entry must
        equal a foreground run bit for bit — same contract as a
        re-execution, without the execution."""
        spec_body = {"workload": "va", "policy": "bcc"}
        client = daemon.client()
        job = client.submit(spec_body)
        daemon.worker("w1", chaos="die-after-publish")
        wait_for(lambda: client.metrics()["counters"].get(
            "serve.cache.published", 0) >= 1,
            message="w1 to publish its result into the fleet cache")
        daemon.worker("w2")
        final = client.watch(job["id"], timeout=WAIT)
        assert final["state"] == "done"
        assert final["cache_hit"] is True
        assert final["assignments"] == 1
        counters = client.metrics()["counters"]
        assert counters.get("serve.jobs.cache_hits", 0) == 1
        assert counters["serve.leases.granted"] == 1
        body = client.result(job["id"])
        assert body["result"] == _foreground_payload(spec_body)
