"""Worker-lifecycle regression tests for :class:`repro.serve.ServeWorker`.

Two bugs this file pins down (both must FAIL on the pre-fix worker):

* ``--max-jobs`` counted only *completed* jobs, so a worker whose jobs
  all failed (or were all fenced drops) never exited — it polled
  forever.  The cap now runs on the ``executed`` odometer: every job
  run to a conclusion counts exactly once.
* ``_post_result`` dropped a fully-computed result on ANY non-409
  transport failure — one daemon blip and minutes of simulation went
  in the bin.  The worker now keeps heartbeating and retries the post
  (bounded) until it lands, it is fenced out, the job turns terminal
  elsewhere, or the budget runs dry.

The max-jobs tests drive the real ``run()`` loop against an in-process
scripted fake client; the post-retry tests drive ``_post_result``
against a real flaky HTTP server (the ``tests/test_client_retry.py``
pattern) through a real :class:`ServeClient` with its own transparent
retry disabled, so only the *worker-level* policy is under test.  The
same two harnesses pin the reference post: a published result is
posted by digest, and the blob rides along only when it must.
"""

import http.server
import json
import threading

import pytest

from repro.errors import DeadlockError
from repro.serve import ChaosHooks, ServeWorker
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.worker import RETRY_POST_STATUSES


# -- satellite 1: the --max-jobs odometer --------------------------------


class FakeClient:
    """Scripted duck-typed stand-in for :class:`ServeClient`.

    ``lease()`` pops one pre-scripted grant per call (empty once the
    script runs dry) and counts every poll; posts are recorded, never
    transported.  Publishes store unless ``publish_fails``.
    """

    def __init__(self, grants, publish_fails=False):
        self.grants = list(grants)
        self.lease_calls = 0
        self.failures_posted = []
        self.results_posted = []
        self.caches_posted = []
        self.publish_fails = publish_fails

    def lease(self, worker, max_jobs=1, wait=0.0):
        self.lease_calls += 1
        if self.grants:
            return {"leases": [self.grants.pop(0)]}
        return {"leases": []}

    def heartbeat(self, job_id, worker, fence):
        return {"id": job_id, "state": "running"}

    def cache_publish(self, key, blob, worker="", job_id=""):
        if self.publish_fails:
            raise ServeClientError(503, "scripted publish failure")
        return {"key": key, "stored": True}

    def post_result(self, job_id, worker, fence, result,
                    exec_seconds=0.0, cache=None):
        self.results_posted.append(job_id)
        self.caches_posted.append(cache)
        return {"id": job_id, "state": "done"}

    def post_failure(self, job_id, worker, fence, error,
                     exit_code=None, transient=False):
        self.failures_posted.append(job_id)
        return {"id": job_id, "state": "queued"}


def _grant(n, fence=1):
    return {"id": f"j{n}", "spec": {"workload": "va"}, "fence": fence,
            "lease_ttl": 30.0, "assignments": 1}


def _worker(client, **kwargs):
    kwargs.setdefault("max_jobs", 2)
    kwargs.setdefault("poll_wait", 0.0)
    kwargs.setdefault("heartbeat_interval", 60.0)  # never fires in-test
    kwargs.setdefault("idle_exit", 0.0)  # pre-fix termination backstop
    kwargs.setdefault("chaos", ChaosHooks(""))
    logs = []
    worker = ServeWorker(client, name="wtest", log=logs.append, **kwargs)
    worker.logs = logs
    return worker


class TestMaxJobsOdometer:
    def test_all_failing_jobs_still_honor_max_jobs(self, monkeypatch):
        """THE regression: two leased jobs, both failing in simulation.
        The worker must exit via --max-jobs after the second, without a
        third lease poll.  Pre-fix (cap on ``completed``) it kept
        polling until the idle backstop and never logged the cap."""
        client = FakeClient([_grant(1), _grant(2)])
        worker = _worker(client, max_jobs=2)
        monkeypatch.setattr(
            ServeWorker, "_simulate",
            lambda self, spec: (_ for _ in ()).throw(
                DeadlockError("no runnable warp")))
        assert worker.run() == 0
        assert worker.executed == 2
        assert worker.failed == 2
        assert worker.completed == 0
        assert client.lease_calls == 2  # exited at the cap, no third poll
        assert client.failures_posted == ["j1", "j2"]
        assert any("executed 2 job(s)" in line for line in worker.logs)
        assert not any("idle" in line for line in worker.logs)

    def test_mixed_outcomes_count_once_each(self, monkeypatch):
        """One success + one failure reaches a cap of 2: the odometer
        counts every concluded job exactly once, whatever became of
        its post."""
        client = FakeClient([_grant(1), _grant(2)])
        worker = _worker(client, max_jobs=2)
        outcomes = iter(["ok", "fail"])

        def simulate(self, spec):
            if next(outcomes) == "fail":
                raise DeadlockError("no runnable warp")
            from repro.kernels import WORKLOAD_REGISTRY, run_workload
            workload = WORKLOAD_REGISTRY[spec.workload]()
            return run_workload(workload, spec.to_config()), 0.01

        monkeypatch.setattr(ServeWorker, "_simulate", simulate)
        assert worker.run() == 0
        assert worker.executed == 2
        assert worker.completed == 1
        assert worker.failed == 1
        assert client.lease_calls == 2


def _simulate_va(self, spec):
    from repro.kernels import WORKLOAD_REGISTRY, run_workload
    workload = WORKLOAD_REGISTRY[spec.workload]()
    return run_workload(workload, spec.to_config()), 0.01


class TestReferencePost:
    def test_published_result_is_posted_by_digest(self, monkeypatch):
        """The blob crosses the wire once, in the publish: the result
        post names the stored entry by its buffer digest."""
        client = FakeClient([_grant(1)])
        worker = _worker(client, max_jobs=1)
        monkeypatch.setattr(ServeWorker, "_simulate", _simulate_va)
        assert worker.run() == 0
        assert worker.published == 1
        assert worker.completed == 1
        [cache] = client.caches_posted
        assert set(cache) == {"digest"}
        assert len(cache["digest"]) == 64

    def test_failed_publish_posts_the_blob(self, monkeypatch):
        client = FakeClient([_grant(1)], publish_fails=True)
        worker = _worker(client, max_jobs=1)
        monkeypatch.setattr(ServeWorker, "_simulate", _simulate_va)
        assert worker.run() == 0
        assert worker.published == 0
        [cache] = client.caches_posted
        assert cache["data"] and cache["salt"]


# -- satellite 2: result-post retry --------------------------------------


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Answers per the server's script; counts and keeps every
    arrival's JSON body."""

    def _serve(self):
        server = self.server
        server.hits += 1
        length = int(self.headers.get("Content-Length") or 0)
        server.bodies.append(json.loads(self.rfile.read(length) or "null"))
        status = server.script.pop(0) if server.script else "200"
        if status == "reset":
            self.connection.close()
            return
        body = json.dumps({"id": "j1", "state": "done"}
                          if int(status) < 400 else
                          {"error": f"scripted {status}"}).encode()
        self.send_response(int(status))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def flaky():
    """A scripted server; yields (server, make_worker)."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _FlakyHandler)
    server.script = []
    server.hits = 0
    server.bodies = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def make_worker(**kwargs):
        # max_retries=0: the client's transparent retry is OFF, so
        # every re-post observed by the server is the *worker's* doing.
        client = ServeClient(host="127.0.0.1",
                             port=server.server_address[1],
                             timeout=5.0, max_retries=0)
        kwargs.setdefault("result_post_retries", 4)
        kwargs.setdefault("chaos", ChaosHooks(""))
        logs = []
        worker = ServeWorker(client, name="wtest", log=logs.append,
                             **kwargs)
        worker.logs = logs
        sleeps = []
        worker._sleep = sleeps.append  # no real waiting in tests
        worker.sleeps = sleeps
        return worker

    try:
        yield server, make_worker
    finally:
        server.shutdown()
        server.server_close()


PAYLOAD = {"schema": 1, "workload": "va", "buffers_digest": "d" * 64}


class TestResultPostRetry:
    def test_transient_failures_retry_until_delivered(self, flaky):
        """THE regression: a computed result must survive daemon blips.
        Two transport failures then success — pre-fix the first error
        dropped the result (failed=1, one hit); now it lands."""
        server, make_worker = flaky
        server.script = ["reset", "500", "200"]
        worker = make_worker()
        assert worker._post_result("j1", 1, PAYLOAD, 0.5) is True
        assert server.hits == 3
        assert worker.completed == 1
        assert worker.failed == 0
        assert len(worker.sleeps) == 2  # backed off between re-posts

    def test_backoff_decays_and_respects_budget(self, flaky):
        """All-transient script: the worker posts 1 + budget times with
        doubling (capped) backoff, then gives the result up as lost."""
        server, make_worker = flaky
        server.script = ["503"] * 10
        worker = make_worker(result_post_retries=3)
        assert worker._post_result("j1", 1, PAYLOAD, 0.5) is False
        assert server.hits == 4  # initial + 3 retries
        assert worker.failed == 1
        assert worker.completed == 0
        assert worker.sleeps == [0.2, 0.4, 0.8]
        assert any("result lost" in line for line in worker.logs)

    def test_fence_rejection_drops_immediately(self, flaky):
        """409 is deterministic — the job moved on; no retry burned."""
        server, make_worker = flaky
        server.script = ["409", "200"]
        worker = make_worker()
        assert worker._post_result("j1", 1, PAYLOAD, 0.5) is False
        assert server.hits == 1
        assert worker.fenced_drops == 1
        assert worker.sleeps == []

    def test_salt_skew_reposts_once_without_blob(self, flaky):
        """412 condemns only the cache blob: the worker strips it and
        the very next post (same JSON payload) succeeds."""
        server, make_worker = flaky
        server.script = ["412", "200"]
        worker = make_worker()
        blob = {"encoding": "pickle+base64", "salt": "s", "digest": "d",
                "size": 3, "data": "AAAA"}
        assert worker._post_result("j1", 1, PAYLOAD, 0.5,
                                   cache=blob) is True
        assert server.hits == 2
        assert worker.completed == 1
        assert worker.sleeps == []  # not a backoff retry

    def test_retry_statuses_cover_transport_loss(self):
        """Status 0 (unreachable / reset) must stay retryable — it is
        exactly the daemon-restart window satellite 2 is about."""
        assert 0 in RETRY_POST_STATUSES
        assert 409 not in RETRY_POST_STATUSES
        assert 412 not in RETRY_POST_STATUSES

    def test_reference_miss_reposts_with_the_blob(self, flaky):
        """404 on a reference post: the daemon's store lacks the entry,
        so the worker reposts once with the blob it kept — not a
        backoff retry."""
        server, make_worker = flaky
        server.script = ["404", "200"]
        worker = make_worker()
        blob = {"encoding": "pickle+base64", "salt": "s", "digest": "d",
                "size": 3, "data": "AAAA"}
        assert worker._post_result("j1", 1, PAYLOAD, 0.5, cache=blob,
                                   published=True) is True
        assert [body["cache"] for body in server.bodies] == [
            {"digest": "d"}, blob]
        assert worker.completed == 1
        assert worker.sleeps == []

    def test_reference_digest_mismatch_drops_without_repost(self, flaky):
        """400 (the stored entry's digest disagrees with the payload)
        is deterministic: no blob repost, no retry."""
        server, make_worker = flaky
        server.script = ["400", "200"]
        worker = make_worker()
        blob = {"encoding": "pickle+base64", "salt": "s", "digest": "d",
                "size": 3, "data": "AAAA"}
        assert worker._post_result("j1", 1, PAYLOAD, 0.5, cache=blob,
                                   published=True) is False
        assert server.hits == 1
        assert worker.failed == 1
        assert worker.sleeps == []

    def test_unpublished_404_is_not_reposted(self, flaky):
        """Without a reference there is nothing to swap in: a 404 (an
        unknown job) loses the result at once."""
        server, make_worker = flaky
        server.script = ["404", "200"]
        worker = make_worker()
        assert worker._post_result("j1", 1, PAYLOAD, 0.5) is False
        assert server.hits == 1
