"""Pull-based remote worker for the ``repro serve`` fleet.

``repro worker`` points one of these at a running daemon (usually on
another machine): it long-polls ``POST /work/lease`` to claim queued
jobs under a time-bounded, fence-tokened lease, executes each through
the existing :func:`repro.kernels.run_workload` path — the *same*
simulation a foreground ``repro run`` performs, so results are
bit-identical by construction — heartbeats the lease from a background
thread while simulating, and publishes the typed result payload (or a
typed failure from the :mod:`repro.errors` taxonomy) back to the
daemon.

The fleet-shared result cache rides the same loop.  The daemon
answers specs its store already holds without leasing them, so every
grant is a job to simulate.  After executing, the worker publishes the
serialized result to ``POST /cache/{key}`` *before* posting — so a
crash between execution and resolution leaves the answer in the store
— and the result post then names that entry by digest instead of
carrying the blob again.  It keeps the blob until the post lands: when
the publish failed the post carries it, and when the daemon answers a
reference with 404 (the entry is gone) the worker reposts with it.

Crash semantics are the daemon's lease table's business, not ours: a
worker that dies mid-job (``kill -9``, OOM, power loss) simply stops
heartbeating, its lease expires, and the job is reassigned.  A worker
that *survives* a partition may find itself fenced out — its token
stale because the job moved on — in which case every post is rejected
with HTTP 409 and the only correct reaction, implemented here, is to
drop the job on the floor.

Chaos hooks: the ``$REPRO_WORKER_CHAOS`` environment variable injects
faults for the chaos harness (``tests/chaos/``) and the CI
fleet-chaos-smoke job — see :class:`ChaosHooks`.  Production workers
never set it.

Exit codes follow the CLI contract: 0 for a clean exit (drain,
``--max-jobs`` reached, idle timeout, SIGTERM), 7
(:class:`~repro.errors.ServiceError`) when the daemon was never
reachable.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from typing import Any, Dict, Optional

from ..errors import ServiceError, SimulationError, describe, exit_code_for
from .client import ServeClient, ServeClientError
from .jobs import JobSpec, JobState, result_blob, result_payload

#: Environment variable carrying comma-separated chaos fault hooks.
CHAOS_ENV = "REPRO_WORKER_CHAOS"

#: Don't attach a serialized-result blob to posts past this raw size —
#: base64 expansion would blow the daemon's request body bound.
MAX_BLOB_BYTES = 6 << 20

#: Result-post failures worth retrying at the worker level (on top of
#: the client's per-request transparent retry): transport loss (status
#: 0) and server-side transient conditions.  Deterministic rejections
#: (400, 404, 409 fence, 412 salt) never burn a retry.
RETRY_POST_STATUSES = (0, 429, 500, 502, 503)


class ChaosHooks:
    """Parsed fault-injection hooks (``$REPRO_WORKER_CHAOS``).

    Supported hooks (comma-separated; unknown names raise):

    * ``die-after-lease`` — ``os._exit`` right after claiming a job,
      before executing: models a worker crashing at pickup.
    * ``die-before-result`` — execute the job fully, then ``os._exit``
      without posting: models a crash after the side effects ran but
      before the daemon heard about them (the at-least-once case).
    * ``drop-heartbeats`` — the heartbeat thread goes silent: models a
      network partition; the lease expires under a live worker, which
      must then be fenced out.
    * ``die-after-publish`` — execute the job, publish the serialized
      result into the fleet cache, then ``os._exit`` before posting:
      models a crash in the window between cache publish and lease
      resolution (the daemon must resolve the job from its store
      instead of leasing it again).
    * ``dup-result`` — post the result twice: models a retried post
      whose first response was lost; the daemon must answer the second
      idempotently.
    """

    NAMES = ("die-after-lease", "die-before-result", "die-after-publish",
             "drop-heartbeats", "dup-result")

    def __init__(self, spec: str = "") -> None:
        hooks = {part.strip() for part in (spec or "").split(",")
                 if part.strip()}
        unknown = hooks - set(self.NAMES)
        if unknown:
            raise ValueError(
                f"unknown chaos hook(s): {', '.join(sorted(unknown))}; "
                f"expected any of: {', '.join(self.NAMES)}")
        self.die_after_lease = "die-after-lease" in hooks
        self.die_before_result = "die-before-result" in hooks
        self.die_after_publish = "die-after-publish" in hooks
        self.drop_heartbeats = "drop-heartbeats" in hooks
        self.dup_result = "dup-result" in hooks

    @classmethod
    def from_env(cls) -> "ChaosHooks":
        return cls(os.environ.get(CHAOS_ENV, ""))


class _Heartbeater(threading.Thread):
    """Renews one job's lease every *interval* seconds until stopped.

    Transport errors are tolerated (the daemon may be restarting; the
    lease TTL is the real judge of our liveness) but a fence rejection
    is terminal: it means the lease moved on and the executing thread
    must drop its result.
    """

    def __init__(self, client: ServeClient, job_id: str, worker: str,
                 fence: int, interval: float, chaos: ChaosHooks,
                 log) -> None:
        super().__init__(daemon=True,
                         name=f"heartbeat-{job_id}")
        self.client = client
        self.job_id = job_id
        self.worker = worker
        self.fence = fence
        self.interval = interval
        self.chaos = chaos
        self.log = log
        self.fenced = False
        #: The daemon reported the job already terminal (someone else's
        #: post — or our own, with the response lost — resolved it).
        self.terminal = False
        self.sent = 0
        # NB: not named _stop — threading.Thread.join() calls a private
        # _stop() method internally and an Event here would shadow it.
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if self.chaos.drop_heartbeats:
                continue  # chaos: simulate a partitioned worker
            try:
                body = self.client.heartbeat(self.job_id, self.worker,
                                             self.fence)
            except ServeClientError as exc:
                if exc.status == 409:
                    self.fenced = True
                    self.log(f"job {self.job_id}: fenced out "
                             f"(fence {self.fence} stale): {exc}")
                    return
                # Unreachable or 5xx: keep beating; the TTL decides.
            else:
                if body.get("state") in JobState.TERMINAL:
                    self.terminal = True
                    return


class ServeWorker:
    """One fleet worker: lease, heartbeat, execute, publish, repeat.

    Args:
        client: transport to the daemon (its transparent retry policy
            rides along for every lease/heartbeat/result post).
        name: fleet-unique worker identity (defaults to
            ``<hostname>-<pid>``); the daemon keys leases, fences, and
            per-worker metrics by it.
        max_jobs: exit 0 after executing this many jobs — completed,
            failed, and fenced-dropped alike (0 = forever).
        poll_wait: long-poll duration per lease request.
        heartbeat_interval: lease renewal period; defaults to a third
            of the TTL the daemon advertises with each grant.
        exit_on_drain: exit 0 when the daemon reports it is draining.
        idle_exit: exit 0 after this many seconds without work (None =
            wait forever).
        startup_timeout: exit 7 if the daemon was never reachable for
            this long.
        result_post_retries: bounded worker-level retries of a failed
            result post (the worker keeps heartbeating throughout, so
            the lease survives a daemon blip instead of burning an
            assignment on a fully-computed result).
        chaos: fault hooks; defaults to ``$REPRO_WORKER_CHAOS``.
    """

    def __init__(self, client: ServeClient, name: Optional[str] = None,
                 max_jobs: int = 0, poll_wait: float = 5.0,
                 heartbeat_interval: Optional[float] = None,
                 exit_on_drain: bool = False,
                 idle_exit: Optional[float] = None,
                 startup_timeout: float = 60.0,
                 result_post_retries: int = 8,
                 chaos: Optional[ChaosHooks] = None,
                 log=None) -> None:
        self.client = client
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.max_jobs = max(0, int(max_jobs))
        self.poll_wait = max(0.0, float(poll_wait))
        self.heartbeat_interval = heartbeat_interval
        self.exit_on_drain = exit_on_drain
        self.idle_exit = idle_exit
        self.startup_timeout = startup_timeout
        self.result_post_retries = max(0, int(result_post_retries))
        self.chaos = chaos if chaos is not None else ChaosHooks.from_env()
        self.log = log if log is not None else self._log_stderr
        self.completed = 0
        self.failed = 0
        self.fenced_drops = 0
        #: Jobs this worker ran to a conclusion, whatever became of
        #: the post — the ``--max-jobs`` odometer.
        self.executed = 0
        self.published = 0
        self._connected = False
        self._stop = threading.Event()
        self._sleep = time.sleep  # test seam (result-post retry backoff)

    def _log_stderr(self, message: str) -> None:
        print(f"worker {self.name}: {message}", file=sys.stderr, flush=True)

    def stop(self) -> None:
        """Request a graceful exit (finish the current job first)."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful stop (CLI entry point)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, lambda *_: self.stop())
            except ValueError:  # pragma: no cover - non-main thread
                pass

    # -- main loop ---------------------------------------------------------

    def run(self) -> int:
        """Work until stopped; returns the process exit code."""
        started = time.monotonic()
        idle_since = time.monotonic()
        while not self._stop.is_set():
            try:
                body = self.client.lease(self.name, max_jobs=1,
                                         wait=self.poll_wait)
            except ServeClientError as exc:
                now = time.monotonic()
                if (not self._connected
                        and now - started > self.startup_timeout):
                    self.log(f"daemon never reachable: {exc}")
                    return ServiceError.exit_code
                # Unreachable time counts as idle: a worker whose
                # daemon vanished exits bounded under --idle-exit
                # instead of spinning forever.
                if (self.idle_exit is not None
                        and now - idle_since > self.idle_exit):
                    self.log(f"no work for {self.idle_exit:g}s (daemon "
                             f"unreachable); exiting")
                    return 0
                self.log(f"lease request failed ({exc}); retrying")
                time.sleep(min(1.0, self.poll_wait or 1.0))
                continue
            self._connected = True
            leases = body.get("leases", [])
            if not leases:
                if body.get("draining") and self.exit_on_drain:
                    self.log("daemon draining; exiting")
                    return 0
                if (self.idle_exit is not None
                        and time.monotonic() - idle_since > self.idle_exit):
                    self.log(f"idle for {self.idle_exit:g}s; exiting")
                    return 0
                continue
            for grant in leases:
                self._execute(grant)
                idle_since = time.monotonic()
                # Count every executed job — completed, failed, or
                # fenced-dropped — toward the cap: a worker whose jobs
                # all fail must still honor --max-jobs and exit.
                if self.max_jobs and self.executed >= self.max_jobs:
                    self.log(f"executed {self.executed} job(s); exiting")
                    return 0
        self.log("stopped")
        return 0

    # -- one job -----------------------------------------------------------

    def _execute(self, grant: Dict[str, Any]) -> None:
        job_id = grant["id"]
        fence = int(grant["fence"])
        ttl = float(grant.get("lease_ttl", 30.0))
        self.log(f"leased job {job_id} (fence {fence}, ttl {ttl:g}s, "
                 f"assignment {grant.get('assignments')})")
        if self.chaos.die_after_lease:
            os._exit(137)  # chaos: crashed at pickup
        try:
            spec = JobSpec.from_payload(grant.get("spec", {}))
            key = spec.to_job().key  # content address in the fleet cache
        except (KeyError, ValueError) as exc:
            # Version skew: this build can't run the spec; another
            # worker (or the daemon itself) may, so fail transient.
            self._post_failure(job_id, fence,
                               f"ValueError: worker {self.name} cannot "
                               f"build spec: {exc}",
                               ServiceError.exit_code, transient=True)
            return
        interval = self.heartbeat_interval or max(0.05, ttl / 3.0)
        beater = _Heartbeater(self.client, job_id, self.name, fence,
                              interval, self.chaos, self.log)
        beater.start()
        try:
            result, elapsed = self._simulate(spec)
        except Exception as exc:
            beater.stop()
            beater.join()
            self.failed += 1
            self.executed += 1
            if beater.fenced:
                self.fenced_drops += 1
                return  # the job moved on; our failure is nobody's news
            if isinstance(exc, SimulationError):
                self._post_failure(job_id, fence, describe(exc),
                                   exit_code_for(exc),
                                   transient=exc.transient)
            else:  # unclassified: worker-crash taxonomy
                self._post_failure(job_id, fence,
                                   f"WorkerCrashError: worker {self.name} "
                                   f"raised {describe(exc)}", 5,
                                   transient=True)
            return
        payload = result_payload(spec, result)
        blob = result_blob(result)
        # Publish before posting: if we die in between, the answer
        # already lives in the fleet store and the daemon resolves the
        # job from it instead of leasing it again.
        published = self._publish(key, blob, job_id)
        if self.chaos.die_after_publish:
            os._exit(137)  # chaos: crashed between publish and post
        self.executed += 1
        if self.chaos.die_before_result:
            os._exit(137)  # chaos: crashed between execution and post
        if beater.fenced:
            beater.stop()
            beater.join()
            self.fenced_drops += 1
            self.log(f"job {job_id}: dropping result (fenced out mid-job)")
            return
        # The heartbeater stays alive through the post (and its bounded
        # retries): a daemon blip must not cost us the lease while we
        # hold a fully-computed result.
        self._post_result(job_id, fence, payload, elapsed, cache=blob,
                          beater=beater, published=published)
        beater.stop()
        beater.join()

    def _simulate(self, spec: JobSpec):
        """The existing foreground execution path, verbatim."""
        from ..kernels import WORKLOAD_REGISTRY, run_workload

        workload = WORKLOAD_REGISTRY[spec.workload](**dict(spec.params))
        start = time.perf_counter()
        result = run_workload(workload, spec.to_config(),
                              verify=spec.verify)
        elapsed = time.perf_counter() - start
        return result, elapsed

    # -- publish and post --------------------------------------------------

    def _publish(self, key: str, blob: Dict[str, Any], job_id: str) -> bool:
        """Best-effort pre-post publish of a fresh result; True when the
        daemon's store holds the entry afterwards (stored now or
        already there), so the result post can name it by digest."""
        if blob.get("size", 0) > MAX_BLOB_BYTES:
            self.log(f"job {job_id}: result too large to publish "
                     f"({blob['size']} bytes); posting inline only")
            return False
        try:
            body = self.client.cache_publish(key, blob, worker=self.name,
                                             job_id=job_id)
        except ServeClientError as exc:
            self.log(f"job {job_id}: cache publish failed ({exc}); "
                     f"the result post carries the blob")
            return False
        if body.get("stored"):
            self.published += 1
            return True
        return body.get("reason") == "exists"

    def _post_result(self, job_id: str, fence: int,
                     payload: Dict[str, Any], elapsed: float,
                     cache: Optional[Dict[str, Any]] = None,
                     beater: Optional[_Heartbeater] = None,
                     published: bool = False) -> bool:
        """Deliver a computed result; bounded retry on transport loss.

        A fully-computed result is too expensive to drop on a daemon
        blip: transient post failures retry (decaying backoff, the
        heartbeater keeping the lease alive meanwhile) until the post
        lands, we are fenced out, the job turns terminal elsewhere, or
        the retry budget runs dry.  Deterministic rejections — 409
        (stale fence) and 400 — drop immediately; a 412 means the
        *cache blob* crossed a simulator-version boundary, so the post
        is retried once without it (the JSON payload is still valid).

        With *published*, the post names the entry the worker published
        by digest instead of carrying the *cache* blob; a 404 (the
        daemon's store lacks it) reposts once with the blob.
        """
        if cache is not None and cache.get("size", 0) > MAX_BLOB_BYTES:
            cache = None
        sent = ({"digest": cache["digest"]} if published and cache
                else cache)
        posts = 2 if self.chaos.dup_result else 1
        delivered = False
        for duplicate in range(posts):
            attempt = 0
            delay = 0.2
            while True:
                if beater is not None and beater.fenced:
                    self.fenced_drops += 1
                    self.log(f"job {job_id}: dropping result "
                             f"(fenced out during post)")
                    return delivered
                try:
                    self.client.post_result(job_id, self.name, fence,
                                            payload, exec_seconds=elapsed,
                                            cache=sent)
                except ServeClientError as exc:
                    if exc.status == 409:
                        self.fenced_drops += 1
                        self.log(f"job {job_id}: result rejected "
                                 f"(stale fence {fence}); dropped")
                        return delivered
                    if exc.status == 404 and sent is not cache:
                        self.log(f"job {job_id}: daemon lacks the "
                                 f"published entry ({exc}); reposting "
                                 f"with the blob")
                        sent = cache
                        continue
                    if exc.status == 412 and sent is not None:
                        self.log(f"job {job_id}: cache blob rejected "
                                 f"(code-salt skew: {exc}); reposting "
                                 f"without it")
                        sent = cache = None
                        continue
                    if beater is not None and beater.terminal:
                        self.log(f"job {job_id}: already terminal at the "
                                 f"daemon; dropping post")
                        return delivered
                    if (exc.status in RETRY_POST_STATUSES
                            and attempt < self.result_post_retries):
                        attempt += 1
                        self.log(f"job {job_id}: result post failed "
                                 f"({exc}); retry "
                                 f"{attempt}/{self.result_post_retries}")
                        self._sleep(delay)
                        delay = min(2.0, delay * 2.0)
                        continue
                    self.failed += 1
                    self.log(f"job {job_id}: result post failed "
                             f"permanently ({exc}); result lost")
                    return delivered
                if not delivered:
                    delivered = True
                    self.completed += 1
                    self.log(f"job {job_id}: done ({elapsed:.2f}s)")
                break
        return delivered

    def _post_failure(self, job_id: str, fence: int, error: str,
                      exit_code: int, transient: bool) -> None:
        try:
            self.client.post_failure(job_id, self.name, fence, error,
                                     exit_code=exit_code,
                                     transient=transient)
        except ServeClientError as exc:
            if exc.status == 409:
                self.fenced_drops += 1
                return
            self.log(f"job {job_id}: failure post failed: {exc}")
        else:
            self.log(f"job {job_id}: failed ({error})")
