"""The ``repro serve`` job service: queue, dedup, journal, metrics.

This is the daemon's engine room, deliberately independent of HTTP so
it can be driven directly by tests (and embedded elsewhere).  Every job
that runs is leased by :meth:`JobService._grant_jobs` and resolved by
the fenced :meth:`JobService.complete_remote` /
:meth:`JobService.fail_remote`, whoever runs it; a job the result store
already answers is resolved without a lease.  The daemon's own
executor is the lease holder :data:`LOCAL_WORKER`: it claims up to
``batch_max`` jobs at a time and feeds them to the existing
:class:`repro.runner.Runner` — inheriting
its process-pool fan-out, content-keyed result cache, typed failures,
bounded retries and per-job watchdog wholesale.  Its leases have no
deadline (they last as long as the daemon; a restarted daemon requeues
its predecessor's).  The service layer adds what a long-lived daemon
needs on top:

* **in-flight dedup** — a submission whose content key matches a
  queued/running job becomes a *subscriber* of that job: one execution,
  N identical results (the runner's cache only collapses *completed*
  duplicates; this collapses concurrent ones);
* **a durable job journal** (:class:`~repro.serve.journal.ServeJournal`)
  so a restarted daemon recovers submitted and completed state;
* **admission control** — a bounded queue (:class:`QueueFullError`,
  HTTP 503) and per-client token-bucket rate limiting
  (:class:`RateLimitError`, HTTP 429);
* **graceful drain** — stop admitting, finish the running batch, leave
  queued jobs journaled for the next daemon;
* **fleet coordination** — remote ``repro worker`` processes claim
  queued jobs under time-bounded, fence-tokened leases
  (:class:`~repro.serve.leases.LeaseTable`); a worker that misses its
  heartbeat deadline (crash, partition, ``kill -9``) has its jobs
  reassigned — to another worker or the local executor — with stale
  fenced posts rejected, a bounded assignment count before the job is
  failed as :class:`~repro.errors.WorkerCrashError`, and every lease
  transition journaled so a restarted daemon rebuilds in-flight lease
  state;
* **answers from its own store** — the runner's sharded
  :class:`~repro.runner.ResultCache` is the fleet's one result store.
  A submission whose content key is neither queued nor running but is
  stored resolves at admission as a cache hit (one ``submit`` + one
  ``resolve`` journal record, no queue slot, no lease); the lease grant
  repeats the check, covering a worker that published and then died.
  Workers publish fresh results over ``POST /cache/{key}``
  (salt-gated, digest-verified) and then post the result naming the
  stored entry by digest; a post that carries the blob instead (the
  publish failed) is persisted before subscribers resolve.  So N
  workers x one grid is exactly one execution per point fleet-wide,
  and post-restart resubmissions (or a foreground ``repro run`` over
  the same cache dir) are cache hits;
* **service metrics** — a telemetry
  :class:`~repro.telemetry.counters.CounterRegistry` of
  submitted/deduped/cache-hit/executed/failed/recovered counts plus
  queue depth, worker occupancy, and the fleet's lease/worker gauges,
  served at ``GET /metrics``.

Queue wait and execution time are tracked separately per job (the PR-3
deadline fix made that split load-bearing): ``queue_wait`` is
everything between submission and the simulation starting, and
``exec_seconds`` is the simulation alone.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    CacheCorruptionError,
    CacheMissError,
    CodeSaltMismatchError,
    FenceRejectedError,
    QueueFullError,
    RateLimitError,
    ServiceError,
    WorkerCrashError,
    describe,
    exit_code_for,
)
from ..gpu.results import KernelRunResult
from ..runner import JobEvent, Runner, code_salt
from ..telemetry.counters import CounterRegistry
from .jobs import (
    JobRecord,
    JobSpec,
    JobState,
    blob_bytes,
    blob_envelope,
    result_payload,
)
from .journal import ServeJournal
from .leases import Lease, LeaseTable

_id_counter = itertools.count(1)

#: Worker name of the daemon's own executor (reserved: remote workers
#: may not lease under it).
LOCAL_WORKER = "local"


class NotCancellableError(ServiceError):
    """The job exists but is not in a cancellable state (HTTP 409)."""

    http_status = 409


class UnknownJobError(ServiceError):
    """No job with the requested id (HTTP 404)."""

    http_status = 404


def _new_job_id() -> str:
    """Short, collision-safe job id (unique across daemon restarts)."""
    return f"j{next(_id_counter):05d}-{uuid.uuid4().hex[:8]}"


class RateLimiter:
    """Per-client token bucket: *rate* submissions/second, *burst* deep."""

    def __init__(self, rate: float, burst: Optional[int] = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.burst = float(burst if burst is not None else max(1, int(rate)))
        self._buckets: Dict[str, Tuple[float, float]] = {}  # client -> (tokens, last)

    def allow(self, client: str, now: Optional[float] = None) -> bool:
        if now is None:
            now = time.monotonic()
        tokens, last = self._buckets.get(client, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens < 1.0:
            self._buckets[client] = (tokens, now)
            return False
        self._buckets[client] = (tokens - 1.0, now)
        return True


class JobService:
    """Long-lived job queue on top of the shared :class:`Runner`.

    Single-threaded discipline: every public method runs on the event
    loop thread (the HTTP layer and the local executor both live there);
    only the runner batch itself runs in a worker thread, reporting
    back via ``loop.call_soon_threadsafe``.
    """

    def __init__(
        self,
        data_dir: Any,
        workers: int = 1,
        cache: Any = "default",
        queue_limit: int = 64,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[int] = None,
        batch_max: int = 32,
        timeout: Optional[float] = None,
        retries: int = 2,
        verify: bool = True,
        runner: Optional[Runner] = None,
        lease_ttl: float = 30.0,
        max_assignments: int = 3,
        local_exec: bool = True,
        sweep_interval: Optional[float] = None,
        worker_retire_horizon: Optional[float] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_assignments < 1:
            raise ValueError("max_assignments must be >= 1")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir = self.data_dir / "traces"
        self.journal = ServeJournal(self.data_dir / "jobs.jsonl")
        self.runner = runner if runner is not None else Runner(
            workers=workers, cache=cache, verify=verify,
            timeout=timeout, retries=retries, strict=False)
        self.queue_limit = queue_limit
        self.batch_max = batch_max
        self.limiter = (RateLimiter(rate_limit, rate_burst)
                        if rate_limit else None)
        self.counters = CounterRegistry()
        self.started_at = time.time()
        self.lease_ttl = lease_ttl
        self.max_assignments = max_assignments
        #: When False the daemon is a pure fleet coordinator: the local
        #: executor never leases jobs, only remote workers do.
        self.local_exec = local_exec
        self.sweep_interval = (sweep_interval if sweep_interval is not None
                               else min(1.0, max(0.05, lease_ttl / 4.0)))
        #: How long since last contact a worker still counts as active.
        self.worker_horizon = max(2.0 * lease_ttl, 10.0)
        #: How long since last contact before a worker's bookkeeping
        #: entry is retired outright (default names come as
        #: ``<hostname>-<pid>``, so every restart is a "new" worker —
        #: without retirement the table and /metrics grow forever).
        self.worker_retire_horizon = (
            float(worker_retire_horizon) if worker_retire_horizon is not None
            else max(10.0 * lease_ttl, 3.0 * self.worker_horizon))
        if self.worker_retire_horizon <= self.worker_horizon:
            raise ValueError("worker_retire_horizon must exceed the "
                             "active-worker horizon")
        self.leases = LeaseTable()
        #: Wall clock used for every lease decision; tests replace it to
        #: step expiry deterministically.
        self._now = time.time

        #: Every known job, including recovered and terminal ones.
        self.jobs: Dict[str, JobRecord] = {}
        self._queue: deque = deque()  # primary job ids awaiting dispatch
        self._inflight: Dict[str, str] = {}  # content key -> primary id
        self._subs: Dict[str, List[str]] = {}  # primary id -> subscriber ids
        self._draining = False
        self._wake: Optional[asyncio.Event] = None
        self._work: Optional[asyncio.Event] = None  # lease long-poll wakeup
        self._done: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._recover()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the local-executor and lease-sweeper tasks (idempotent)."""
        if self._task is not None:
            return
        self._wake = asyncio.Event()
        self._work = asyncio.Event()
        self._done = asyncio.Event()
        if self._queue:
            self._wake.set()
            self._work.set()
        self._task = asyncio.create_task(self._local_loop())
        self._sweeper = asyncio.create_task(self._sweep_loop())

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish the running batch.

        Jobs still queued stay journaled as submitted, and jobs leased
        to remote workers stay journaled as leased; the next daemon
        pointed at the same data dir re-enqueues the former and restores
        the latter's lease state (the restart recovery the CI smoke
        jobs assert).  The local executor's batch finishes first.
        Remote workers long-polling for work are released with an
        empty, ``draining`` response.
        """
        self._draining = True
        if self._wake is not None:
            self._wake.set()
        if self._work is not None:
            self._work.set()
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._task is not None:
            await self._done.wait()
            await self._task
            self._task = None

    @property
    def draining(self) -> bool:
        return self._draining

    # -- journal recovery --------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the job table from the journal (restart path).

        Lease transitions replay too: a job that was leased to a remote
        worker (and neither expired, reassigned, nor resolved) comes
        back *still leased* — same worker, same fence token, same
        deadline — so a live worker finishes its job across a daemon
        restart, and a dead worker's lease expires on the first sweep.
        A :data:`LOCAL_WORKER` lease died with the previous daemon: its
        job is requeued at once, under the assignment bound.  The fence
        counter resumes past the highest journaled token, so
        post-restart grants stay strictly monotonic.
        """
        live_leases: Dict[str, Lease] = {}
        orphans: List[JobRecord] = []  # held by the previous ``local``
        for entry in self.journal.load():
            kind = entry["event"]
            if kind == "submit":
                try:
                    spec = JobSpec.from_payload(entry.get("spec", {}))
                except ValueError:
                    continue  # a workload this build no longer knows
                record = JobRecord(
                    id=entry["id"], spec=spec,
                    key=entry.get("key", ""),
                    client=entry.get("client", ""),
                    submitted_at=entry.get("submitted_at", 0.0))
                self.jobs[record.id] = record
            elif kind == "resolve":
                record = self.jobs.get(entry["id"])
                if record is None:
                    continue
                record.state = entry.get("state", JobState.FAILED)
                record.queue_wait = entry.get("queue_wait")
                record.exec_seconds = entry.get("exec_seconds")
                record.finished_at = entry.get("finished_at")
                record.cache_hit = bool(entry.get("cache_hit", False))
                record.dedup_of = entry.get("dedup_of")
                record.result = entry.get("result")
                record.trace_path = entry.get("trace_path")
                record.error = entry.get("error")
                record.exit_code = entry.get("exit_code")
                record.worker = entry.get("worker", record.worker)
                record.resolved_fence = entry.get("fence")
                live_leases.pop(entry["id"], None)
            elif kind == "cancel":
                record = self.jobs.get(entry["id"])
                if record is not None:
                    record.state = JobState.CANCELLED
            elif kind == "lease":
                record = self.jobs.get(entry["id"])
                fence = int(entry.get("fence", 0))
                self.leases.observe_fence(fence)
                if record is None:
                    continue
                record.assignments = int(
                    entry.get("assignments", record.assignments + 1))
                live_leases[entry["id"]] = Lease(
                    job_id=entry["id"],
                    worker=entry.get("worker", ""),
                    fence=fence,
                    granted_at=entry.get("granted_at", 0.0),
                    deadline=entry.get("deadline", 0.0))
            elif kind == "renew":
                lease = live_leases.get(entry["id"])
                if lease is not None and entry.get("fence") == lease.fence:
                    lease.deadline = entry.get("deadline", lease.deadline)
                    lease.renewals += 1
            elif kind in ("expire", "reassign"):
                live_leases.pop(entry["id"], None)
                record = self.jobs.get(entry["id"])
                if record is not None and kind == "reassign":
                    record.assignments = int(
                        entry.get("assignments", record.assignments))
            elif kind == "fence_reject":
                self.leases.observe_fence(int(entry.get("fence", 0)))
        # Unresolved submissions go back in the queue (or keep their
        # live lease), dedup rebuilt in submission order so subscribers
        # reattach to their primary.  A record holding a live lease must
        # win primary selection for its content key regardless of
        # submission order (the lease names *that* job id).
        pending = sorted(
            (r for r in self.jobs.values()
             if r.state not in JobState.TERMINAL),
            key=lambda r: (r.id not in live_leases, r.submitted_at, r.id))
        for record in pending:
            record.recovered += 1
            self.counters.incr("serve.jobs.recovered")
            primary_id = self._inflight.get(record.key)
            if primary_id is not None:
                record.dedup_of = primary_id
                self._subs.setdefault(primary_id, []).append(record.id)
                record.state = self.jobs[primary_id].state
                record.started_at = self.jobs[primary_id].started_at
                continue
            record.dedup_of = None
            self._inflight[record.key] = record.id
            lease = live_leases.get(record.id)
            if lease is not None:
                record.state = JobState.RUNNING
                record.started_at = lease.granted_at
                record.worker = lease.worker
                record.fence = lease.fence
                if lease.worker == LOCAL_WORKER:
                    orphans.append(record)
                else:
                    # Still owned by its worker; expiry sweep handles
                    # the rest if that worker is gone.
                    self.leases.restore(lease)
                    self.counters.incr("serve.leases.restored")
            else:
                record.state = JobState.QUEUED
                record.started_at = None
                record.worker = None
                record.fence = None
                self._queue.append(record.id)
        # After the loop, so every subscriber is attached; reversed, so
        # the queue head keeps submission order.
        for record in reversed(orphans):
            self._requeue(record,
                          reason=f"the daemon died while its local "
                                 f"executor held fence {record.fence}")

    # -- submission / cancellation / queries -------------------------------

    def submit(self, payload: Any, client: str = "") -> JobRecord:
        """Admit one job; raises the typed admission errors.

        A spec already queued or running subscribes to that job; one
        the store holds resolves here as a cache hit, with no queue
        slot and no lease.  ``ValueError`` means a malformed spec (HTTP
        400); :class:`RateLimitError` and :class:`QueueFullError` are
        backpressure (HTTP 429 / 503).
        """
        if self._draining:
            self.counters.incr("serve.jobs.rejected.draining")
            raise QueueFullError("daemon is draining; not accepting jobs")
        if self.limiter is not None and not self.limiter.allow(client or "-"):
            self.counters.incr("serve.jobs.rejected.rate_limited")
            raise RateLimitError(
                f"client {client or '-'!r} exceeded "
                f"{self.limiter.rate:g} submissions/s")
        spec = JobSpec.from_payload(payload)
        job = spec.to_job()
        record = JobRecord(id=_new_job_id(), spec=spec, key=job.key,
                           client=client, submitted_at=time.time())
        primary_id = self._inflight.get(job.key)
        stored = None
        if primary_id is not None:
            # Identical job already queued or executing: subscribe.
            record.dedup_of = primary_id
            self._subs.setdefault(primary_id, []).append(record.id)
            primary = self.jobs[primary_id]
            if primary.state == JobState.RUNNING:
                record.state = JobState.RUNNING
                record.started_at = primary.started_at
            self.counters.incr("serve.jobs.deduped")
        else:
            stored = self._stored(job.key)
            if stored is None:
                if len(self._queue) >= self.queue_limit:
                    self.counters.incr("serve.jobs.rejected.queue_full")
                    raise QueueFullError(
                        f"job queue is full ({self.queue_limit} deep)")
                self._inflight[job.key] = record.id
                self._queue.append(record.id)
        self.jobs[record.id] = record
        self.counters.incr("serve.jobs.submitted")
        self.journal.append("submit", record.id, spec=spec.as_dict(),
                            key=record.key, client=client,
                            submitted_at=record.submitted_at,
                            dedup_of=record.dedup_of)
        if stored is not None:
            self._resolve_stored(record, stored)
            return record
        if self._wake is not None:
            self._wake.set()
        if self._work is not None and self._queue:
            self._work.set()
        return record

    def get(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return record

    def list_jobs(self, state: Optional[str] = None,
                  workload: Optional[str] = None,
                  client: Optional[str] = None,
                  limit: Optional[int] = None) -> List[JobRecord]:
        """Submission-ordered job records, optionally filtered."""
        records = sorted(self.jobs.values(),
                         key=lambda r: (r.submitted_at, r.id))
        if state:
            records = [r for r in records if r.state == state]
        if workload:
            records = [r for r in records if r.spec.workload == workload]
        if client:
            records = [r for r in records if r.client == client]
        if limit is not None:
            records = records[-limit:]
        return records

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job; running/terminal jobs are not cancellable.

        Cancelling a primary that has dedup subscribers promotes the
        oldest subscriber to primary (its submission is still owed a
        result) instead of cancelling work other clients asked for.
        """
        record = self.get(job_id)
        if record.state != JobState.QUEUED:
            raise NotCancellableError(
                f"job {job_id} is {record.state}; only queued jobs can "
                f"be cancelled")
        if record.dedup_of is not None:
            # A subscriber: detach from its primary and stop.
            siblings = self._subs.get(record.dedup_of, [])
            if job_id in siblings:
                siblings.remove(job_id)
        else:
            subscribers = self._subs.pop(job_id, [])
            live = [s for s in subscribers
                    if self.jobs[s].state == JobState.QUEUED]
            if live:
                heir = self.jobs[live[0]]
                heir.dedup_of = None
                self._subs[heir.id] = live[1:]
                for sid in live[1:]:
                    self.jobs[sid].dedup_of = heir.id
                self._inflight[record.key] = heir.id
                # Keep the queue position the cancelled primary held.
                self._queue = deque(heir.id if qid == job_id else qid
                                    for qid in self._queue)
            else:
                self._inflight.pop(record.key, None)
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
        record.state = JobState.CANCELLED
        record.finished_at = time.time()
        self.counters.incr("serve.jobs.cancelled")
        self.journal.append("cancel", job_id)
        return record

    # -- fleet coordination (lease / heartbeat / result / fail) ------------

    async def lease(self, worker: str, max_jobs: int = 1,
                    wait: float = 0.0) -> List[Dict[str, Any]]:
        """Claim up to *max_jobs* queued jobs for *worker* (long-poll).

        Returns lease grants — ``{id, spec, fence, lease_ttl,
        deadline, assignments}`` each — parking the caller for up to
        *wait* seconds when the queue is empty.  Draining daemons
        release waiters immediately with no grants.
        """
        if not isinstance(worker, str) or not worker:
            raise ValueError("lease request needs a 'worker' name")
        if worker == LOCAL_WORKER:
            raise ValueError(f"worker name {LOCAL_WORKER!r} is reserved "
                             f"for the daemon's own executor")
        max_jobs = max(1, int(max_jobs))
        wait = min(max(0.0, float(wait)), 60.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait
        while True:
            # Promptly reassign anything whose owner went silent, so a
            # polling worker picks up crashed peers' jobs immediately.
            self.expire_leases()
            self.leases.touch(worker, self._now())
            if self._draining:
                return []
            grants = self._grant_jobs(worker, max_jobs)
            if grants:
                return grants
            remaining = deadline - loop.time()
            if remaining <= 0 or self._work is None:
                return []
            try:
                await asyncio.wait_for(self._work.wait(),
                                       timeout=min(remaining,
                                                   self.sweep_interval))
            except asyncio.TimeoutError:
                continue
            self._work.clear()

    def _grant_jobs(self, worker: str,
                    max_jobs: int) -> List[Dict[str, Any]]:
        """Pop queued primaries and lease them to *worker* (loop thread).

        A primary whose result the store gained while it waited (a
        worker that published and then died, a peer's publish) resolves
        here as a cache hit instead of being leased.
        :data:`LOCAL_WORKER` leases have no deadline: that holder lives
        and dies with the daemon.
        """
        grants: List[Dict[str, Any]] = []
        now = self._now()
        ttl = None if worker == LOCAL_WORKER else self.lease_ttl
        while self._queue and len(grants) < max_jobs:
            job_id = self._queue.popleft()
            record = self.jobs[job_id]
            if record.state != JobState.QUEUED:
                continue
            stored = self._stored(record.key)
            if stored is not None:
                self._resolve_stored(record, stored)
                continue
            record.assignments += 1
            lease = self.leases.grant(job_id, worker, ttl, now)
            record.state = JobState.RUNNING
            record.started_at = now
            record.worker = worker
            record.fence = lease.fence
            for sid in self._subs.get(job_id, []):
                subscriber = self.jobs[sid]
                if subscriber.state == JobState.QUEUED:
                    subscriber.state = JobState.RUNNING
                    subscriber.started_at = now
            self.counters.incr("serve.leases.granted")
            self.journal.append(
                "lease", job_id, worker=worker, fence=lease.fence,
                granted_at=now, deadline=lease.deadline,
                assignments=record.assignments)
            grants.append({
                "id": job_id,
                "spec": record.spec.as_dict(),
                "fence": lease.fence,
                "lease_ttl": self.lease_ttl,
                "deadline": lease.deadline,
                "assignments": record.assignments,
                "max_assignments": self.max_assignments,
            })
        if self._queue and self._work is not None:
            self._work.set()  # more work: release other pollers
        return grants

    def _fence_reject(self, job_id: str, worker: str, fence: Any,
                      action: str, detail: str = "") -> None:
        """Record and raise one zombie-fencing rejection."""
        self.counters.incr("serve.leases.fence_rejected")
        self.journal.append("fence_reject", job_id, worker=worker,
                            fence=fence, action=action)
        raise FenceRejectedError(
            detail or f"worker {worker!r} tried to {action} job {job_id} "
                      f"with stale fence {fence}")

    def _fenced_record(self, job_id: str, worker: str, fence: Any,
                       action: str) -> JobRecord:
        """Look up + fence-check one lease-owned job, or raise.

        Returns the record with its lease still in place; ``None``-like
        duplicate handling (an already-resolved job re-posted under the
        fence that resolved it) is the *caller's* business — this only
        authenticates live ownership.
        """
        record = self.get(job_id)
        if not isinstance(worker, str) or not worker:
            raise ValueError(f"{action} for job {job_id} needs a "
                             f"'worker' name")
        if not isinstance(fence, int):
            raise ValueError(f"{action} for job {job_id} needs an integer "
                             f"'fence' token")
        try:
            self.leases.validate(job_id, worker, fence, action=action)
        except FenceRejectedError as exc:
            self._fence_reject(job_id, worker, fence, action,
                               detail=str(exc))
        return record

    def heartbeat(self, job_id: str, worker: str,
                  fence: Any) -> Dict[str, Any]:
        """Renew *worker*'s lease on *job_id*; fence-checked.

        A heartbeat for a job that already resolved under this very
        fence (the result post and a final heartbeat can race) is
        answered benignly with the terminal state so the worker stops;
        any other stale fence is rejected.
        """
        record = self.jobs.get(job_id)
        if (record is not None and record.state in JobState.TERMINAL
                and record.resolved_fence == fence
                and record.worker == worker):
            return {"id": job_id, "state": record.state,
                    "lease_ttl": self.lease_ttl}
        record = self._fenced_record(job_id, worker, fence, "heartbeat")
        now = self._now()
        lease = self.leases.renew(job_id, worker, fence, self.lease_ttl, now)
        self.counters.incr("serve.leases.renewed")
        self.journal.append("renew", job_id, worker=worker, fence=fence,
                            deadline=lease.deadline)
        return {"id": job_id, "state": record.state,
                "deadline": lease.deadline, "lease_ttl": self.lease_ttl,
                "renewals": lease.renewals}

    def complete_remote(self, job_id: str, worker: str, fence: Any,
                        result: Any, exec_seconds: float = 0.0,
                        cache: Any = None,
                        cached: bool = False) -> JobRecord:
        """Accept a remote worker's typed result payload; fence-checked.

        Exactly-once resolution under at-least-once posting: a
        duplicate post carrying the fence that already resolved the job
        (worker retried after a dropped response) is answered
        idempotently; a post under any *other* fence — a zombie whose
        lease expired and whose job was reassigned — is rejected and
        journaled as ``fence_reject``.

        *cache*, when present, ties the post to the daemon's
        :class:`~repro.runner.ResultCache` (see :meth:`_posted_entry`):
        either a reference ``{"digest": ...}`` to the entry the worker
        published before posting, or the full serialized result
        (:func:`~repro.serve.jobs.result_blob`), persisted **before**
        subscribers are resolved.  A bad *cache* rejects the whole post
        and the lease stays live.

        The local executor passes its
        :class:`~repro.gpu.results.KernelRunResult` as *result*, and
        *cached* when its runner served the job from the store, so the
        resolution books under ``serve.jobs.cache_hits`` and
        ``serve.jobs.executed`` stays a count of actual simulations.
        """
        record = self.jobs.get(job_id)
        if (record is not None and record.state in JobState.TERMINAL
                and record.resolved_fence == fence
                and record.worker == worker):
            self.counters.incr("serve.work.duplicate_results")
            return record
        record = self._fenced_record(job_id, worker, fence, "complete")
        reconstructed = None
        if isinstance(result, KernelRunResult):
            reconstructed, result = result, result_payload(record.spec,
                                                           result)
        if not isinstance(result, dict):
            raise ValueError(f"result for job {job_id} must be the typed "
                             f"JSON result payload")
        exec_seconds = max(0.0, float(exec_seconds or 0.0))
        if cache is not None:
            reconstructed = self._posted_entry(record, cache, result, worker)
        trace_path = self._trace_for(record, reconstructed)
        self.leases.release(job_id)
        now = self._now()
        info = self.leases.touch(worker, now)
        info.completed += 1
        record.resolved_fence = fence
        record.worker = worker
        self._resolve_group(record, "cached" if cached else "executed",
                            payload=result, exec_seconds=exec_seconds,
                            trace_path=trace_path)
        return record

    def _posted_entry(self, record: JobRecord, cache: Any,
                      result: Dict[str, Any],
                      worker: str) -> Optional[KernelRunResult]:
        """The stored result a result post's *cache* field stands for.

        A blob envelope (it has ``data``) is ingested first, as by
        :meth:`cache_publish`; a reference (``{"digest": ...}``) names
        the entry the worker published before posting.  A key the store
        then lacks is a typed :class:`~repro.errors.CacheMissError`
        (404), so the worker reposts with the blob.  The stored entry's
        buffer digest must equal the posted payload's: a mismatch, like
        a malformed envelope, is a ``ValueError`` (400).  Returns None
        only for a blob posted to a daemon without a store.
        """
        if not isinstance(cache, dict):
            raise ValueError(f"cache field for job {record.id} must be a "
                             f"blob envelope or a digest reference")
        claimed = cache.get("digest")
        posted = result.get("buffers_digest")
        if (claimed is not None and posted is not None
                and claimed != posted):
            raise ValueError(
                f"cache field for job {record.id} claims buffer digest "
                f"{str(claimed)[:16]}... but the posted result payload "
                f"says {str(posted)[:16]}...")
        if "data" in cache:
            self._ingest(record.key, cache, worker, record.id, "result_post")
            if self.runner.cache is None:
                return None
        stored = self._stored(record.key)
        if stored is None:
            raise CacheMissError(
                f"job {record.id}'s result post names a cache entry the "
                f"store does not hold; repost with the blob")
        if stored.buffers_digest != posted:
            raise ValueError(
                f"stored entry for job {record.id} has buffer digest "
                f"{stored.buffers_digest[:16]}... but the posted result "
                f"payload says {str(posted)[:16]}...")
        return stored

    def _ingest(self, key: str, blob: Any, worker: str, job_id: str,
                via: str) -> Optional[KernelRunResult]:
        """Store a published blob under *key* unless the store holds it.

        Salt-gated (a foreign salt is a typed
        :class:`~repro.errors.CodeSaltMismatchError`, 412) and
        digest-verified; a malformed envelope is a ``ValueError``.
        Returns the result when this call stored it, else None (the
        store already held the key, or there is no store).
        """
        data = blob_bytes(blob)
        salt = blob.get("salt")
        if not isinstance(salt, str) or not salt:
            raise ValueError(f"cache blob for key {key!r} needs the "
                             f"sender's code salt")
        store = self.runner.cache
        gate = store.salt if store is not None else code_salt()
        if salt != gate:
            raise CodeSaltMismatchError(
                f"cache blob for key {key!r} from worker {worker!r} carries "
                f"code salt {salt!r} but the daemon runs {gate!r} (mixed "
                f"simulator versions in the fleet)")
        if store is None or self._stored(key) is not None:
            return None
        result = store.store_payload(key, data, salt=salt,
                                     expect_digest=blob.get("digest"))
        self.counters.incr("serve.cache.published")
        self.journal.append("publish", job_id or "-", key=key,
                            worker=worker, digest=result.buffers_digest,
                            via=via)
        return result

    def _stored(self, key: str) -> Optional[KernelRunResult]:
        """The store's result for content *key*, or None (no store, no
        entry, or a corrupt entry, which the store quarantines)."""
        store = self.runner.cache
        if store is None:
            return None
        try:
            entry = store.fetch(key)
        except CacheCorruptionError:  # strict store: still just a miss
            return None
        return entry[1] if entry is not None else None

    def _resolve_stored(self, record: JobRecord,
                        result: KernelRunResult) -> None:
        """Resolve a queued or just-submitted primary (and its
        subscribers) from a store entry: a cache hit, no lease."""
        self._resolve_group(record, "cached",
                            payload=result_payload(record.spec, result),
                            trace_path=self._trace_for(record, result))

    # -- fleet-shared result cache (fetch / publish) -----------------------

    def cache_fetch(self, key: str,
                    salt: Optional[str] = None) -> Dict[str, Any]:
        """Serve one cache entry by content key (``GET /cache/{key}``).

        Code-salt-checked: a caller that presents a salt different from
        the store's is running different simulator source and gets a
        typed :class:`~repro.errors.CodeSaltMismatchError` (412) instead
        of bytes its build would misinterpret.  A miss — no store, no
        entry, or a quarantined-corrupt entry — is a typed
        :class:`~repro.errors.CacheMissError` (404).  Workers do not
        probe it before simulating (the daemon resolves stored specs
        itself); it is the store's read path for other fleet clients.
        """
        self.counters.incr("serve.cache.fetch")
        if not isinstance(key, str) or not key:
            raise ValueError("cache fetch needs a content key")
        store = self.runner.cache
        gate = store.salt if store is not None else code_salt()
        if salt is not None and salt != gate:
            raise CodeSaltMismatchError(
                f"cache fetch for key {key!r} carries code salt {salt!r} "
                f"but the daemon runs {gate!r}")
        entry = store.fetch(key) if store is not None else None
        if entry is None:
            raise CacheMissError(f"no cache entry for key {key!r}")
        data, result = entry
        self.counters.incr("serve.cache.fetch_hits")
        return dict(blob_envelope(data, gate, result.buffers_digest),
                    key=key)

    def cache_publish(self, key: str, blob: Any, worker: str = "",
                      job_id: str = "") -> Dict[str, Any]:
        """Ingest one published entry (``POST /cache/{key}``).

        The fleet-internal publish path workers use *before* posting
        their result, so a fully-computed answer survives a worker that
        dies between execution and lease resolution; the result post
        then names the entry by digest instead of carrying it again.
        Deliberately not fence-checked — entries are content-keyed pure
        data, verified by digest and gated by code salt, so even a
        fenced-out zombie's publish is bit-identical to the live
        owner's.
        """
        if not isinstance(key, str) or not key:
            raise ValueError("cache publish needs a content key")
        result = self._ingest(key, blob, worker, job_id, "endpoint")
        if worker:
            self.leases.touch(worker, self._now())
        if result is not None:
            return {"key": key, "stored": True,
                    "digest": result.buffers_digest}
        exists = self.runner.cache is not None
        return {"key": key, "stored": False,
                "reason": "exists" if exists else "no cache"}

    def fail_remote(self, job_id: str, worker: str, fence: Any,
                    error: str, exit_code: Optional[int] = None,
                    transient: bool = False,
                    exec_seconds: float = 0.0) -> JobRecord:
        """Accept a remote worker's typed failure; fence-checked.

        Transient failures (worker crash taxonomy) requeue the job —
        subject to the same bounded assignment count as lease expiry —
        while deterministic ones (deadlock, verification, timeout)
        resolve the whole dedup group as failed with the worker's
        reported error and exit code.
        """
        record = self.jobs.get(job_id)
        if (record is not None and record.state in JobState.TERMINAL
                and record.resolved_fence == fence
                and record.worker == worker):
            self.counters.incr("serve.work.duplicate_results")
            return record
        record = self._fenced_record(job_id, worker, fence, "fail")
        self.leases.release(job_id)
        now = self._now()
        info = self.leases.touch(worker, now)
        info.failed += 1
        error = str(error or "remote worker failure")
        if transient:
            # _requeue enforces the assignment bound: at the cap this
            # resolves the job as a WorkerCrashError, same as expiry.
            self._requeue(record,
                          reason=f"worker {worker!r} reported a transient "
                                 f"failure: {error}")
            return record
        record.resolved_fence = fence
        record.worker = worker
        self._resolve_group(
            record, "failed", error_text=error,
            error_code=exit_code if isinstance(exit_code, int)
            else ServiceError.exit_code, exec_seconds=exec_seconds)
        return record

    # -- lease expiry / reassignment ---------------------------------------

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Reassign every job whose lease deadline has passed.

        Returns the number of leases expired.  Runs from the sweep task,
        from every lease poll, and from tests stepping a fake clock.
        """
        if now is None:
            now = self._now()
        expired = self.leases.expired(now)
        for lease in expired:
            self.leases.release(lease.job_id)
            self.counters.incr("serve.leases.expired")
            self.journal.append("expire", lease.job_id, worker=lease.worker,
                                fence=lease.fence, deadline=lease.deadline)
            record = self.jobs.get(lease.job_id)
            if record is None or record.state in JobState.TERMINAL:
                continue
            self._requeue(record,
                          reason=f"lease fence {lease.fence} held by "
                                 f"worker {lease.worker!r} expired "
                                 f"(missed heartbeat deadline)")
        if self.local_exec:  # alive as long as the daemon: never retired
            self.leases.touch(LOCAL_WORKER, now)
        retired = self.leases.retire_idle(now, self.worker_retire_horizon)
        if retired:
            self.counters.incr("serve.workers.retired", len(retired))
        return len(expired)

    def _requeue(self, record: JobRecord, reason: str) -> None:
        """Give a lease-lost job back to the queue — or fail it typed.

        The bounded-assignment backstop: a job that keeps losing its
        owner (crashing workers, flapping network) is failed as a
        :class:`WorkerCrashError` after ``max_assignments`` hand-outs
        rather than ping-ponging around the fleet forever.  A job whose
        answer is already stored (its worker published, then died)
        resolves from the store instead, bound or no bound.
        """
        stored = self._stored(record.key)
        if stored is not None:
            record.worker = None
            record.fence = None
            self._resolve_stored(record, stored)
            return
        if record.assignments >= self.max_assignments:
            self._resolve_group(record, "failed", error=WorkerCrashError(
                f"job {record.id} ({record.spec.workload}) lost its worker "
                f"{record.assignments} time(s) (assignment bound "
                f"{self.max_assignments}); last: {reason}"))
            return
        record.state = JobState.QUEUED
        record.started_at = None
        record.worker = None
        record.fence = None
        for sid in self._subs.get(record.id, []):
            subscriber = self.jobs[sid]
            if subscriber.state == JobState.RUNNING:
                subscriber.state = JobState.QUEUED
                subscriber.started_at = None
        # Head of the queue: a reassigned job has already waited once.
        self._queue.appendleft(record.id)
        self.counters.incr("serve.leases.reassigned")
        self.journal.append("reassign", record.id,
                            assignments=record.assignments, reason=reason)
        if self._wake is not None:
            self._wake.set()
        if self._work is not None:
            self._work.set()

    async def _sweep_loop(self) -> None:
        """Background heartbeat-deadline enforcement."""
        while not self._draining:
            await asyncio.sleep(self.sweep_interval)
            self.expire_leases()

    def health_status(self) -> str:
        """``ok`` normally; ``degraded`` when a lease has expired but
        its job has not been reassigned yet."""
        return "degraded" if self.leases.expired(self._now()) else "ok"

    # -- the local executor ------------------------------------------------

    async def _local_loop(self) -> None:
        """The daemon's own lease holder, worker :data:`LOCAL_WORKER`.

        Claims up to ``batch_max`` queued jobs through the same
        :meth:`_grant_jobs` remote workers use, runs them, and resolves
        each through the fenced :meth:`complete_remote` /
        :meth:`fail_remote`.
        """
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                while self.local_exec and not self._draining:
                    grants = self._grant_jobs(LOCAL_WORKER, self.batch_max)
                    if not grants:
                        break
                    await self._run_local(grants)
                if self._draining:
                    return
        finally:
            self._done.set()

    async def _run_local(self, grants: List[Dict[str, Any]]) -> None:
        """Feed one batch of local grants through the runner."""
        jobs = [self.jobs[grant["id"]].spec.to_job() for grant in grants]
        self.counters.incr("serve.batches")
        loop = asyncio.get_running_loop()

        def progress(event: JobEvent) -> None:
            # Called from the runner's worker thread: hop back onto the
            # loop so all record/journal mutation stays single-threaded.
            loop.call_soon_threadsafe(self._resolve_local, event)

        self.runner.progress = progress
        try:
            await asyncio.to_thread(self.runner.run, jobs, strict=False)
        except Exception as exc:  # runner itself died, not one job
            for job in jobs:  # a no-op for every job already resolved
                self._resolve_local(JobEvent(job, "failed", 0.0, 0, 0,
                                             error=exc))
        finally:
            self.runner.progress = None
            stats = self.runner.last_stats
            for name in ("retried", "degraded", "timeouts"):
                value = getattr(stats, name)
                if value:
                    self.counters.incr(f"serve.runner.{name}", value)

    def _resolve_local(self, event: JobEvent) -> None:
        """Resolve a runner outcome under its job's local lease, if any."""
        job_id = self._inflight.get(event.job.key)
        lease = self.leases.get(job_id) if job_id is not None else None
        if lease is None or lease.worker != LOCAL_WORKER:
            return
        if event.status == "failed":
            self.fail_remote(job_id, LOCAL_WORKER, lease.fence,
                             describe(event.error),
                             exit_code_for(event.error),
                             exec_seconds=event.elapsed)
        else:
            self.complete_remote(job_id, LOCAL_WORKER, lease.fence,
                                 event.result, exec_seconds=event.elapsed,
                                 cached=event.status == "cached")

    def _resolve_group(self, record: JobRecord, status: str,
                       payload: Optional[Dict[str, Any]] = None,
                       error: Optional[BaseException] = None,
                       error_text: Optional[str] = None,
                       error_code: Optional[int] = None,
                       exec_seconds: float = 0.0,
                       trace_path: Optional[str] = None) -> None:
        """Resolve a primary and every live subscriber with one outcome.

        The outcome is either a typed JSON *payload* (from a result
        post), an exception (*error*), or a worker's reported failure
        (*error_text* + *error_code*).
        """
        now = time.time()
        subscribers = self._subs.pop(record.id, [])
        self._inflight.pop(record.key, None)
        group = [record] + [
            self.jobs[sid] for sid in subscribers
            if self.jobs[sid].state not in JobState.TERMINAL]
        if error is not None:
            error_text = describe(error)
            error_code = exit_code_for(error)
        failed = error_text is not None
        cache_hit = status == "cached"
        if failed:
            self.counters.incr("serve.jobs.failed")
        elif cache_hit:
            self.counters.incr("serve.jobs.cache_hits")
        else:
            self.counters.incr("serve.jobs.executed")
            self.counters.incr("serve.exec.seconds", exec_seconds)
        for member in group:
            member.finished_at = now
            member.exec_seconds = exec_seconds
            member.queue_wait = max(
                0.0, (now - member.submitted_at) - exec_seconds)
            member.cache_hit = cache_hit
            self.counters.incr("serve.queue.wait_seconds", member.queue_wait)
            if failed:
                member.state = JobState.FAILED
                member.error = error_text
                member.exit_code = error_code
            else:
                member.state = JobState.DONE
                member.result = payload
                member.trace_path = trace_path
            self.journal.append(
                "resolve", member.id, state=member.state,
                queue_wait=member.queue_wait,
                exec_seconds=member.exec_seconds,
                finished_at=member.finished_at,
                cache_hit=member.cache_hit, dedup_of=member.dedup_of,
                result=member.result, trace_path=member.trace_path,
                error=member.error, exit_code=member.exit_code,
                worker=record.worker, fence=record.resolved_fence)

    def _trace_for(self, record: JobRecord,
                   result: Optional[KernelRunResult]) -> Optional[str]:
        """Export *record*'s Chrome trace from the full *result* when the
        spec asked for one and the result carries it; else None."""
        if (result is None or record.spec.telemetry != "trace"
                or result.telemetry is None):
            return None
        from ..telemetry import export_chrome_trace

        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{record.id}.json"
        try:
            export_chrome_trace(result.telemetry, path,
                                kernel=record.spec.workload,
                                policy=record.spec.policy)
        except (OSError, ValueError):  # pragma: no cover - best effort
            return None
        return str(path)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: counters plus live gauges.

        The fleet view rides along: ``serve.workers.active`` (a gauge,
        folded into the counter namespace for scrapers), the
        ``serve.leases.*`` transition counters, and per-worker
        last-heartbeat ages under ``fleet.workers``.
        """
        states: Dict[str, int] = {}
        for record in self.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        busy = min(self.runner.workers,
                   sum(1 for lease in self.leases.active()
                       if lease.worker == LOCAL_WORKER))
        now = self._now()
        active = self.leases.active_workers(now, self.worker_horizon)
        counters = self.counters.as_dict()
        counters["serve.workers.active"] = float(len(active))
        body: Dict[str, Any] = {
            "counters": counters,
            "fleet": {
                "workers_active": len(active),
                "workers_known": len(self.leases.workers),
                "workers_retired": self.leases.retired,
                "retired_totals": dict(self.leases.retired_totals),
                "lease_ttl": self.lease_ttl,
                "max_assignments": self.max_assignments,
                "local_exec": self.local_exec,
                "leases_active": len(self.leases),
                "leases_expired_pending": len(self.leases.expired(now)),
                "workers": {
                    info.name: {
                        "last_heartbeat_age": max(0.0, now - info.last_seen),
                        "leases_granted": info.leases_granted,
                        "completed": info.completed,
                        "failed": info.failed,
                        "active": now - info.last_seen
                                  <= self.worker_horizon,
                    }
                    for info in sorted(self.leases.workers.values(),
                                       key=lambda w: w.name)
                },
            },
            "queue_depth": len(self._queue),
            "queue_limit": self.queue_limit,
            "workers": self.runner.workers,
            "workers_busy": busy,
            "worker_occupancy": busy / self.runner.workers,
            "draining": self._draining,
            "uptime_seconds": time.time() - self.started_at,
            "jobs_by_state": dict(sorted(states.items())),
        }
        cache = self.runner.cache
        if cache is not None:
            body["cache"] = {"hits": cache.hits, "misses": cache.misses,
                             "corrupt": cache.corrupt}
        return body
