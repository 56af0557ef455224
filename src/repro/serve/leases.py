"""Lease-based job ownership for the multi-host worker fleet.

The ``repro serve`` daemon hands queued jobs to remote ``repro worker``
processes under *time-bounded leases*: a worker that claims a job must
heartbeat before the lease deadline or lose the job to reassignment.
Every grant carries a **fence token** — one value from a single
monotonically increasing counter — and every subsequent action on the
job (heartbeat, result, failure) must present the exact token of the
*current* lease.  A worker that stalls, partitions, or gets ``kill -9``'d
mid-job can therefore never corrupt state when it comes back: its token
is stale, its posts are rejected
(:class:`~repro.errors.FenceRejectedError`), and the job's one true
result comes from whoever holds the live fence.

This is deliberately lease-and-fence, not consensus: the paper's
trace-based methodology makes every job a pure content-keyed function,
so at-least-once execution with bit-identical results (enforced by the
verify harnesses) is all the coordination a fleet needs.

The table itself is pure bookkeeping — no clocks of its own (callers
pass ``now``), no I/O — so the service layer can journal every
transition and tests can step time deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import FenceRejectedError

__all__ = ["Lease", "LeaseTable", "WorkerInfo"]


@dataclass
class Lease:
    """One worker's time-bounded ownership of one job."""

    job_id: str
    worker: str
    #: Fence token: globally unique, strictly increasing across grants.
    fence: int
    granted_at: float  # wall-clock epoch seconds (journal-replayable)
    #: Epoch seconds; miss it and the job is reassigned.  ``None`` for a
    #: lease that lasts as long as its holder's process (the daemon's
    #: own executor).
    deadline: Optional[float]
    renewals: int = 0

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class WorkerInfo:
    """Liveness and throughput bookkeeping for one fleet worker."""

    name: str
    first_seen: float = 0.0
    last_seen: float = 0.0  # any authenticated contact: lease/heartbeat/post
    leases_granted: int = 0
    completed: int = 0
    failed: int = 0


class LeaseTable:
    """Active leases keyed by job id, plus the fleet's fence counter.

    Single-threaded like the rest of the service (every mutation happens
    on the daemon's event loop); expiry is driven by the service's sweep
    task calling :meth:`expired`.
    """

    def __init__(self) -> None:
        self._leases: Dict[str, Lease] = {}
        self._fence = 0
        self.workers: Dict[str, WorkerInfo] = {}
        #: Workers retired for silence (count + folded throughput
        #: totals).  Worker names default to ``<hostname>-<pid>``, so a
        #: churning fleet mints a fresh name per restart; without
        #: retirement the table — and the /metrics fleet view built
        #: from it — would grow one dead entry per restart forever.
        self.retired = 0
        self.retired_totals: Dict[str, int] = {
            "leases_granted": 0, "completed": 0, "failed": 0}

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._leases)

    def get(self, job_id: str) -> Optional[Lease]:
        return self._leases.get(job_id)

    def active(self) -> List[Lease]:
        return list(self._leases.values())

    def expired(self, now: float) -> List[Lease]:
        """Leases whose deadline has passed (not yet released)."""
        return [lease for lease in self._leases.values()
                if lease.expired(now)]

    # -- transitions -------------------------------------------------------

    def grant(self, job_id: str, worker: str, ttl: Optional[float],
              now: float) -> Lease:
        """Issue a fresh lease (and the next fence token) for *job_id*.

        A ``None`` *ttl* grants a lease without a deadline.
        """
        if job_id in self._leases:
            raise ValueError(f"job {job_id} is already leased")
        self._fence += 1
        lease = Lease(job_id=job_id, worker=worker, fence=self._fence,
                      granted_at=now,
                      deadline=None if ttl is None else now + ttl)
        self._leases[job_id] = lease
        info = self.touch(worker, now)
        info.leases_granted += 1
        return lease

    def validate(self, job_id: str, worker: str, fence: int,
                 action: str = "act on") -> Lease:
        """The current lease, iff (*worker*, *fence*) exactly owns it.

        Raises :class:`FenceRejectedError` otherwise — the caller's
        token is stale (expired + reassigned) or was never theirs.
        """
        lease = self._leases.get(job_id)
        if lease is None:
            raise FenceRejectedError(
                f"worker {worker!r} tried to {action} job {job_id} with "
                f"fence {fence}, but no lease is active (expired or "
                f"already resolved)")
        if lease.worker != worker or lease.fence != fence:
            raise FenceRejectedError(
                f"worker {worker!r} tried to {action} job {job_id} with "
                f"fence {fence}, but the lease is held by "
                f"{lease.worker!r} under fence {lease.fence}")
        return lease

    def renew(self, job_id: str, worker: str, fence: int, ttl: float,
              now: float) -> Lease:
        """Heartbeat: push the deadline out; fence-checked."""
        lease = self.validate(job_id, worker, fence, action="heartbeat")
        lease.deadline = now + ttl
        lease.renewals += 1
        self.touch(worker, now)
        return lease

    def release(self, job_id: str) -> Optional[Lease]:
        """Drop the lease (job resolved, expired, or reassigned)."""
        return self._leases.pop(job_id, None)

    def restore(self, lease: Lease) -> None:
        """Re-seat a journal-replayed lease (daemon restart recovery).

        The fence counter is bumped to at least the replayed token so
        post-restart grants stay strictly monotonic — the property the
        whole zombie-rejection scheme rests on.
        """
        self._leases[lease.job_id] = lease
        self.observe_fence(lease.fence)
        info = self.touch(lease.worker, lease.granted_at)
        info.last_seen = max(info.last_seen, lease.granted_at)

    def observe_fence(self, fence: int) -> None:
        """Advance the counter past a token seen in the journal."""
        self._fence = max(self._fence, fence)

    # -- worker liveness ---------------------------------------------------

    def touch(self, worker: str, now: float) -> WorkerInfo:
        """Record contact from *worker* (lease, heartbeat, or post)."""
        info = self.workers.get(worker)
        if info is None:
            info = self.workers[worker] = WorkerInfo(name=worker,
                                                     first_seen=now)
        info.last_seen = max(info.last_seen, now)
        return info

    def active_workers(self, now: float, horizon: float) -> List[WorkerInfo]:
        """Workers heard from within *horizon* seconds of *now*."""
        return [info for info in self.workers.values()
                if now - info.last_seen <= horizon]

    def retire_idle(self, now: float, horizon: float) -> List[WorkerInfo]:
        """Drop workers silent for more than *horizon* seconds.

        A worker holding a live lease is never retired regardless of
        silence (expiry, not retirement, judges lease ownership).  The
        retired workers' throughput counts fold into
        :attr:`retired_totals` so fleet-lifetime aggregates survive the
        bookkeeping cleanup; returns the retired entries.
        """
        holders = {lease.worker for lease in self._leases.values()}
        gone = [info for info in self.workers.values()
                if now - info.last_seen > horizon
                and info.name not in holders]
        for info in gone:
            del self.workers[info.name]
            self.retired += 1
            self.retired_totals["leases_granted"] += info.leases_granted
            self.retired_totals["completed"] += info.completed
            self.retired_totals["failed"] += info.failed
        return gone
