"""Simulation-as-a-service: the ``repro serve`` daemon and its fleet.

A long-lived asyncio daemon exposing the runner over HTTP/JSON —
submit workload x policy x config jobs, poll status, fetch typed
results and Chrome traces — with in-flight dedup, a durable job
journal for restart recovery, admission control (bounded queue +
per-client rate limiting) and graceful SIGTERM drain.  ``repro
worker`` processes on any number of hosts join the daemon's fleet:
they claim queued jobs under time-bounded, fence-tokened leases, and
a worker that crashes mid-job simply stops heartbeating — the lease
expires and the job is reassigned, up to a bounded number of
attempts.  The fleet shares one content-keyed result store: the
daemon resolves any spec the store already holds without leasing it,
and workers publish serialized results into it (salt-gated,
digest-verified) before posting them by digest, so one grid over N
workers is exactly one execution per point.  Stdlib only.

Layers (each importable on its own):

* :mod:`repro.serve.jobs` — JobSpec/JobRecord/result payloads;
* :mod:`repro.serve.journal` — durable JSONL job journal;
* :mod:`repro.serve.leases` — lease table + fence tokens;
* :mod:`repro.serve.service` — queue, dedup, leases (the local executor
  included), metrics;
* :mod:`repro.serve.http` — the HTTP surface + graceful shutdown;
* :mod:`repro.serve.client` — synchronous client (``repro client``);
* :mod:`repro.serve.worker` — the fleet worker (``repro worker``).
"""

from .client import ServeClient, ServeClientError
from .jobs import (
    RESULT_SCHEMA,
    JobRecord,
    JobSpec,
    JobState,
    result_blob,
    result_from_blob,
    result_payload,
)
from .journal import ServeJournal
from .leases import Lease, LeaseTable, WorkerInfo
from .service import (
    JobService,
    NotCancellableError,
    RateLimiter,
    UnknownJobError,
)
from .worker import ChaosHooks, ServeWorker

__all__ = [
    "RESULT_SCHEMA",
    "ChaosHooks",
    "JobRecord",
    "JobService",
    "JobSpec",
    "JobState",
    "Lease",
    "LeaseTable",
    "NotCancellableError",
    "RateLimiter",
    "ServeClient",
    "ServeClientError",
    "ServeJournal",
    "ServeWorker",
    "UnknownJobError",
    "WorkerInfo",
    "result_blob",
    "result_from_blob",
    "result_payload",
]
