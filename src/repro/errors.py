"""Typed failure taxonomy for simulation and experiment execution.

Long batch campaigns (the paper's ~50-workload GPGenSim sweeps, our
``repro sweep`` grids) fail in qualitatively different ways: a kernel
whose scheduling deadlocks, a host reference check that disagrees with
the simulated output, a worker process that dies, a cache entry a killed
process left corrupted, a job that simply runs past its wall-clock
budget.  Each gets its own :class:`SimulationError` subclass so callers
(the runner's retry logic, the CLI's exit codes, per-job status in sweep
artifacts) can react by *type* instead of string-matching messages.

Exit-code contract (also documented in the README):

====  =========================  =============================
code  exception                  meaning
====  =========================  =============================
0     —                          success
1     :class:`VerificationError` simulated output != host reference
2     —                          usage error (argparse, bad grid)
3     :class:`DeadlockError`     watchdog killed a hung/stalled kernel
4     :class:`JobTimeoutError`   job exceeded its wall-clock budget
5     :class:`WorkerCrashError`  worker process died / raised
6     :class:`CacheCorruptionError`  unreadable result-cache entry
7     :class:`ServiceError`      serve daemon rejected / lost a request
8     :class:`SimulationError`   any other typed simulation failure
9     :class:`BuildError`        kernel construction / DSL lowering failed
130   ``KeyboardInterrupt``      interrupted (resumable via --resume)
====  =========================  =============================

The service errors double as HTTP statuses: every
:class:`SimulationError` carries an ``http_status`` class attribute the
``repro serve`` daemon uses verbatim when a request maps onto that
failure (429 for :class:`RateLimitError`, 503 for
:class:`QueueFullError`, 409 for :class:`FenceRejectedError`, 404 for
:class:`CacheMissError`, 412 for :class:`CodeSaltMismatchError`,
500 otherwise).
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "BuildError",
    "DeadlockError",
    "VerificationError",
    "WorkerCrashError",
    "CacheCorruptionError",
    "JobTimeoutError",
    "ServiceError",
    "QueueFullError",
    "RateLimitError",
    "FenceRejectedError",
    "CacheMissError",
    "CodeSaltMismatchError",
    "exit_code_for",
    "describe",
]


class SimulationError(Exception):
    """Base class for every typed simulation/execution failure.

    Class attributes:

    * ``exit_code`` — the CLI process exit status for this failure kind.
    * ``transient`` — whether a retry could plausibly succeed (worker
      crashes may be environmental; deadlocks and verification failures
      are deterministic and never retried).
    * ``http_status`` — the response status the ``repro serve`` daemon
      answers with when this failure terminates a request.
    """

    exit_code = 8
    transient = False
    http_status = 500


class DeadlockError(SimulationError, RuntimeError):
    """The simulator made no progress while work was still pending.

    Raised by the watchdog in :class:`repro.gpu.simulator.GpuSimulator`:
    either the event queue went empty with workgroups outstanding, the
    cycle budget (``GpuConfig.max_cycles``) was exhausted, or no
    instruction issued for ``GpuConfig.watchdog_cycles`` consecutive
    cycles (a scheduling deadlock).
    """

    exit_code = 3


class VerificationError(SimulationError, AssertionError):
    """Simulated output does not match the workload's host reference.

    Subclasses :class:`AssertionError` so existing callers (and tests)
    that catch the reference check's assertion keep working.
    """

    exit_code = 1


class BuildError(SimulationError, ValueError):
    """Kernel construction failed: builder misuse or DSL lowering error.

    Raised by :class:`repro.isa.builder.KernelBuilder` (and the DSL
    lowering built on it) in place of bare ``ValueError``/asserts, so a
    malformed kernel is distinguishable from a malformed *run*.  Carries
    the offending kernel name and, when the failure is attributable to a
    specific emitted instruction, its index in the program.

    Subclasses :class:`ValueError` so existing callers that caught the
    builder's bare ``ValueError`` keep working.
    """

    exit_code = 9

    def __init__(self, message: str, *, kernel: "str | None" = None,
                 instruction_index: "int | None" = None) -> None:
        prefix = ""
        if kernel is not None:
            prefix = f"kernel {kernel!r}"
            if instruction_index is not None:
                prefix += f", instruction {instruction_index}"
            prefix += ": "
        super().__init__(prefix + message)
        self.kernel = kernel
        self.instruction_index = instruction_index


class JobTimeoutError(SimulationError):
    """A job exceeded its wall-clock budget.

    Raised in-process by the simulator's wall-clock check when a budget
    is set, or synthesized by the runner when a worker overruns its
    deadline and has to be killed from the parent.
    """

    exit_code = 4


class WorkerCrashError(SimulationError):
    """A worker process died or raised an unclassified exception.

    The one *transient* failure kind: the runner retries these with
    exponential backoff before giving up, and degrades from the process
    pool to in-process serial execution when the pool itself breaks.
    """

    exit_code = 5
    transient = True


class CacheCorruptionError(SimulationError):
    """A result-cache entry could not be read back.

    By default corrupted entries are quarantined and re-simulated
    silently; strict cache mode (``ResultCache(strict=True)`` or
    ``$REPRO_STRICT_CACHE``) raises this instead.
    """

    exit_code = 6


class ServiceError(SimulationError):
    """The ``repro serve`` daemon rejected or could not honor a request.

    Base of the service-side taxonomy: raised client-side by
    :class:`repro.serve.client.ServeClient` when the daemon is
    unreachable or answers with an error the client cannot map to a
    more specific type, and subclassed for the daemon's own typed
    rejections below.
    """

    exit_code = 7


class QueueFullError(ServiceError):
    """The daemon's bounded job queue is full (or it is draining).

    Mapped to HTTP 503 with a ``Retry-After`` hint: backpressure, not
    failure — the submission can be retried once the queue drains.
    """

    http_status = 503
    transient = True


class RateLimitError(ServiceError):
    """A client exceeded its per-client submission rate limit.

    Mapped to HTTP 429; like :class:`QueueFullError` this is
    backpressure and safe to retry after the advertised delay.
    """

    http_status = 429
    transient = True


class CacheMissError(ServiceError):
    """The fleet result cache has no entry for the requested key.

    Raised by the daemon's ``GET /cache/{key}`` endpoint (HTTP 404),
    re-raised typed by :meth:`repro.serve.client.ServeClient.cache_fetch`
    so a caller can tell "not cached" from a transport failure, and by a
    result post that names a published entry the store lacks (the
    worker then reposts with the blob).  Never retried as is.
    """

    http_status = 404


class CodeSaltMismatchError(ServiceError):
    """A cache fetch or publish crossed a simulator-version boundary.

    Every fleet cache exchange carries the caller's *code salt* — the
    digest of the simulator source that defines what a result means
    (:func:`repro.runner.code_salt`).  A worker running different
    simulator code than the daemon must neither be served nor allowed to
    publish entries: mixed-version results would be silently
    non-bit-identical.  Mapped to HTTP 412 (Precondition Failed) —
    deterministic version skew, never retried; the fix is redeploying
    the fleet onto one build.
    """

    http_status = 412


class FenceRejectedError(ServiceError):
    """A worker acted on a lease it no longer holds (zombie fencing).

    Raised by the daemon's lease table when a heartbeat, result, or
    failure post carries a stale fence token — the lease expired and the
    job was reassigned, or it belongs to a different worker now.  Mapped
    to HTTP 409; the correct worker reaction is to *drop* the job (its
    result is owned by whoever holds the current fence), so unlike the
    backpressure errors this is **not** transient and never retried.
    """

    http_status = 409


def exit_code_for(exc: BaseException) -> int:
    """Process exit status for *exc* (KeyboardInterrupt maps to 130)."""
    if isinstance(exc, SimulationError):
        return exc.exit_code
    if isinstance(exc, KeyboardInterrupt):
        return 130
    return 1


def describe(exc: BaseException) -> str:
    """One-line ``ErrorType: message`` rendering for logs and stderr."""
    message = " ".join(str(exc).split()) or "(no detail)"
    return f"{type(exc).__name__}: {message}"
