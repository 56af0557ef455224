"""Shared execution engine for every experiment and benchmark.

All of the paper's evaluation artifacts reduce to the same primitive:
simulate a ``(workload, GpuConfig)`` pair and keep the
:class:`~repro.gpu.results.KernelRunResult`.  The figure/table modules
used to do that serially and independently, re-simulating identical
pairs many times per regeneration.  This module centralizes the
primitive:

* :class:`Job` names one simulation request.  Jobs are keyed by the
  workload's registry name, its factory keyword arguments, and a stable
  digest of the :class:`~repro.gpu.config.GpuConfig` dataclass, so two
  experiments asking for the same simulation share one execution.
* :class:`Runner` deduplicates a batch of jobs, consults an on-disk
  :class:`ResultCache`, and fans cache misses out across a
  ``concurrent.futures.ProcessPoolExecutor``.  Workloads are rebuilt
  from :data:`~repro.kernels.WORKLOAD_REGISTRY` by name inside each
  worker, so nothing unpicklable ever crosses the process boundary.
* :class:`ResultCache` stores pickled results keyed by job identity plus
  a *code salt* — a digest of the simulator's own source — so editing
  the timing model invalidates everything while an unrelated edit (an
  experiment harness, the CLI, docs) keeps the cache warm.

Every simulation is deterministic (workload factories seed their RNGs),
so parallel and cached runs are bit-identical to serial cold runs.

The engine is also *fault-tolerant* (a multi-hour regeneration pass must
survive a single bad job): per-job wall-clock timeouts backed by the
simulator's own watchdog, bounded retry on the :mod:`repro.retry`
schedule for transient worker failures, graceful degradation from the
process pool to in-process serial execution when the pool breaks,
crash-safe cache writes with quarantine of corrupted entries, and a
:class:`CheckpointJournal` that lets ``repro sweep --resume`` skip
already-completed jobs after a crash or Ctrl-C.  Failures are typed
(:mod:`repro.errors`) and surface per-job in :class:`RunStats`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import logging
import os
import pickle
import re
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from . import retry
from .errors import (
    CacheCorruptionError,
    CodeSaltMismatchError,
    JobTimeoutError,
    SimulationError,
    WorkerCrashError,
    describe,
)
from .gpu.config import GpuConfig
from .gpu.results import KernelRunResult
from .journal import JsonlJournal

logger = logging.getLogger("repro.runner")

#: Bump when the cached payload layout changes incompatibly.
CACHE_SCHEMA = 1

#: Subpackages whose source participates in the cache code salt: exactly
#: the ones that can change what a simulation measures.
_SIM_PACKAGES = ("core", "dsl", "eu", "gpu", "isa", "kernels", "memory",
                 "trace")

_inline_ids = itertools.count()
_tmp_ids = itertools.count()


# ---------------------------------------------------------------------------
# Stable keying


def _canonical(obj: Any) -> Any:
    """Reduce *obj* to JSON-serializable data with a stable ordering."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Mapping):
        return {str(key): _canonical(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot build a stable cache key from {type(obj).__name__!r} values"
    )


def stable_digest(obj: Any) -> str:
    """Hex digest of *obj*'s canonical JSON form (config/params keying)."""
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def config_digest(config: GpuConfig) -> str:
    """Stable short digest of a :class:`GpuConfig` (nested dataclasses included)."""
    return stable_digest(config)


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the simulator's own source files.

    Any edit to the packages that define what a simulation *measures*
    (cycle model, EU, memory hierarchy, ISA, kernels) changes the salt
    and therefore invalidates every cache entry; edits elsewhere
    (experiments, analysis, CLI, this module's orchestration) do not.
    """
    digest = hashlib.sha256()
    root = Path(__file__).resolve().parent
    for package in _SIM_PACKAGES:
        base = root / package
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    digest.update(f"schema={CACHE_SCHEMA}".encode("utf-8"))
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Jobs


class Job:
    """One simulation request: a workload plus the config to run it under.

    Args:
        workload: registry name (see :data:`repro.kernels.WORKLOAD_REGISTRY`)
            or, for inline-factory jobs, a display label.
        config: machine parameters for the run (default :class:`GpuConfig`).
        params: keyword arguments for the workload factory (problem
            sizes, SIMD width, ...).  Part of the job's identity.
        factory: optional zero/keyword-arg callable returning a fresh
            :class:`~repro.kernels.workload.Workload`.  Inline-factory
            jobs run in the parent process and are never cached (the
            callable has no stable identity); prefer registry names.
        verify: run the workload's host reference check after simulating.
    """

    __slots__ = ("workload", "config", "params", "factory", "verify",
                 "_inline_id", "_key")

    def __init__(
        self,
        workload: str,
        config: Optional[GpuConfig] = None,
        params: Optional[Mapping[str, Any]] = None,
        factory: Optional[Callable[..., Any]] = None,
        verify: bool = True,
    ) -> None:
        self.workload = workload
        self.config = config if config is not None else GpuConfig()
        self.params: Tuple[Tuple[str, Any], ...] = tuple(
            sorted((params or {}).items())
        )
        self.factory = factory
        self.verify = verify
        self._inline_id = None if factory is not None else -1
        if factory is None:
            from .kernels import WORKLOAD_REGISTRY

            if workload not in WORKLOAD_REGISTRY:
                raise KeyError(
                    f"unknown workload {workload!r}; pass factory= for "
                    f"out-of-registry workloads"
                )
        else:
            self._inline_id = next(_inline_ids)
        self._key = self._compute_key()

    def _compute_key(self) -> str:
        parts = [
            self.workload,
            stable_digest(dict(self.params)),
            config_digest(self.config),
        ]
        if self.factory is not None:
            # Inline factories have no stable identity: make the key
            # unique so two different callables never alias.
            parts.append(f"inline{self._inline_id}")
        return "|".join(parts)

    @property
    def key(self) -> str:
        """Identity of this job within a batch (and, if cacheable, on disk)."""
        return self._key

    @property
    def cacheable(self) -> bool:
        # Fault-injection workloads (repro.kernels.faults) are registry
        # entries, so workers can rebuild them by name, but their whole
        # point is to misbehave — never let them poison the cache.
        from .kernels import FAULT_PREFIX

        return (self.factory is None
                and not self.workload.startswith(FAULT_PREFIX))

    def build(self):
        """Instantiate a fresh workload for this job."""
        if self.factory is not None:
            return self.factory(**dict(self.params))
        from .kernels import WORKLOAD_REGISTRY

        return WORKLOAD_REGISTRY[self.workload](**dict(self.params))

    def execute(self) -> KernelRunResult:
        """Simulate this job in the current process."""
        from .kernels.workload import run_workload

        return run_workload(self.build(), self.config, verify=self.verify)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Job) and self._key == other._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.workload!r}, params={dict(self.params)!r})"


def _execute_named(workload: str, params: Tuple[Tuple[str, Any], ...],
                   config: GpuConfig, verify: bool,
                   timeout: Optional[float] = None) -> KernelRunResult:
    """Process-pool entry point: rebuild the workload by name and run it.

    *timeout* arms the simulator's in-worker wall-clock watchdog, so a
    hung kernel kills itself with a typed error instead of relying on
    the parent to notice and terminate the whole pool.
    """
    from .kernels import WORKLOAD_REGISTRY
    from .kernels.workload import run_workload

    instance = WORKLOAD_REGISTRY[workload](**dict(params))
    return run_workload(instance, config, verify=verify, host_seconds=timeout)


def _policy_groups(jobs: List[Job]) -> List[List[Job]]:
    """Split *jobs* into groups that differ only in ``config.policy``
    (same workload, params and rest of the config), in first-seen order."""
    from .core.policy import CompactionPolicy

    groups: Dict[Tuple[str, str, str], List[Job]] = {}
    for job in jobs:
        key = (job.workload, stable_digest(dict(job.params)),
               config_digest(job.config.with_policy(CompactionPolicy.IVB)))
        groups.setdefault(key, []).append(job)
    return list(groups.values())


# ---------------------------------------------------------------------------
# On-disk result cache


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-sim"


class ResultCache:
    """Content-keyed pickle store of :class:`KernelRunResult`.

    Entry names combine the (sanitized) workload name, the job key, and
    the code salt.  Entries are *sharded* two directory levels deep by
    digest prefix (``<root>/ab/cd/<name>-abcd....pkl``) so a
    service-scale cache of hundreds of thousands of results never
    degrades into one giant flat directory.  Writes are crash-safe: the
    payload goes to a uniquely-named temp file in the same directory, is
    fsynced, and is ``os.replace``-d into place, so a killed process can
    never leave a truncated entry behind (at worst an orphaned
    ``.*.tmp`` file, swept by :meth:`clear`).  A corrupted or unreadable
    entry is *quarantined* — moved into ``<root>/quarantine/`` for
    post-mortem inspection — and treated as a miss so the job falls back
    to re-simulation; with ``strict=True`` (or ``$REPRO_STRICT_CACHE``) it
    raises :class:`~repro.errors.CacheCorruptionError` instead.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 salt: Optional[str] = None,
                 strict: Optional[bool] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt if salt is not None else code_salt()
        if strict is None:
            strict = bool(os.environ.get("REPRO_STRICT_CACHE"))
        self.strict = strict
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: Quarantine destinations of entries condemned this session.
        self.quarantined: List[Path] = []

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _entry_name_for_key(self, key: str) -> str:
        # A content key's first |-separated part is the workload name
        # (see Job._compute_key), kept in the entry name for humans.
        workload = key.split("|", 1)[0]
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", workload)
        digest = hashlib.sha256(
            f"{key}|{self.salt}".encode("utf-8")
        ).hexdigest()[:32]
        return f"{name}-{digest}.pkl"

    def path_for(self, job: Job) -> Path:
        """Sharded location of *job*'s entry: ``<root>/ab/cd/<entry>``."""
        return self.path_for_key(job.key)

    def path_for_key(self, key: str) -> Path:
        """Sharded location of the entry for a raw content *key*.

        The shard is the first four hex digits of the entry digest (the
        trailing part of the file name), giving a 256x256 fanout.  This
        is the fleet-facing address: the serve daemon's cache endpoints
        resolve ``GET/POST /cache/{key}`` through it without needing to
        rebuild a :class:`Job` (whose constructor validates the workload
        registry — irrelevant for a pure byte fetch).
        """
        entry = self._entry_name_for_key(key)
        digest = entry.rsplit("-", 1)[1]
        return self.root / digest[:2] / digest[2:4] / entry

    # -- bytes-level fleet surface -----------------------------------------

    @staticmethod
    def serialize(result: KernelRunResult) -> bytes:
        """The exact bytes :meth:`store` writes for *result*."""
        return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def deserialize(data: bytes) -> KernelRunResult:
        """Decode :meth:`serialize` output; typed error on garbage."""
        try:
            result = pickle.loads(data)
            if not isinstance(result, KernelRunResult):
                raise TypeError(
                    f"cache payload holds {type(result).__name__}")
        except CacheCorruptionError:
            raise
        except Exception as exc:
            raise CacheCorruptionError(
                f"cache payload is unreadable "
                f"({type(exc).__name__}: {exc})") from exc
        return result

    def fetch(self, key: str) -> Optional[Tuple[bytes, KernelRunResult]]:
        """Raw entry bytes (plus the decoded result) for *key*, or None.

        The fleet fetch path: the bytes are what ``GET /cache/{key}``
        ships to workers, and the decoded result proves they are
        servable before they leave the daemon.  A corrupt entry is
        quarantined and reported as a miss (strict mode raises).
        """
        path = self.path_for_key(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            result = self.deserialize(data)
        except CacheCorruptionError as exc:
            self.corrupt += 1
            moved = self._quarantine(path)
            if self.strict:
                where = f"; quarantined to {moved}" if moved else ""
                raise CacheCorruptionError(
                    f"cache entry {path.name} is unreadable{where}") from exc
            return None
        return data, result

    def store_payload(self, key: str, data: bytes,
                      salt: Optional[str] = None,
                      expect_digest: Optional[str] = None
                      ) -> KernelRunResult:
        """Ingest serialized result bytes published by a fleet peer.

        Salt-gated and digest-verified: *salt* (when given) must match
        this cache's code salt — a publish from a worker running
        different simulator source raises
        :class:`~repro.errors.CodeSaltMismatchError` rather than
        poisoning the store — and the decoded result's buffer digest
        must match *expect_digest* (when given) or the payload is
        rejected as corrupt.  Returns the verified, reconstructed
        :class:`KernelRunResult`; the original bytes are written
        atomically (same crash-safety as :meth:`store`).
        """
        if salt is not None and salt != self.salt:
            raise CodeSaltMismatchError(
                f"cache publish for key {key!r} carries code salt "
                f"{salt!r} but this store is salted {self.salt!r} "
                f"(mixed simulator versions in the fleet)")
        result = self.deserialize(data)
        if expect_digest is not None and result.buffers_digest != expect_digest:
            raise CacheCorruptionError(
                f"cache publish for key {key!r} decodes to buffer digest "
                f"{result.buffers_digest[:16]}... but claimed "
                f"{str(expect_digest)[:16]}...")
        self._write(self.path_for_key(key), data)
        return result

    def load(self, job: Job) -> Optional[KernelRunResult]:
        """*job*'s cached result, or None; counts the hit or miss.  A
        corrupt entry is handled as in :meth:`fetch`."""
        hit = self.fetch(job.key)
        if hit is None:
            self.misses += 1
            return None
        self.hits += 1
        return hit[1]

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a condemned entry aside; fall back to deleting it."""
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.quarantined.append(target)
        return target

    def store(self, job: Job, result: KernelRunResult) -> None:
        self._write(self.path_for(job), self.serialize(result))

    def _write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per (process, sequence number): concurrent writers of
        # the same entry never collide, and a crash mid-write leaves only
        # this temp file — the published entry is always complete.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_ids)}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)  # atomic publish
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cache entry (and stale temp files); returns the
        number of entries removed.  Also sweeps flat ``*.pkl`` files left
        by the pre-sharding layout, which is no longer read."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.pkl", "*/*/*.pkl"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            for pattern in (".*.tmp", "*/*/.*.tmp"):
                for stale in self.root.glob(pattern):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
        return removed


# ---------------------------------------------------------------------------
# Runner


@dataclass
class JobEvent:
    """Progress callback payload: one job was resolved.

    ``result`` is set for "cached"/"executed" events and ``error`` for
    "failed" ones, so a progress hook can double as a checkpoint writer
    (this is how ``repro sweep`` journals completed jobs incrementally).
    """

    job: Job
    status: str  # "cached" | "executed" | "failed"
    elapsed: float  # seconds spent *executing* this job (0 for cached)
    index: int  # 1-based position among the batch's unique jobs
    total: int  # number of unique jobs in the batch
    result: Optional[KernelRunResult] = None
    error: Optional[BaseException] = None
    #: Seconds this job spent waiting to start (behind earlier jobs in
    #: the serial path, or queued behind busy pool workers) before its
    #: execution clock began.  Kept separate from ``elapsed`` so wait
    #: and execution are never conflated (the PR-3 deadline bug).
    queue_wait: float = 0.0


@dataclass
class RunStats:
    """Accounting for one :meth:`Runner.run` batch."""

    requested: int = 0
    unique: int = 0
    cache_hits: int = 0
    executed: int = 0
    wall_seconds: float = 0.0
    #: Host seconds spent actually simulating (sum of per-job elapsed
    #: time over executed jobs; cache hits cost ~0 and are excluded).
    host_seconds: float = 0.0
    #: Host seconds jobs spent *queued* before execution began (sum of
    #: per-job waits over executed and failed jobs).  Disjoint from
    #: ``host_seconds``: wait and execution are first-class, separate
    #: quantities.
    queue_seconds: float = 0.0
    #: Simulated GPU cycles produced by the executed jobs.
    total_cycles: int = 0
    #: Jobs that ultimately failed (after retries), keyed by job key.
    failures: Dict[str, BaseException] = field(default_factory=dict)
    failed: int = 0
    #: Individual retry attempts made for transient failures.
    retried: int = 0
    #: Failures that were wall-clock timeouts.
    timeouts: int = 0
    #: Times the process pool broke and execution fell back to serial.
    degraded: int = 0
    #: Fast-engine launches that ran their functional pass, and launches
    #: that replayed a pass a same-group job under another policy made
    #: (serial path only; the pool path runs one job per task).
    functional_passes: int = 0
    functional_reused: int = 0

    @property
    def cycles_per_second(self) -> float:
        """Simulator throughput: simulated cycles per host second of
        execution (0.0 when nothing was executed this batch)."""
        if self.host_seconds <= 0:
            return 0.0
        return self.total_cycles / self.host_seconds


class Runner:
    """Deduplicating, caching, parallel, fault-tolerant executor of
    simulation jobs.

    Args:
        workers: process count for cache misses.  1 (default) runs
            serially in-process; ``None`` reads ``$REPRO_JOBS``.
        cache: a :class:`ResultCache`, a path for one, ``None``/"default"
            for the default location, or ``False`` to disable caching.
        verify: master switch for host reference checks (AND-ed with each
            job's own flag).
        progress: optional callable receiving a :class:`JobEvent` as each
            unique job resolves.
        timeout: per-job wall-clock budget in seconds (``None`` = no
            limit).  Enforced inside each job by the simulator's
            watchdog; pool workers that still overrun (hung host code)
            are killed from the parent after an additional grace period.
        retries: bounded retry count for *transient* failures (worker
            crashes, unclassified worker exceptions), paced by
            :mod:`repro.retry`.  Typed deterministic failures —
            deadlock, verification, timeout — are never retried.
        strict: when True (default), :meth:`run` re-raises the first
            job failure after the batch drains; when False it returns
            the successful results and leaves failures in
            ``last_stats.failures`` for the caller to salvage.
        timeout_grace: extra seconds the parent grants a pool worker
            beyond ``timeout`` before killing the pool (default
            ``max(2, timeout)``).
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: Any = "default",
        verify: bool = True,
        progress: Optional[Callable[[JobEvent], None]] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        strict: bool = True,
        timeout_grace: Optional[float] = None,
    ) -> None:
        if workers is None:
            workers = int(os.environ.get("REPRO_JOBS", "1") or "1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if cache is False or cache is None:
            self.cache: Optional[ResultCache] = None
        elif isinstance(cache, ResultCache):
            self.cache = cache
        elif cache == "default":
            self.cache = (None if os.environ.get("REPRO_NO_CACHE")
                          else ResultCache())
        else:
            self.cache = ResultCache(cache)
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.verify = verify
        self.progress = progress
        self.timeout = timeout
        self.retries = retries
        self.strict = strict
        self.timeout_grace = timeout_grace
        self.last_stats = RunStats()
        # Cumulative counters across the runner's lifetime (test hooks).
        self.total_executed = 0
        self.total_cache_hits = 0
        self.total_functional_passes = 0
        self.total_functional_reused = 0

    # -- public API --------------------------------------------------------

    def run_one(self, workload: str, config: Optional[GpuConfig] = None,
                **params: Any) -> KernelRunResult:
        """Run a single registry workload through the engine."""
        job = Job(workload, config, params=params)
        return self.run([job])[job]

    def run(self, jobs: Iterable[Job],
            strict: Optional[bool] = None,
            trace_sinks: Optional[Mapping[Job, List]] = None,
            ) -> Dict[Job, KernelRunResult]:
        """Resolve a batch of jobs; returns ``{job: result}``.

        Duplicate jobs (same workload, params, and config) are simulated
        once; every requested job still appears as a key in the returned
        mapping, so callers can look results up with their own objects.

        *trace_sinks* maps jobs of the batch to lists that collect their
        runs' :class:`~repro.trace.format.TraceEvent` streams (see
        :func:`~repro.kernels.workload.run_workload`).  A traced job is
        never answered from the cache and always executes in this
        process, so its sink is always filled; a retried attempt starts
        it afresh.  Otherwise it is an ordinary job: its result is
        stored, counted and emitted as "executed", and the sink, a pure
        observer, leaves the result bit-identical to an untraced run.

        Failure policy: a job whose execution fails permanently (after
        retries and pool degradation) lands in ``last_stats.failures``.
        Under strict mode (the runner's default, overridable per call)
        the first such failure is re-raised once the rest of the batch
        has drained; otherwise the failed jobs are simply absent from
        the returned mapping.  ``KeyboardInterrupt`` cancels pending
        work, preserves everything already cached, and propagates.
        """
        start = time.perf_counter()
        requested = list(jobs)
        unique: Dict[str, Job] = {}
        for job in requested:
            unique.setdefault(job.key, job)
        sinks = {job.key: sink for job, sink in (trace_sinks or {}).items()}
        if not sinks.keys() <= unique.keys():
            raise ValueError("trace_sinks names a job outside the batch")

        stats = RunStats(requested=len(requested), unique=len(unique))
        results: Dict[str, KernelRunResult] = {}
        pending: List[Job] = []
        progress_index = 0

        def emit(job: Job, status: str, elapsed: float,
                 result: Optional[KernelRunResult] = None,
                 error: Optional[BaseException] = None,
                 queue_wait: float = 0.0) -> None:
            nonlocal progress_index
            progress_index += 1
            if self.progress is not None:
                self.progress(JobEvent(job, status, elapsed,
                                       progress_index, len(unique),
                                       result, error, queue_wait))

        try:
            for key, job in unique.items():
                cached = (self.cache.load(job)
                          if self.cache is not None and job.cacheable
                          and key not in sinks else None)
                if cached is not None:
                    results[key] = cached
                    stats.cache_hits += 1
                    emit(job, "cached", 0.0, result=cached)
                else:
                    pending.append(job)

            named = [job for job in pending if job.factory is None]
            local = [job for job in pending if job.factory is not None]
            if self.workers > 1:
                # A sink cannot cross the process boundary: traced jobs
                # stay in this process.
                local = [job for job in named if job.key in sinks] + local
                named = [job for job in named if job.key not in sinks]

            queued_since = time.monotonic()
            if len(named) > 1 and self.workers > 1:
                self._run_pool(named, results, stats, emit, queued_since)
            else:
                self._run_serial(named, results, stats, emit, queued_since,
                                 sinks=sinks)
            self._run_serial(local, results, stats, emit, queued_since,
                             sinks=sinks)
        finally:
            stats.wall_seconds = time.perf_counter() - start
            self.last_stats = stats
            self.total_executed += stats.executed
            self.total_cache_hits += stats.cache_hits
            self.total_functional_passes += stats.functional_passes
            self.total_functional_reused += stats.functional_reused

        if (self.strict if strict is None else strict) and stats.failures:
            raise next(iter(stats.failures.values()))
        return {job: results[job.key]
                for job in requested if job.key in results}

    # -- execution paths ---------------------------------------------------

    def _finish(self, job: Job, result: KernelRunResult,
                results: Dict[str, KernelRunResult], stats: RunStats,
                emit, elapsed: float, queue_wait: float = 0.0) -> None:
        results[job.key] = result
        stats.executed += 1
        stats.host_seconds += elapsed
        stats.queue_seconds += queue_wait
        stats.total_cycles += result.total_cycles
        if self.cache is not None and job.cacheable:
            self.cache.store(job, result)
        emit(job, "executed", elapsed, result=result, queue_wait=queue_wait)

    def _fail(self, job: Job, error: BaseException, stats: RunStats,
              emit, elapsed: float, queue_wait: float = 0.0) -> None:
        stats.failed += 1
        if isinstance(error, JobTimeoutError):
            stats.timeouts += 1
        stats.queue_seconds += queue_wait
        stats.failures[job.key] = error
        emit(job, "failed", elapsed, error=error, queue_wait=queue_wait)

    def _grace_seconds(self) -> float:
        if self.timeout_grace is not None:
            return self.timeout_grace
        return max(2.0, self.timeout or 0.0)

    def _run_serial(self, jobs: List[Job], results, stats, emit,
                    queued_since: Optional[float] = None,
                    attempts: Optional[Dict[str, int]] = None,
                    sinks: Optional[Dict[str, List]] = None) -> None:
        """Run *jobs* in-process, one policy group at a time.

        *attempts* maps a job key to the retries it already spent in a
        pool that broke, so the budget covers all of a job's runs.
        *sinks* maps a job key to its trace sink (see :meth:`run`).

        Jobs of a group share a :class:`~repro.eu.batch.FunctionalMemo`,
        so the fast engine makes each launch's functional pass once and
        replays it under every policy.  The memo lives for one group
        only: memory stays bounded by one job's launches, and nothing
        carries over to another group or another :meth:`run` call.
        """
        from .eu.batch import FunctionalMemo

        for group in _policy_groups(jobs):
            memo = FunctionalMemo()
            try:
                for job in group:
                    self._run_local(job, results, stats, emit, queued_since,
                                    memo, (attempts or {}).get(job.key, 0),
                                    (sinks or {}).get(job.key))
            finally:
                stats.functional_passes += memo.passes
                stats.functional_reused += memo.reused
                memo.clear()

    def _run_local(self, job: Job, results, stats, emit,
                   queued_since: Optional[float] = None,
                   memo=None, attempt: int = 0,
                   sink: Optional[List] = None) -> None:
        from .kernels.workload import run_workload

        # Time spent behind earlier jobs of this batch, measured up to
        # the moment execution (first attempt) begins.
        queue_wait = (max(0.0, time.monotonic() - queued_since)
                      if queued_since is not None else 0.0)
        while True:
            if sink is not None:
                sink.clear()  # drop a failed attempt's partial trace
            tick = time.perf_counter()
            try:
                result = run_workload(job.build(), job.config,
                                      verify=job.verify and self.verify,
                                      host_seconds=self.timeout,
                                      trace_sink=sink, memo=memo)
            except Exception as exc:
                error = self._failure(job, exc, attempt, stats)
                if error is None:
                    attempt += 1
                    retry.sleep(retry.delay(attempt))
                    continue
                self._fail(job, error, stats, emit,
                           time.perf_counter() - tick, queue_wait)
            else:
                self._finish(job, result, results, stats, emit,
                             time.perf_counter() - tick, queue_wait)
            return

    def _failure(self, job: Job, exc: Exception, attempts: int,
                 stats) -> Optional[SimulationError]:
        """The error that fails *job* after *exc*, or None to retry it.

        Typed failures are deterministic — retrying a deadlock or a
        verification mismatch would reproduce it — so a
        :class:`SimulationError` fails the job at once.  Anything else
        is retried while retries remain (*attempts* counts those already
        spent), then fails as a :class:`WorkerCrashError`.  The caller
        owns the wait before the retry (:func:`repro.retry.delay`).
        """
        if isinstance(exc, SimulationError):
            return exc
        if attempts < self.retries:
            stats.retried += 1
            return None
        crash = WorkerCrashError(
            f"job {job.workload!r} failed after {attempts + 1} "
            f"attempt(s): {describe(exc)}")
        crash.__cause__ = exc
        return crash

    def _run_pool(self, named: List[Job], results, stats, emit,
                  queued_since: Optional[float] = None) -> None:
        """Fan *named* jobs across worker processes, surviving faults.

        Each round submits the outstanding jobs to a fresh
        ``ProcessPoolExecutor``; jobs whose failure is transient come
        back for the next round (bounded by ``retries``).  If a round's
        pool breaks — a worker was OOM-killed, segfaulted, or had to be
        terminated for overrunning its deadline — execution degrades to
        in-process serial for whatever is left, each job keeping the
        retries it spent.  A round never sleeps: the retry delay its
        failures owe is waited out between rounds, so siblings keep
        finishing and starting meanwhile.
        """
        remaining = list(named)
        attempt = {job.key: 0 for job in named}
        queued_at = (queued_since if queued_since is not None
                     else time.monotonic())
        while remaining:
            remaining, pool_died, retry_at = self._pool_round(
                remaining, attempt, results, stats, emit, queued_at)
            owed = retry_at - time.monotonic()
            if owed > 0:
                retry.sleep(owed)
            if pool_died and remaining:
                stats.degraded += 1
                self._run_serial(remaining, results, stats, emit, queued_at,
                                 attempt)
                return
            # Retry rounds measure waiting from the moment the jobs
            # became runnable again, not from the original batch start.
            queued_at = time.monotonic()

    def _pool_round(self, jobs: List[Job], attempt: Dict[str, int],
                    results, stats, emit,
                    queued_at: float) -> Tuple[List[Job], bool, float]:
        """One process-pool pass; returns (jobs to rerun, pool died?,
        the monotonic time the retried jobs' delay runs out)."""
        rerun: List[Job] = []
        retry_at = 0.0
        broken = False
        workers = min(self.workers, len(jobs))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: Dict[Any, Job] = {}
        started: Dict[Any, float] = {}
        waited: Dict[Any, float] = {}
        queue = list(jobs)

        def submit_next() -> Any:
            # Submission is throttled to the worker count so a submitted
            # future is handed to a free worker at once, making its
            # submit timestamp its running-start timestamp.  (Submitting
            # everything up front would start the timeout clock on jobs
            # still queued behind busy workers, spuriously condemning
            # any job that waits longer than timeout+grace.)
            job = queue.pop(0)
            future = pool.submit(
                _execute_named, job.workload, job.params, job.config,
                job.verify and self.verify, self.timeout)
            futures[future] = job
            started[future] = time.monotonic()
            waited[future] = max(0.0, started[future] - queued_at)
            return future

        try:
            outstanding = {submit_next() for _ in range(workers)}
            deadline = (None if self.timeout is None
                        else self.timeout + self._grace_seconds())
            while outstanding:
                done, outstanding = wait(
                    outstanding, timeout=None if deadline is None else 0.05,
                    return_when=FIRST_COMPLETED)
                for future in done:
                    job = futures[future]
                    elapsed = time.monotonic() - started[future]
                    queue_wait = waited[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        rerun.append(job)
                    except Exception as exc:
                        error = self._failure(job, exc, attempt[job.key],
                                              stats)
                        if error is None:
                            attempt[job.key] += 1
                            rerun.append(job)
                            retry_at = max(retry_at, time.monotonic()
                                           + retry.delay(attempt[job.key]))
                        else:
                            self._fail(job, error, stats, emit, elapsed,
                                       queue_wait)
                    else:
                        self._finish(job, result, results, stats, emit,
                                     elapsed, queue_wait)
                    if queue and not broken:
                        outstanding.add(submit_next())
                if broken:
                    # The pool manager saw a worker die: every future
                    # still outstanding is lost with it, as is anything
                    # not yet submitted.
                    rerun.extend(futures[f] for f in outstanding)
                    rerun.extend(queue)
                    return rerun, True, retry_at
                if deadline is not None and outstanding:
                    # Every outstanding future holds a worker (throttled
                    # submission), so its clock measures execution, not
                    # queueing.
                    now = time.monotonic()
                    overdue = [f for f in outstanding
                               if now - started[f] > deadline]
                    if overdue:
                        # The in-worker watchdog should have fired long
                        # ago: the worker is hung outside the simulator
                        # loop.  Kill the pool; surviving jobs rerun.
                        for future in overdue:
                            job = futures[future]
                            self._fail(job, JobTimeoutError(
                                f"job {job.workload!r} exceeded its "
                                f"{self.timeout:g}s budget (+"
                                f"{self._grace_seconds():g}s grace) and "
                                f"did not self-terminate; worker killed"),
                                stats, emit, now - started[future],
                                waited[future])
                        overdue_set = set(overdue)
                        rerun.extend(futures[f] for f in outstanding
                                     if f not in overdue_set)
                        rerun.extend(queue)
                        broken = True
                        self._terminate_pool(pool)
                        return rerun, True, retry_at
        except KeyboardInterrupt:
            broken = True
            for future in futures:
                future.cancel()
            raise
        finally:
            self._shutdown_pool(pool, wait_for_workers=not broken)
        return rerun, False, retry_at

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-kill a pool whose workers no longer respond."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best effort
                pass

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor,
                       wait_for_workers: bool) -> None:
        try:
            pool.shutdown(wait=wait_for_workers, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may complain
            pass


# ---------------------------------------------------------------------------
# Sweep checkpointing


class CheckpointJournal(JsonlJournal):
    """Append-only journal of completed sweep jobs, for ``--resume``.

    A binding of :class:`~repro.journal.JsonlJournal`: a header line
    binding the file to one sweep grid (via :func:`stable_digest` of the
    grid spec), then one fsynced record per completed job keyed by
    :attr:`Job.key`.  A crash or Ctrl-C loses at most the record being
    written; undecodable lines are quarantined and skipped.  A journal
    whose header does not match the current grid (the sweep definition
    changed) is ignored wholesale rather than resumed into a mixed
    artifact.
    """

    SCHEMA = 1

    def __init__(self, path: os.PathLike, grid_key: str) -> None:
        super().__init__(path, {"schema": self.SCHEMA, "grid": grid_key},
                         required=("key",), logger=logger)

    def load(self) -> Optional[Dict[str, Any]]:
        """``{job_key: record}``, or ``None`` when there is nothing to
        resume (missing file, unreadable header, or another grid)."""
        records = self.records()
        return (None if records is None
                else {entry["key"]: entry for entry in records})

    def append(self, key: str, record: Dict[str, Any]) -> None:
        """Durably journal one completed job."""
        self.write({"key": key, **record})


# ---------------------------------------------------------------------------
# Shared default runner (what experiments use when none is passed)

_default_runner: Optional[Runner] = None


def default_runner() -> Runner:
    """Process-wide shared :class:`Runner`.

    Configured from the environment on first use: ``$REPRO_JOBS`` sets
    the worker count, ``$REPRO_NO_CACHE`` disables the on-disk cache,
    ``$REPRO_CACHE_DIR`` relocates it.  Experiment modules route through
    this instance unless an explicit runner is supplied, which is what
    lets one figure's simulations satisfy another's.
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner(workers=None)
    return _default_runner


def set_default_runner(runner: Optional[Runner]) -> Optional[Runner]:
    """Replace the shared runner (CLI flags, tests); returns the old one."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous
