"""Synchronous client for the ``repro serve`` daemon.

Thin stdlib-``http.client`` wrapper used by the ``repro client`` CLI,
the ``repro worker`` fleet process, the test-suite, and the CI smoke
jobs.  Every method returns the decoded JSON body; non-2xx responses
raise :class:`ServeClientError` carrying the HTTP status and the
daemon's error message, and :meth:`ServeClient.watch` polls a job to a
terminal state.

Transient failures are retried *transparently*: connection resets and
refusals (``OSError``), 429 rate limiting, and 503 backpressure back
off with exponential, decorrelated jitter — honoring the daemon's
``Retry-After`` header when one is sent — up to ``max_retries``
attempts before the typed error propagates.  Deterministic errors
(400/404/409/412, including fence rejections, cache misses, and
code-salt skew) never retry.  Submissions are
safe to retry because identical submissions dedup onto one execution
daemon-side (at-least-once posting, exactly-once execution).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote

from ..errors import CacheMissError, ServiceError

#: Poll period for :meth:`ServeClient.watch` (seconds).
WATCH_INTERVAL = 0.25

TERMINAL = ("done", "failed", "cancelled")

#: HTTP statuses worth retrying: backpressure, not failure.
RETRYABLE_STATUSES = (429, 503)


class ServeClientError(ServiceError):
    """The daemon answered with an error status."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        #: Parsed ``Retry-After`` hint (seconds), when the daemon sent one.
        self.retry_after = retry_after


class ServeClient:
    """One daemon endpoint (``host:port``), one request per call.

    Args:
        max_retries: transient-failure retries per request (0 disables;
            the ``repro client``/``repro worker`` ``--no-retry`` flag).
        retry_base: floor of the decorrelated-jitter backoff (seconds).
        retry_cap: ceiling of any single backoff sleep (seconds).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 client_id: str = "", timeout: float = 30.0,
                 max_retries: int = 3, retry_base: float = 0.1,
                 retry_cap: float = 2.0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        #: Transient-failure retries performed over this client's life.
        self.retries_attempted = 0
        self._rng = random.Random()
        self._sleep = time.sleep  # test seam

    # -- transport ---------------------------------------------------------

    def _once(self, method: str, path: str,
              body: Optional[Any]) -> Tuple[int, Any, Optional[float]]:
        """One HTTP round-trip: (status, decoded body, Retry-After)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        headers = {"Content-Type": "application/json",
                   "Connection": "close"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        try:
            conn.request(method, path,
                         body=(json.dumps(body) if body is not None
                               else None),
                         headers=headers)
            response = conn.getresponse()
            raw = response.read()
            retry_after = _parse_retry_after(
                response.getheader("Retry-After"))
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": raw[:200].decode("latin-1")}
        return response.status, payload, retry_after

    def request(self, method: str, path: str, body: Optional[Any] = None,
                retries: Optional[int] = None) -> Any:
        """One JSON exchange with transparent transient-failure retry.

        *retries* overrides the client-wide ``max_retries`` for this
        call (``0`` = fail fast; :meth:`wait_ready` uses that to run
        its own startup loop).  Typed error on non-2xx responses.
        """
        budget = self.max_retries if retries is None else retries
        sleep = self.retry_base
        attempt = 0
        while True:
            retry_after = None
            try:
                status, payload, retry_after = self._once(method, path, body)
            except OSError as exc:
                if attempt < budget:
                    attempt += 1
                    self.retries_attempted += 1
                    sleep = self._backoff(sleep, None)
                    continue
                raise ServeClientError(
                    0, f"cannot reach repro serve at "
                       f"{self.host}:{self.port}: {exc}") from exc
            if status in RETRYABLE_STATUSES and attempt < budget:
                attempt += 1
                self.retries_attempted += 1
                sleep = self._backoff(sleep, retry_after)
                continue
            if status >= 400:
                message = (payload.get("error", f"HTTP {status}")
                           if isinstance(payload, dict) else str(payload))
                raise ServeClientError(status, message,
                                       retry_after=retry_after)
            return payload

    def _backoff(self, sleep: float,
                 retry_after: Optional[float]) -> float:
        """Sleep before a retry; returns the next backoff state.

        Decorrelated jitter (``sleep = uniform(base, 3 * sleep)``,
        capped) spreads a fleet's retries instead of synchronizing
        them; an explicit ``Retry-After`` from the daemon wins.
        """
        if retry_after is not None:
            delay = min(max(0.0, retry_after), 30.0)
        else:
            delay = sleep
        self._sleep(delay)
        return min(self.retry_cap,
                   self._rng.uniform(self.retry_base, 3.0 * sleep))

    # -- endpoints ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/metrics")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one JobSpec payload; returns the job status body."""
        return self.request("POST", "/jobs", body=spec)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}/result")

    def trace(self, job_id: str) -> Any:
        return self.request("GET", f"/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/jobs/{job_id}")

    def jobs(self, **filters: Any) -> Dict[str, Any]:
        query = "&".join(f"{key}={value}" for key, value in filters.items()
                         if value is not None)
        return self.request("GET", "/jobs" + (f"?{query}" if query else ""))

    # -- fleet (worker) endpoints ------------------------------------------

    def lease(self, worker: str, max_jobs: int = 1,
              wait: float = 0.0) -> Dict[str, Any]:
        """Claim queued jobs under a lease; long-polls up to *wait* s."""
        return self.request("POST", "/work/lease",
                            body={"worker": worker, "max_jobs": max_jobs,
                                  "wait": wait})

    def heartbeat(self, job_id: str, worker: str,
                  fence: int) -> Dict[str, Any]:
        """Renew a lease; raises 409 :class:`ServeClientError` when
        fenced out (the worker must then abandon the job)."""
        return self.request("POST", f"/work/{job_id}/heartbeat",
                            body={"worker": worker, "fence": fence})

    def post_result(self, job_id: str, worker: str, fence: int,
                    result: Dict[str, Any], exec_seconds: float = 0.0,
                    cache: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
        """Publish a finished job's typed result payload.

        *cache*, when given, is either a reference ``{"digest": ...}``
        to the entry the worker already published (404 when the
        daemon's store lacks it) or the full serialized result blob
        (:func:`~repro.serve.jobs.result_blob`), which the daemon
        persists into the fleet-shared cache before resolving
        subscribers.
        """
        body: Dict[str, Any] = {"worker": worker, "fence": fence,
                                "result": result,
                                "exec_seconds": exec_seconds}
        if cache is not None:
            body["cache"] = cache
        return self.request("POST", f"/work/{job_id}/result", body=body)

    # -- fleet-shared cache endpoints --------------------------------------

    def cache_fetch(self, key: str,
                    salt: Optional[str] = None) -> Dict[str, Any]:
        """Fetch one fleet cache entry by runner content key.

        Returns the blob envelope (decode it with
        :func:`~repro.serve.jobs.result_from_blob`).  A miss raises the
        typed :class:`~repro.errors.CacheMissError` — the normal cold
        path, distinguishable from transport failure — and a 412 (the
        daemon runs different simulator source) propagates as a plain
        :class:`ServeClientError`; neither is ever retried.
        """
        path = "/cache/" + quote(key, safe="")
        if salt:
            path += f"?salt={quote(salt, safe='')}"
        try:
            return self.request("GET", path)
        except ServeClientError as exc:
            if exc.status == 404:
                raise CacheMissError(
                    f"no fleet cache entry for key {key!r}") from exc
            raise

    def cache_publish(self, key: str, blob: Dict[str, Any],
                      worker: str = "",
                      job_id: str = "") -> Dict[str, Any]:
        """Publish a serialized result blob into the fleet cache."""
        return self.request("POST", "/cache/" + quote(key, safe=""),
                            body={"blob": blob, "worker": worker,
                                  "job": job_id})

    def post_failure(self, job_id: str, worker: str, fence: int,
                     error: str, exit_code: Optional[int] = None,
                     transient: bool = False) -> Dict[str, Any]:
        """Publish a typed failure for a leased job."""
        return self.request("POST", f"/work/{job_id}/fail",
                            body={"worker": worker, "fence": fence,
                                  "error": error, "exit_code": exit_code,
                                  "transient": transient})

    # -- conveniences ------------------------------------------------------

    def watch(self, job_id: str, timeout: float = 300.0,
              interval: float = WATCH_INTERVAL) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns it.

        Raises :class:`ServeClientError` (status 0) on deadline — the
        job itself is left alone.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.get("state") in TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    0, f"job {job_id} still {status.get('state')!r} "
                       f"after {timeout:g}s")
            time.sleep(interval)

    def wait_ready(self, timeout: float = 10.0,
                   interval: float = 0.1) -> Dict[str, Any]:
        """Block until /healthz answers (daemon startup handshake)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                # retries=0: this loop *is* the retry policy here.
                return self.request("GET", "/healthz", retries=0)
            except ServeClientError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header (delta form), else None."""
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
