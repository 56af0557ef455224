"""The ``repro serve`` HTTP surface: stdlib-asyncio JSON-over-HTTP.

A deliberately small hand-rolled HTTP/1.1 server on
``asyncio.start_server`` — no web framework, keeping the daemon inside
the repo's no-new-dependencies rule.  One connection carries one
request; every response is JSON (traces are JSON too) and carries
``Connection: close``.

Routes::

    POST   /jobs             submit a JobSpec            -> 202 status
    GET    /jobs             list jobs (?state=&workload=&client=&limit=)
    GET    /jobs/{id}        job status
    GET    /jobs/{id}/result typed result payload        (done jobs)
    GET    /jobs/{id}/trace  Chrome trace JSON           (telemetry=trace)
    DELETE /jobs/{id}        cancel a queued job
    POST   /work/lease       claim queued jobs under a lease (long-poll)
    POST   /work/{id}/heartbeat  renew a lease           (fence-checked)
    POST   /work/{id}/result     publish a remote result (fence-checked;
                                 404 when its cache reference misses)
    POST   /work/{id}/fail       publish a typed failure (fence-checked)
    GET    /cache/{key}      fetch a fleet cache entry (salt-checked;
                             404 on miss, 412 on simulator-version skew)
    POST   /cache/{key}      publish a serialized result into the fleet
                             cache (salt-gated, digest-verified)
    GET    /metrics          service counters + fleet gauges
    GET    /healthz          liveness (draining + lease degradation)

Cache keys are runner content keys (``workload|params|config`` digests,
see :attr:`repro.runner.Job.key`); the ``|`` separators make
percent-encoding mandatory, so the ``/cache/{key}`` segment is
URL-decoded before lookup.

Error mapping is typed end to end: admission and lookup failures are
:class:`~repro.errors.SimulationError` subclasses whose ``http_status``
chooses the response code (429 rate limit, 503 queue full/draining,
404 unknown job, 409 not cancellable / stale fence), and malformed
specs are 400s.  Backpressure responses (429/503) carry a
``Retry-After`` header that the client's transparent retry honors.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from .. import __version__
from ..errors import SimulationError
from .jobs import JobState
from .service import JobService

#: Largest request body the daemon will read.  A JobSpec is tiny, but
#: result posts and cache publishes carry a base64-armored serialized
#: KernelRunResult (telemetry included), so the bound is generous.
MAX_BODY = 8 << 20

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    412: "Precondition Failed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeApp:
    """Routes HTTP requests onto one :class:`JobService`."""

    def __init__(self, service: JobService) -> None:
        self.service = service

    # -- request plumbing --------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One connection, one request, one JSON response."""
        extra_headers: Dict[str, str] = {}
        try:
            status, body = await self._dispatch(reader, writer)
        except HttpError as exc:
            status, body = exc.status, {"error": str(exc)}
        except SimulationError as exc:
            status = exc.http_status
            body = {"error": str(exc), "exit_code": exc.exit_code}
            if status in (429, 503):
                # Backpressure: tell clients when a retry is worthwhile.
                extra_headers["Retry-After"] = "1"
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # pragma: no cover - defensive
            status, body = 500, {"error": f"internal error: {exc}"}
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in extra_headers.items())
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Server: repro-serve/{__version__}\r\n"
            f"{extras}"
            f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _dispatch(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter
                        ) -> Tuple[int, Dict[str, Any]]:
        request = await reader.readline()
        parts = request.decode("latin-1").split()
        if len(parts) < 2:
            raise HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            raise HttpError(413, f"body larger than {MAX_BODY} bytes")
        raw = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        peer = writer.get_extra_info("peername")
        client = headers.get("x-repro-client") or (
            peer[0] if isinstance(peer, tuple) and peer else "-")
        routed = self._route(method, split.path, query, raw, client)
        if asyncio.iscoroutine(routed):  # long-polling handlers
            routed = await routed
        return routed

    def _route(self, method: str, path: str, query: Dict[str, str],
               raw: bytes, client: str):
        segments = [s for s in path.split("/") if s]
        if segments == ["healthz"] and method == "GET":
            return 200, {"ok": True, "status": self.service.health_status(),
                         "draining": self.service.draining,
                         "version": __version__}
        if segments == ["metrics"] and method == "GET":
            return 200, self.service.metrics()
        if segments and segments[0] == "jobs":
            if len(segments) == 1:
                if method == "POST":
                    return self._submit(raw, client)
                if method == "GET":
                    return self._list(query)
                raise HttpError(405, f"{method} not allowed on /jobs")
            job_id = segments[1]
            if len(segments) == 2:
                if method == "GET":
                    return 200, self.service.get(job_id).as_status()
                if method == "DELETE":
                    return 200, self.service.cancel(job_id).as_status()
                raise HttpError(405, f"{method} not allowed on /jobs/{{id}}")
            if len(segments) == 3 and method == "GET":
                if segments[2] == "result":
                    return self._result(job_id)
                if segments[2] == "trace":
                    return self._trace(job_id)
        if segments and segments[0] == "work":
            if method != "POST":
                raise HttpError(405, f"{method} not allowed under /work")
            if segments == ["work", "lease"]:
                return self._lease(raw)
            if len(segments) == 3:
                job_id, action = segments[1], segments[2]
                if action == "heartbeat":
                    return self._heartbeat(job_id, raw)
                if action == "result":
                    return self._work_result(job_id, raw)
                if action == "fail":
                    return self._work_fail(job_id, raw)
        if len(segments) == 2 and segments[0] == "cache":
            # Content keys contain '|' and arbitrary params digests, so
            # the key segment arrives percent-encoded.
            key = unquote(segments[1])
            if method == "GET":
                return self._cache_fetch(key, query)
            if method == "POST":
                return self._cache_publish(key, raw)
            raise HttpError(405, f"{method} not allowed on /cache/{{key}}")
        raise HttpError(404, f"no route for {method} {path}")

    # -- handlers ----------------------------------------------------------

    def _submit(self, raw: bytes, client: str) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}")
        try:
            record = self.service.submit(payload, client=client)
        except ValueError as exc:
            raise HttpError(400, str(exc))
        return 202, record.as_status()

    def _list(self, query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        limit: Optional[int] = None
        if "limit" in query:
            try:
                limit = max(1, int(query["limit"]))
            except ValueError:
                raise HttpError(400, "limit must be an integer")
        records = self.service.list_jobs(
            state=query.get("state"), workload=query.get("workload"),
            client=query.get("client"), limit=limit)
        return 200, {"jobs": [r.as_status() for r in records],
                     "total": len(self.service.jobs)}

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.service.get(job_id)
        if record.state == JobState.FAILED:
            return 200, {"id": record.id, "state": record.state,
                         "error": record.error,
                         "exit_code": record.exit_code}
        if record.state != JobState.DONE or record.result is None:
            raise HttpError(409, f"job {job_id} is {record.state}; "
                                 f"no result yet")
        return 200, {"id": record.id, "state": record.state,
                     "cache_hit": record.cache_hit,
                     "queue_wait_seconds": record.queue_wait,
                     "exec_seconds": record.exec_seconds,
                     "result": record.result}

    # -- fleet (worker-facing) handlers ------------------------------------

    @staticmethod
    def _work_body(raw: bytes, context: str) -> Dict[str, Any]:
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"{context} body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, f"{context} body must be a JSON object")
        return payload

    async def _lease(self, raw: bytes) -> Tuple[int, Dict[str, Any]]:
        body = self._work_body(raw, "lease")
        try:
            leases = await self.service.lease(
                worker=body.get("worker"),
                max_jobs=body.get("max_jobs", 1),
                wait=body.get("wait", 0.0))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, str(exc))
        return 200, {"leases": leases,
                     "draining": self.service.draining}

    def _heartbeat(self, job_id: str,
                   raw: bytes) -> Tuple[int, Dict[str, Any]]:
        body = self._work_body(raw, "heartbeat")
        try:
            return 200, self.service.heartbeat(
                job_id, body.get("worker"), body.get("fence"))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, str(exc))

    def _work_result(self, job_id: str,
                     raw: bytes) -> Tuple[int, Dict[str, Any]]:
        body = self._work_body(raw, "result")
        try:
            record = self.service.complete_remote(
                job_id, body.get("worker"), body.get("fence"),
                body.get("result"),
                exec_seconds=body.get("exec_seconds", 0.0),
                cache=body.get("cache"))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, str(exc))
        return 200, record.as_status()

    # -- fleet-shared cache handlers ---------------------------------------

    def _cache_fetch(self, key: str,
                     query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, self.service.cache_fetch(key,
                                                 salt=query.get("salt"))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, str(exc))

    def _cache_publish(self, key: str,
                       raw: bytes) -> Tuple[int, Dict[str, Any]]:
        body = self._work_body(raw, "cache publish")
        try:
            return 200, self.service.cache_publish(
                key, body.get("blob"), worker=body.get("worker", ""),
                job_id=body.get("job", ""))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, str(exc))

    def _work_fail(self, job_id: str,
                   raw: bytes) -> Tuple[int, Dict[str, Any]]:
        body = self._work_body(raw, "fail")
        try:
            record = self.service.fail_remote(
                job_id, body.get("worker"), body.get("fence"),
                error=body.get("error", ""),
                exit_code=body.get("exit_code"),
                transient=bool(body.get("transient", False)))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, str(exc))
        return 200, record.as_status()

    def _trace(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.service.get(job_id)
        if record.trace_path is None:
            raise HttpError(
                404, f"job {job_id} has no trace (telemetry="
                     f"{record.spec.telemetry!r}, state {record.state})")
        try:
            return 200, json.loads(Path(record.trace_path)
                                   .read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise HttpError(500, f"trace unreadable: {exc}")


async def serve_forever(service: JobService, host: str, port: int,
                        ready=None, install_signals: bool = True,
                        stop: Optional[asyncio.Event] = None) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain gracefully.

    Drain semantics: new submissions get 503, the running batch
    finishes, queued jobs stay journaled for the next daemon.  Returns
    the process exit code (0 for a clean drain).  Tests inject their
    own *stop* event instead of signalling the process.
    """
    app = ServeApp(service)
    await service.start()
    server = await asyncio.start_server(app.handle, host, port)
    if stop is None:
        stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    bound = server.sockets[0].getsockname() if server.sockets else (host, port)
    if ready is not None:
        ready(bound)
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.drain()
    return 0
