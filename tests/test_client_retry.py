"""Transparent-retry tests for :class:`repro.serve.ServeClient`.

A scripted flaky HTTP server (real sockets, stdlib ``http.server``)
answers each request per a script — connection reset, 429/503 with or
without ``Retry-After``, then success — proving the client retries
transient failures on the :mod:`repro.retry` schedule, honors the
daemon's ``Retry-After`` hint, never retries deterministic errors, and
fails fast under ``--max-retries 0`` (``max_retries=0``).
"""

import http.server
import json
import random
import threading

import pytest

from repro import retry
from repro.serve.client import ServeClient, ServeClientError


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Answers per the server's script; counts every arrival."""

    def _serve(self):
        server = self.server
        server.hits += 1
        action = server.script.pop(0) if server.script else ("200", None)
        status, retry_after = action
        if status == "reset":
            # Abrupt close with no response -> OSError client-side.
            self.connection.close()
            return
        body = json.dumps({"ok": True, "hits": server.hits}
                          if int(status) < 400 else
                          {"error": f"scripted {status}"}).encode()
        self.send_response(int(status))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def flaky(monkeypatch):
    """A scripted server; yields (server, make_client)."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _FlakyHandler)
    server.script = []
    server.hits = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    sleeps = []
    monkeypatch.setattr(retry, "sleep", sleeps.append)  # no real waiting

    def make_client(**kwargs):
        kwargs.setdefault("timeout", 5.0)
        client = ServeClient(host="127.0.0.1",
                             port=server.server_address[1], **kwargs)
        client.sleeps = sleeps
        return client

    try:
        yield server, make_client
    finally:
        server.shutdown()
        server.server_close()


class TestTransientRetry:
    def test_503_then_success(self, flaky):
        server, make_client = flaky
        server.script = [("503", None), ("503", None), ("200", None)]
        client = make_client()
        body = client.request("GET", "/healthz")
        assert body["ok"] is True
        assert server.hits == 3
        assert client.retries_attempted == 2

    def test_connection_reset_then_success(self, flaky):
        server, make_client = flaky
        server.script = [("reset", None), ("200", None)]
        client = make_client()
        body = client.request("GET", "/healthz")
        assert body["ok"] is True
        assert client.retries_attempted == 1

    def test_429_honors_retry_after(self, flaky):
        server, make_client = flaky
        server.script = [("429", "7"), ("200", None)]
        client = make_client()
        assert client.request("GET", "/jobs")["ok"] is True
        # The daemon's hint wins over the jitter schedule.
        assert client.sleeps == [7.0]

    def test_exhausted_budget_raises_typed(self, flaky):
        server, make_client = flaky
        server.script = [("503", None)] * 10
        client = make_client(max_retries=2)
        with pytest.raises(ServeClientError) as info:
            client.request("GET", "/healthz")
        assert info.value.status == 503
        assert server.hits == 3  # initial try + 2 retries

    def test_unreachable_exhausts_then_typed(self, flaky):
        server, make_client = flaky
        client = make_client(max_retries=2)
        client.port = 1  # nothing listens here
        with pytest.raises(ServeClientError) as info:
            client.request("GET", "/healthz")
        assert info.value.status == 0
        assert "cannot reach repro serve" in str(info.value)
        assert client.retries_attempted == 2


class TestNoRetry:
    def test_no_retry_fails_fast(self, flaky):
        server, make_client = flaky
        server.script = [("503", None), ("200", None)]
        client = make_client(max_retries=0)
        with pytest.raises(ServeClientError) as info:
            client.request("GET", "/healthz")
        assert info.value.status == 503
        assert server.hits == 1
        assert client.sleeps == []

    def test_per_call_override_beats_client_default(self, flaky):
        server, make_client = flaky
        server.script = [("503", None), ("200", None)]
        client = make_client(max_retries=5)
        with pytest.raises(ServeClientError):
            client.request("GET", "/healthz", retries=0)
        assert server.hits == 1


class TestDeterministicErrorsNeverRetry:
    @pytest.mark.parametrize("status", ["400", "404", "409"])
    def test_client_errors_surface_immediately(self, flaky, status):
        server, make_client = flaky
        server.script = [(status, None), ("200", None)]
        client = make_client()
        with pytest.raises(ServeClientError) as info:
            client.request("GET", "/jobs/nope")
        assert info.value.status == int(status)
        assert server.hits == 1  # no second arrival

    def test_retry_after_surfaces_on_final_error(self, flaky):
        server, make_client = flaky
        server.script = [("503", "3")]
        client = make_client(max_retries=0)
        with pytest.raises(ServeClientError) as info:
            client.request("GET", "/healthz")
        assert info.value.retry_after == 3.0


class TestBackoffShape:
    def test_jittered_exponential_schedule(self, flaky, monkeypatch):
        """Retry n sleeps min(2, 0.2 * 2**(n-1)) * U(0.5, 1): under a
        seeded RNG the six sleeps are exact."""
        server, make_client = flaky
        server.script = [("503", None)] * 6 + [("200", None)]
        monkeypatch.setattr(retry, "rng", random.Random(42))
        client = make_client(max_retries=6)
        assert client.request("GET", "/healthz")["ok"] is True
        assert client.sleeps == [
            0.16394267984578836, 0.20500215104453343, 0.5100117273476478,
            0.9785685905190583, 1.7364712141640124, 1.6766994874229113]

    def test_result_post_is_sent_once(self, flaky):
        """The worker's post loop is the one retry layer for results,
        so the client sends a result post without its own retry."""
        server, make_client = flaky
        server.script = [("503", None), ("200", None)]
        client = make_client(max_retries=3)
        with pytest.raises(ServeClientError) as info:
            client.post_result("j1", "w", 1, {"schema": 1})
        assert info.value.status == 503
        assert server.hits == 1
        assert client.sleeps == []
