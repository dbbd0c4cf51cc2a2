"""HTTP façade tests: endpoint surface, uniform error payloads,
admission shedding, budget mapping, fault-injection acceptance, and the
SIGTERM drain of the ``repro serve`` subprocess."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.resilience import FaultInjectingStore, RetryPolicy
from repro.service import QueryService, ServiceHTTPServer
from repro.service.http import ServiceRequestHandler
from repro.session import KnowledgeBase
from repro.storage import MemoryStore

from .test_core import join, spawn

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

WIN_MOVE = "wins(X) :- move(X, Y), not wins(Y)."
MOVES = {"move": [("a", "b"), ("b", "a"), ("b", "c")]}


def _request(base: str, path: str, *, method: str = "GET", body: dict | None = None):
    """Return (status, decoded-json, headers, raw-bytes) without raising."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(f"{base}{path}", data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            raw = response.read()
            return response.status, json.loads(raw), dict(response.headers), raw
    except urllib.error.HTTPError as error:
        raw = error.read()
        payload = json.loads(raw) if raw else {}
        return error.code, payload, dict(error.headers), raw


class _Server:
    """In-process ServiceHTTPServer on an ephemeral port."""

    def __init__(self, service: QueryService):
        self.service = service
        self.httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"
        self.errors: list = []
        self.thread = spawn(self.httpd.serve_forever, self.errors, daemon=True)

    def close(self):
        self.httpd.shutdown()
        self.thread.join(10)
        self.httpd.server_close()
        assert not self.thread.is_alive(), "server thread still running after 10s"
        assert not self.errors, self.errors


@pytest.fixture()
def server():
    kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
    service = QueryService(kb, max_readers=8).start()
    srv = _Server(service)
    yield srv
    try:
        srv.close()
    finally:
        service.stop()
        kb.close()


class TestReadEndpoints:
    def test_query_envelope(self, server):
        status, payload, _, _ = _request(server.base, "/query/wins")
        assert status == 200
        assert payload["rows"] == [["b"]]
        assert payload["pagination"] == {
            "page": 1,
            "per_page": 50,
            "total": 1,
            "pages": 1,
        }
        assert payload["epoch"] == 1
        assert "semantics" in payload

    def test_query_positional_filters_json_decoded(self, server):
        _request(server.base, "/assert", method="POST", body={"fact": "edge(1, 2)"})
        _request(server.base, "/assert", method="POST", body={"fact": "edge(1, 3)"})
        _request(server.base, "/assert", method="POST", body={"fact": "edge(2, 3)"})
        status, payload, _, _ = _request(server.base, "/query/edge?a0=1")
        assert status == 200
        assert payload["rows"] == [[1, 2], [1, 3]]
        # String filters stay strings.
        status, payload, _, _ = _request(server.base, "/query/move?a0=b")
        assert payload["rows"] == [["b", "a"], ["b", "c"]]

    def test_query_pagination_caps_and_pages(self, server):
        ops = [{"op": "assert", "fact": f"fact({i})"} for i in range(7)]
        _request(server.base, "/batch", method="POST", body={"operations": ops})
        status, payload, _, _ = _request(
            server.base, "/query/fact?per_page=100000&page=2"
        )
        assert payload["pagination"]["per_page"] == 100  # capped
        status, payload, _, _ = _request(server.base, "/query/fact?per_page=3&page=3")
        assert payload["pagination"]["pages"] == 3
        assert len(payload["rows"]) == 1

    def test_query_bad_truth_is_400(self, server):
        status, payload, _, _ = _request(server.base, "/query/wins?truth=maybe")
        assert status == 400
        error = payload["error"]
        assert error["status"] == 400 and "truth" in error["message"]

    def test_ask_ground_and_with_variables(self, server):
        status, payload, _, _ = _request(server.base, "/ask?q=wins(b)")
        assert status == 200 and payload["verdict"] == "true"
        status, payload, _, _ = _request(server.base, "/ask?q=wins(X)")
        assert status == 200
        assert payload["answers"] == [{"X": "b"}]
        assert payload["pagination"]["total"] == 1
        status, payload, _, _ = _request(server.base, "/ask?q=wins(_X)")
        assert status == 200 and payload["answers"] == [{"_X": "b"}]

    def test_ask_without_query_is_400(self, server):
        status, payload, _, _ = _request(server.base, "/ask")
        assert status == 400
        assert payload["error"]["status"] == 400

    def test_explain(self, server):
        status, payload, _, _ = _request(server.base, "/explain?atom=wins(b)")
        assert status == 200
        assert payload["verdict"] == "true"
        assert isinstance(payload["explanation"], list) and payload["explanation"]

    def test_unknown_route_is_404(self, server):
        status, payload, _, _ = _request(server.base, "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_health_and_readiness(self, server):
        status, payload, _, _ = _request(server.base, "/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload, _, _ = _request(server.base, "/readyz")
        assert status == 200 and payload["status"] == "ready"
        status, payload, _, _ = _request(server.base, "/stats")
        assert status == 200
        assert payload["counters"]["service.requests"] >= 1

    def test_read_shed_maps_to_503_with_retry_after(self, server):
        tickets = [server.service.admit_read() for _ in range(server.service.max_readers)]
        try:
            status, payload, headers, _ = _request(server.base, "/query/wins")
        finally:
            for ticket in tickets:
                ticket.__exit__(None, None, None)
        assert status == 503
        assert payload["error"]["code"] == "admission_rejected"
        assert headers.get("Retry-After") == "1"


class TestWriteEndpoints:
    def test_stats_count_the_published_facts_on_sqlite(self, tmp_path):
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES, store=f"sqlite:{tmp_path / 'kb.db'}")
        service = QueryService(kb).start()
        srv = _Server(service)
        try:
            status, payload, _, _ = _request(
                srv.base, "/assert", method="POST", body={"fact": "move(c, d)"}
            )
            assert status == 200 and payload["epoch"] == 2
            status, stats, _, _ = _request(srv.base, "/stats")
            assert status == 200
            assert stats["epoch"] == 2 and stats["store_rows"] == 4
            assert "relations" not in stats
            status, health, _, _ = _request(srv.base, "/healthz")
            assert status == 200 and health["store_rows"] == 4
        finally:
            try:
                srv.close()
            finally:
                service.stop()
                kb.close()

    def test_assert_retract_roundtrip(self, server):
        status, payload, _, _ = _request(
            server.base, "/assert", method="POST", body={"fact": "move(c, d)"}
        )
        assert status == 200 and payload["changed"] is True
        epoch = payload["epoch"]
        status, payload, _, _ = _request(server.base, "/query/wins")
        assert payload["epoch"] == epoch and payload["rows"] == [["c"]]
        status, payload, _, _ = _request(
            server.base, "/retract", method="POST", body={"fact": "move(c, d)"}
        )
        assert status == 200 and payload["epoch"] == epoch + 1
        status, payload, _, _ = _request(server.base, "/query/wins")
        assert payload["rows"] == [["b"]]

    def test_batch_applies_atomically(self, server):
        body = {
            "operations": [
                {"op": "assert", "fact": "move(c, d)"},
                {"op": "assert", "fact": "move(d, e)"},
                {"op": "retract", "fact": "move(c, d)"},
            ]
        }
        status, payload, _, _ = _request(server.base, "/batch", method="POST", body=body)
        assert status == 200 and payload["applied"] == 3
        status, payload, _, _ = _request(server.base, "/query/move")
        rows = [tuple(row) for row in payload["rows"]]
        assert ("d", "e") in rows and ("c", "d") not in rows

    def test_malformed_bodies_are_400(self, server):
        for path, body in (
            ("/assert", {}),
            ("/assert", {"fact": 7}),
            ("/batch", {"operations": []}),
            ("/batch", {"operations": [{"op": "upsert", "fact": "x(1)"}]}),
        ):
            status, payload, _, _ = _request(server.base, path, method="POST", body=body)
            assert status == 400, (path, body)
            assert payload["error"]["status"] == 400

    def test_non_ground_fact_is_400(self, server):
        status, payload, _, _ = _request(
            server.base, "/assert", method="POST", body={"fact": "move(X, b)"}
        )
        assert status == 400
        assert "ground" in payload["error"]["message"]

    def test_body_timeout_is_validated_like_the_query_param(self, server):
        for bad in ("soon", True, 0, -1):
            status, payload, _, _ = _request(
                server.base,
                "/assert",
                method="POST",
                body={"fact": "move(r, s)", "timeout": bad},
            )
            assert status == 400, bad
            error = payload["error"]
            assert error["status"] == 400 and "timeout" in error["message"]
        # A valid body timeout is honoured (here: tripped → budget payload).
        status, payload, _, _ = _request(
            server.base,
            "/assert",
            method="POST",
            body={"fact": "move(r, s)", "timeout": 1e-9},
        )
        assert status == 504
        assert payload["error"]["code"] == "budget_exceeded"

    def test_write_deadline_maps_to_504_budget_payload(self, server):
        status, payload, _, _ = _request(
            server.base,
            "/assert?timeout=0.000000001",
            method="POST",
            body={"fact": "move(p, q)"},
        )
        assert status == 504
        error = payload["error"]
        assert error["code"] == "budget_exceeded"
        assert error["phase"] == "service.write"
        assert error["elapsed_s"] is not None
        # The deadline-tripped write never reached the published model.
        status, payload, _, _ = _request(server.base, "/query/move?a0=p")
        assert payload["rows"] == []


class TestIdleKeepAliveDrain:
    def test_drain_not_blocked_by_idle_keepalive_connection(self, monkeypatch):
        """Regression: the connection timeout sat on the *server* class,
        where socketserver never applies it — an idle HTTP/1.1 keep-alive
        client parked its handler thread in ``readline()`` forever, and
        the ``block_on_close`` drain joined that thread, so SIGTERM hung
        until every pooled client hung up."""
        # The timeout must live on the handler class — socketserver only
        # applies the handler's; a server-level one is silently inert.
        assert ServiceRequestHandler.timeout is not None
        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.5)
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb).start()
        srv = _Server(service)
        host, port = srv.httpd.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = sock.recv(4096)
                assert chunk, "connection closed before response"
                head += chunk
            assert head.split(b"\r\n", 1)[0].endswith(b"200 OK")
            # Leave the keep-alive connection open and idle, then drain.
            errors: list = []
            closer = spawn(srv.close, errors, daemon=True)
            closer.join(10)
            assert not closer.is_alive(), "drain hung on the idle keep-alive connection"
            assert not errors, errors
        finally:
            sock.close()
            service.stop()
            kb.close()


class TestKeepAliveLatency:
    def test_back_to_back_requests_on_one_connection_do_not_stall(self, server):
        """Regression: each response left as two writes (headers, then
        body) on a socket without TCP_NODELAY, so Nagle held every body
        until the client's delayed ACK of the headers — about 44 ms per
        request sent as soon as the previous response was read."""
        host, port = server.httpd.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        latencies = []
        try:
            for index in range(20):
                path = "/query/wins" if index % 2 == 0 else "/ask?q=wins(c)"
                started = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200, body
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        # The response stream is buffered; the interim response must still
        # leave before the handler waits for the body.
        host, port = server.httpd.server_address[:2]
        body = json.dumps({"fact": "move(c, d)"}).encode()
        head = (
            "POST /assert HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(head.encode())
            interim = b""
            while b"\r\n\r\n" not in interim:
                chunk = sock.recv(4096)
                assert chunk, "connection closed before the interim response"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100"), interim
            sock.sendall(body)
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)
                assert chunk, "connection closed before the response"
                reply += chunk
        assert reply.split(b"\r\n", 1)[0].endswith(b"200 OK"), reply


@pytest.mark.faultinject
class TestFaultAcceptance:
    def test_readers_serve_pinned_epoch_byte_identical_through_writer_fault(self):
        """The acceptance test: a scripted storage fault fails a write;
        concurrent readers keep getting responses byte-identical to the
        pinned epoch's, and the next good write moves the epoch on."""
        inner = MemoryStore()
        store = FaultInjectingStore(inner, script={"add": set(range(4, 50))})
        store.armed = False
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES, store=store)
        service = QueryService(
            kb, retry_policy=RetryPolicy(max_retries=1, base_delay=0.0, jitter=0.0)
        ).start()
        srv = _Server(service)
        try:
            store.armed = True
            status, oracle_payload, _, oracle_bytes = _request(srv.base, "/query/wins")
            assert status == 200 and oracle_payload["epoch"] == 1

            # Concurrent readers hammer the endpoint while the write fails.
            stop = threading.Event()
            mismatches: list[bytes] = []
            errors: list = []

            def reader():
                while not stop.is_set():
                    _, _, _, raw = _request(srv.base, "/query/wins")
                    if raw != oracle_bytes:
                        mismatches.append(raw)
                        return

            threads = [spawn(reader, errors) for _ in range(4)]

            status, payload, _, _ = _request(
                srv.base, "/assert", method="POST", body={"fact": "move(c, d)"}
            )
            assert status == 400  # InjectedFault is a storage-layer ReproError
            assert "injected" in payload["error"]["message"]

            time.sleep(0.1)  # let readers observe the post-fault world
            stop.set()
            for thread in threads:
                join(thread, 10)
            assert not errors, errors
            assert not mismatches, f"reader saw a torn response: {mismatches[0]!r}"

            # Recovery: disarm, write, and the epoch moves on exactly once.
            store.armed = False
            status, payload, _, _ = _request(
                srv.base, "/assert", method="POST", body={"fact": "move(c, d)"}
            )
            assert status == 200 and payload["epoch"] == 2
            status, payload, _, _ = _request(srv.base, "/query/wins")
            assert payload["epoch"] == 2 and payload["rows"] == [["c"]]
            counters = service.stats()["counters"]
            assert counters["service.write_retries"] == 1
            assert counters["service.write_failures"] == 1
        finally:
            srv.close()
            service.stop()
            kb.close()


@pytest.mark.faultinject
class TestServeSubprocess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        program = tmp_path / "wins.lp"
        program.write_text(
            "move(a, b). move(b, a). move(b, c).\n"
            "wins(X) :- move(X, Y), not wins(Y).\n"
        )
        db = tmp_path / "serve.db"
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(program),
                "--port",
                "0",
                "--store",
                f"sqlite:{db}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
            cwd=str(tmp_path),
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on http://"), banner
            base = banner.split("serving on ", 1)[1]

            status, payload, _, _ = _request(base, "/query/wins")
            assert status == 200 and payload["rows"] == [["b"]]
            status, payload, _, _ = _request(
                base, "/assert", method="POST", body={"fact": "move(c, d)"}
            )
            assert status == 200
            status, payload, _, _ = _request(base, "/healthz")
            assert status == 200

            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "draining..." in out
        assert "drained, shut down cleanly" in out
