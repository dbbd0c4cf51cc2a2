"""Stdlib HTTP façade over :class:`~repro.service.QueryService`.

A deliberately framework-free JSON API (``http.server`` only — the
container constraint) following the paginated/filtered CRUD idiom:
capped ``page``/``per_page`` parameters, positional filter parameters,
and one uniform error payload shape for every failure::

    {"error": {"code": "<machine-readable>", "message": "...", "status": 503}}

Endpoints
---------
======  ======================  ==================================================
GET     ``/query/<predicate>``  paginated rows; ``page``, ``per_page``,
                                ``truth=true|undefined``, ``timeout``, and
                                positional filters ``a0=..&a1=..`` (JSON-decoded,
                                so ``a0=1`` matches the integer)
GET     ``/ask?q=...``          ground query → verdict; with variables →
                                paginated answer substitutions
GET     ``/explain?atom=...``   justification of one atom's verdict
POST    ``/assert``             body ``{"fact": "edge(1, 2)"}``
POST    ``/retract``            body ``{"fact": "edge(1, 2)"}``
POST    ``/batch``              body ``{"operations": [{"op": "assert",
                                "fact": "..."}, ...]}`` — atomic
GET     ``/stats``              service + snapshot statistics
GET     ``/healthz``            liveness (snapshot published, writer alive)
GET     ``/readyz``             readiness (snapshot published, backlog < cap)
======  ======================  ==================================================

Status mapping: shed requests → ``503`` with a ``Retry-After`` header;
budget deadline → ``504`` with the budget payload (``phase``,
``elapsed_s``); cooperative cancellation → ``499``; malformed input →
``400``; unknown routes → ``404``.  Every success payload carries the
``epoch`` it was served at, so clients (and the consistency-checking
load test) can correlate responses with model versions.

:func:`run_server` is the CLI entry point: it installs SIGTERM/SIGINT
handlers that *drain* — stop accepting, finish in-flight requests, let
the writer apply everything admitted, close the store — then exit 0.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from ..datalog.parser import parse_atom
from ..exceptions import (
    BudgetError,
    BudgetExceeded,
    Cancelled,
    ParseError,
    ReproError,
    StoreCorrupt,
)
from ..session.knowledge_base import KnowledgeBase
from .core import AdmissionRejected, QueryService, ServiceClosed

__all__ = ["ServiceHTTPServer", "ServiceRequestHandler", "run_server"]


def _json_default(value: object) -> object:
    """Terms that are not JSON-native (compound terms, atoms) serialise as
    their textual form."""
    return str(value)


def _decode_filter(raw: str) -> object:
    """Filter parameters arrive as strings; JSON-decode scalars so
    ``a0=1`` matches the integer ``1`` while ``a0=node`` stays a string."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw


class ServiceHTTPServer(ThreadingHTTPServer):
    """One handler thread per connection; shutdown *joins* them all
    (``block_on_close``), which is what makes SIGTERM a drain rather than
    an abort."""

    daemon_threads = False
    block_on_close = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer
    # Connection timeout (socketserver applies the *handler's* timeout to
    # the socket).  With keep-alive, an idle client would otherwise park
    # its handler thread in ``rfile.readline()`` forever — and the
    # ``block_on_close`` drain joins handler threads, so SIGTERM would
    # hang until every pooled client hung up.  On timeout,
    # ``handle_one_request`` treats the connection as closed.
    timeout = 5
    # Each response leaves in one write, headers and body together, on a
    # socket with TCP_NODELAY (set by ``setup()``): a body written after
    # its headers would wait for the client's delayed ACK of them, ~40 ms
    # per back-to-back keep-alive request.  ``_send_json`` flushes the
    # buffer itself, inside ``_dispatch``, so a client hanging up
    # mid-response lands in its BrokenPipeError handler; the base class's
    # error responses are flushed when it finishes the request.  64 KiB
    # holds any page the service sends in one buffer.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    def _send_json(
        self, status: int, payload: dict, *, headers: Optional[dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload, default=_json_default).encode("utf-8")
        # 499 has no registered reason phrase; supply ours.
        if status == 499:
            self.send_response_only(499, "Client Closed Request")
            self.send_header("Server", self.version_string())
            self.send_header("Date", self.date_time_string())
        else:
            self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def handle_expect_100(self) -> bool:
        # The interim response must reach the client before it sends the
        # body this handler is about to read.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_error_payload(
        self,
        status: int,
        code: str,
        message: str,
        *,
        headers: Optional[dict[str, str]] = None,
        **extra: object,
    ) -> None:
        error: dict[str, object] = {"code": code, "message": message, "status": status}
        error.update(extra)
        self._send_json(status, {"error": error}, headers=headers)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # request logging would swamp the load test; counters cover it

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        url = urlparse(self.path)
        route = url.path.rstrip("/") or "/"
        params = {key: values[-1] for key, values in parse_qs(url.query).items()}
        service.count("service.requests")
        with service.recorder.span("service.request", method=method, route=route):
            try:
                self._route(service, method, route, params)
            except AdmissionRejected as error:
                self._send_error_payload(
                    503,
                    "admission_rejected",
                    str(error),
                    headers={"Retry-After": str(error.retry_after)},
                )
            except ServiceClosed as error:
                self._send_error_payload(
                    503, "shutting_down", str(error), headers={"Retry-After": "1"}
                )
            except Cancelled as error:
                self._send_error_payload(
                    499,
                    "cancelled",
                    str(error),
                    phase=error.phase,
                    elapsed_s=error.elapsed,
                )
            except (BudgetExceeded, BudgetError) as error:
                self._send_error_payload(
                    504,
                    "budget_exceeded",
                    str(error),
                    phase=getattr(error, "phase", None),
                    elapsed_s=getattr(error, "elapsed", None),
                )
            except StoreCorrupt as error:
                self._send_error_payload(503, "store_corrupt", str(error))
            except (ParseError, ReproError) as error:
                self._send_error_payload(400, type(error).__name__, str(error))
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass  # client went away mid-response
            except Exception as error:  # noqa: BLE001 - last-resort 500
                self._send_error_payload(500, "internal_error", str(error))

    def _route(
        self, service: QueryService, method: str, route: str, params: dict[str, str]
    ) -> None:
        if method == "GET":
            if route == "/healthz":
                healthy, report = service.health()
                self._send_json(200 if healthy else 503, report)
                return
            if route == "/readyz":
                ready, report = service.readiness()
                self._send_json(200 if ready else 503, report)
                return
            if route == "/stats":
                with service.admit_read():
                    self._send_json(200, service.stats())
                return
            if route.startswith("/query/"):
                self._handle_query(service, route[len("/query/") :], params)
                return
            if route == "/ask":
                self._handle_ask(service, params)
                return
            if route == "/explain":
                self._handle_explain(service, params)
                return
        elif method == "POST":
            if route in ("/assert", "/retract"):
                self._handle_single_write(service, route[1:], params)
                return
            if route == "/batch":
                self._handle_batch(service, params)
                return
        self._send_error_payload(404, "not_found", f"no route {method} {route}")

    # ------------------------------------------------------------------ #
    # Read endpoints
    # ------------------------------------------------------------------ #
    def _timeout_param(self, params: dict[str, str]) -> Optional[float]:
        return _coerce_timeout(params.get("timeout"))

    def _handle_query(
        self, service: QueryService, predicate: str, params: dict[str, str]
    ) -> None:
        if not predicate or "/" in predicate:
            raise ReproError(f"bad predicate {predicate!r}")
        positions = sorted(
            (int(key[1:]), raw)
            for key, raw in params.items()
            if key.startswith("a") and key[1:].isdigit()
        )
        pattern: Optional[list[object]] = None
        if positions:
            width = positions[-1][0] + 1
            pattern = [None] * width
            for index, raw in positions:
                pattern[index] = _decode_filter(raw)
        budget = service.budget_for(self._timeout_param(params))
        with service.admit_read():
            self._send_json(
                200,
                service.query(
                    predicate,
                    pattern,
                    truth=params.get("truth", "true"),
                    page=_int_param(params, "page", 1),
                    per_page=_int_param(params, "per_page", 50),
                    budget=budget,
                ),
            )

    def _handle_ask(self, service: QueryService, params: dict[str, str]) -> None:
        text = params.get("q")
        if not text:
            raise ReproError("ask needs a ?q= query parameter")
        from ..engine.query import query_has_variables

        budget = service.budget_for(self._timeout_param(params))
        with service.admit_read():
            if query_has_variables(text):
                self._send_json(
                    200,
                    service.answers(
                        text,
                        page=_int_param(params, "page", 1),
                        per_page=_int_param(params, "per_page", 50),
                        budget=budget,
                    ),
                )
            else:
                self._send_json(200, service.ask(text, budget=budget))

    def _handle_explain(self, service: QueryService, params: dict[str, str]) -> None:
        atom = params.get("atom")
        if not atom:
            raise ReproError("explain needs an ?atom= query parameter")
        budget = service.budget_for(self._timeout_param(params))
        with service.admit_read():
            self._send_json(200, service.explain(atom, budget=budget))

    # ------------------------------------------------------------------ #
    # Write endpoints
    # ------------------------------------------------------------------ #
    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ReproError("request body must be a JSON object")
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise ReproError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    def _handle_single_write(
        self, service: QueryService, kind: str, params: dict[str, str]
    ) -> None:
        body = self._read_body()
        fact = body.get("fact")
        if not isinstance(fact, str):
            raise ReproError(f'{kind} body needs a "fact" string')
        atom = parse_atom(fact)
        timeout = self._timeout_param(params)
        if timeout is None:
            timeout = _coerce_timeout(body.get("timeout"))
        outcome = service.submit(((kind, atom),), budget=service.budget_for(timeout))
        self._send_json(
            200,
            {
                "op": kind,
                "fact": str(atom),
                "changed": bool(outcome.changed),
                "epoch": outcome.epoch,
            },
        )

    def _handle_batch(self, service: QueryService, params: dict[str, str]) -> None:
        body = self._read_body()
        raw_operations = body.get("operations")
        if not isinstance(raw_operations, list) or not raw_operations:
            raise ReproError('batch body needs a non-empty "operations" array')
        operations = []
        for entry in raw_operations:
            if not isinstance(entry, dict):
                raise ReproError(f"batch operation must be an object, got {entry!r}")
            kind = entry.get("op")
            fact = entry.get("fact")
            if kind not in ("assert", "retract") or not isinstance(fact, str):
                raise ReproError(
                    'each batch operation needs {"op": "assert"|"retract", "fact": "..."}'
                )
            operations.append((kind, parse_atom(fact)))
        timeout = self._timeout_param(params)
        if timeout is None:
            timeout = _coerce_timeout(body.get("timeout"))
        outcome = service.submit(operations, budget=service.budget_for(timeout))
        self._send_json(
            200,
            {
                "applied": outcome.applied,
                "changed": outcome.changed,
                "epoch": outcome.epoch,
            },
        )


def _coerce_timeout(raw: object) -> Optional[float]:
    """Validate a timeout from the query string or a JSON body: numeric
    and strictly positive, mapped to 400 otherwise."""
    if raw is None:
        return None
    if isinstance(raw, bool):
        raise ReproError(f"timeout must be a number, got {raw!r}")
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ReproError(f"timeout must be a number, got {raw!r}") from None
    if value <= 0:
        raise ReproError(f"timeout must be positive, got {raw!r}")
    return value


def _int_param(params: dict[str, str], name: str, default: int) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ReproError(f"{name} must be an integer, got {raw!r}") from None


def run_server(
    kb: KnowledgeBase,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    queue_size: int = 64,
    max_readers: int = 64,
    request_timeout: Optional[float] = None,
    out=None,
    ready_event: Optional[threading.Event] = None,
) -> int:
    """Serve *kb* over HTTP until SIGTERM/SIGINT, then drain and exit 0.

    The server loop runs in a worker thread; the calling thread parks on
    an event that the signal handlers set.  Shutdown order matters and is
    the graceful-drain contract: stop accepting connections and join the
    in-flight handler threads (``server.shutdown()`` +
    ``server_close()``, which blocks on ``block_on_close``), let the
    writer apply every admitted write (``service.stop(drain=True)``), and
    only then return so the caller can close the store.
    """
    out = out if out is not None else sys.stdout
    service = QueryService(
        kb,
        queue_size=queue_size,
        max_readers=max_readers,
        default_timeout=request_timeout,
    ).start()
    server = ServiceHTTPServer((host, port), service)
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    worker = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    worker.start()
    actual_host, actual_port = server.server_address[:2]
    print(f"serving on http://{actual_host}:{actual_port}", file=out, flush=True)
    if ready_event is not None:
        ready_event.set()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("draining...", file=out, flush=True)
        server.shutdown()  # stop accepting; serve_forever returns
        worker.join()
        server.server_close()  # join in-flight handler threads
        service.stop(drain=True)  # writer applies everything admitted
        print("drained, shut down cleanly", file=out, flush=True)
    return 0
