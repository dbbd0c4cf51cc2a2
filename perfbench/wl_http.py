"""HTTP workloads: an open loop against ``repro serve`` in a subprocess on
``--store sqlite:PATH``, holding the non-ground win-move game over
``random_game_edges(1000, 2, seed)``.  The database file is built before
timing starts.

* Reads alternate ``/query/wins?per_page=50`` and ``/ask?q=wins(nK)`` at
  ``READ_RATE`` per second, evenly spaced, on one persistent HTTP/1.1
  connection.  ``http-read`` sends only these; its operation is the read.
* ``http`` adds single-fact ``/assert`` and ``/retract`` of ``move``
  facts at ``WRITE_RATE`` per second on a second persistent connection,
  due half-way between two reads; its operation is the write.  Each
  write rebuilds the model, which holds the server's interpreter for a
  fifth to two fifths of the time, so the reads beside it are its
  competing load (reported per layer, see :func:`_report`).
* Every request is timed from when it was due, so a stall also charges
  the requests queued behind it.

The traced run replays the same schedule in-process against
``QueryService`` over a second, identical database file, which splits
each HTTP latency into service work and HTTP framing.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import quote

import inputs
import oracles
from common import (
    ROOT,
    WORK_DIR,
    ImportYardstick,
    Run,
    Yardstick,
    child_env,
    note,
    percentile,
    process_peak_rss_mb,
    tail_quantile,
)

from repro import KnowledgeBase
from repro.service import QueryService

READ_RATE = 10.0
WRITE_RATE = 2.0
#: Writes are due half-way between two reads.
WRITE_OFFSET = 0.5 / READ_RATE
#: Yardstick samples after each read, in the idle time before the next
#: (``http`` only: see :func:`_report`).
READ_SPEED_SAMPLES = 2
SERVER_STARTS = 5
REQUEST_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0


def schedule(game: inputs.Game, seed: int, seconds: float, with_writes: bool = True):
    """The seeded request plan: ``(due, kind, target)`` reads and
    ``(due, op, edge)`` writes, due times in seconds from the start."""
    generator = random.Random(seed)
    reads = [
        (index / READ_RATE, "query" if index % 2 == 0 else "ask", generator.choice(game.nodes))
        for index in range(int(seconds * READ_RATE))
    ]
    stream = game.stream(int(seconds * WRITE_RATE) if with_writes else 0, salt=1)
    writes = [
        (WRITE_OFFSET + index / WRITE_RATE, op, edge) for index, (op, edge) in enumerate(stream)
    ]
    return reads, writes


def build_database(path, game: inputs.Game) -> None:
    with KnowledgeBase.open(str(path)) as kb:
        kb.load(game.facts())


class Server:
    """``repro serve`` in a child process, started and drained."""

    def __init__(self, rules, database, log):
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(rules),
             "--store", f"sqlite:{database}", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            cwd=ROOT,
            env=child_env(),
        )
        line = self.process.stdout.readline()
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        deadline = started + READY_TIMEOUT_S
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/readyz")
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
            if response.status == 200:
                break
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.005)
        self.ready_s = time.perf_counter() - started
        self.first_epoch = body["epoch"]

    def stop(self) -> int:
        """SIGTERM (the drain path) and wait; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        return self.process.returncode


class HttpClient:
    """One persistent HTTP/1.1 connection; counts the sockets it used."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        self.sockets: list[object] = []

    def call(self, method: str, path: str, body: dict = None) -> tuple[int, dict]:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self.connection.request(method, path, body=payload, headers=headers)
            if not any(sock is self.connection.sock for sock in self.sockets):
                self.sockets.append(self.connection.sock)
            response = self.connection.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.connection.close()
            return 0, {"error": f"{type(error).__name__}: {error}"}

    def close(self) -> None:
        self.connection.close()


def open_loop(plan, send, start: float, after=None) -> list[dict]:
    """Send each planned request at its due time, or as soon as the
    previous one on the connection returns, and record what came back;
    then call *after*, if given, in the idle time before the next one.
    ``late`` is how far the generator itself ran behind: the time from
    when the request could first go out to when it did."""
    records = []
    free_at = start
    for due, *request in plan:
        due_at = start + due
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        status, body = send(*request)
        done = time.perf_counter()
        records.append({"due": due_at, "late": sent - max(due_at, free_at), "done": done,
                        "status": status, "body": body, "request": request})
        if after is not None:
            after()
        free_at = time.perf_counter()
    return records


def drive(read_send, write_send, reads, writes, after_read=None) -> tuple[list[dict], list[dict]]:
    """Run the read and write loops side by side, one thread each."""
    start = time.perf_counter() + 0.05
    results: dict[str, list[dict]] = {}

    def loop(name, plan, send, after=None):
        results[name] = open_loop(plan, send, start, after)

    threads = [
        threading.Thread(target=loop, args=("reads", reads, read_send, after_read)),
        threading.Thread(target=loop, args=("writes", writes, write_send)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results["reads"], results["writes"]


def _checked(records: list[dict], kind: str) -> list[dict]:
    """Records in the shape :func:`oracles.check_http` takes."""
    if kind == "reads":
        return [{"kind": r["request"][0], "target": r["request"][1],
                 "status": r["status"], "body": r["body"]} for r in records]
    return [{"op": r["request"][0], "edge": r["request"][1],
             "status": r["status"], "body": r["body"]} for r in records]


def _latencies(records: list[dict]) -> list[float]:
    return [r["done"] - r["due"] for r in records]


def _p50_ms(records: list[dict]) -> float:
    """Median latency in ms.  For reads, the mean of the two kinds'
    medians: the kinds are equally frequent and further apart (a page of
    50 rows against one verdict) than either spreads, so a pooled median
    would fall in the gap between them and swing with whichever kind's
    tail reaches it."""
    kinds = sorted({r["request"][0] for r in records})
    if kinds == ["ask", "query"]:
        return statistics.fmean(_p50_ms([r for r in records if r["request"][0] == kind])
                                for kind in kinds)
    return statistics.median(_latencies(records)) * 1000


def _report(run: Run, reads: list[dict], writes: list[dict], speed: Yardstick) -> None:
    """``p50_ms`` is the median of the workload's operation: the read for
    ``http-read``, in wall time; the write for ``http``, scaled by
    *speed*.  A write is the server's interpreter rebuilding the model for
    ~180 ms, which follows the machine's speed: over five seeds the write
    median spread by 11% in wall time and by 5% scaled.  A read is ~2 ms,
    mostly the loopback round trip and the wake-ups of two processes,
    which the yardstick does not track: five seeds spread by 1% in wall
    time and by 7% scaled.  The reads' median and tail are reported
    unscaled for both workloads."""
    p50 = _p50_ms(writes or reads)
    if writes:
        run.metric("p50_ms", speed.scale(p50), "ms")
        run.metric("yardstick_ms", speed.median_ms, "ms")
    else:
        run.metric("p50_ms", p50, "ms")
    run.metric("wall_p50_ms", p50, "ms")
    latencies = _latencies(reads)
    q = tail_quantile(len(latencies))
    read_p50, read_tail = _p50_ms(reads), percentile(latencies, q) * 1000
    run.metric("read_p50_ms", read_p50, "ms")
    run.metric("tail_ms", read_tail, "ms")
    by_kind = "  ".join(
        f"{kind} {_p50_ms([r for r in reads if r['request'][0] == kind]):.3f} ms"
        for kind in ("query", "ask")
    )
    note(f"http reads: n={len(latencies)}  p50 {read_p50:.3f} ms (mean of kinds: {by_kind})  "
         f"p{q * 100:.1f} {read_tail:.3f} ms "
         f"({len(latencies) - 1 - math.ceil(q * (len(latencies) - 1))} samples beyond)")
    if writes:
        note(f"http writes: n={len(writes)}  p50 {p50:.3f} ms  scaled p50 "
             f"{speed.scale(p50):.3f} ms (yardstick {speed.median_ms:.3f} ms, "
             f"n={len(speed.samples)})")


def run(run: Run, workload: str, seconds: float) -> None:
    game = inputs.Game(run.seed)
    with_writes = workload == "http"
    reads, writes = schedule(game, run.seed, seconds, with_writes)
    note(f"{workload}: win-move over random_game_edges(1000, 2, seed), {len(game.edges)} "
         f"moves, sqlite store; {READ_RATE:g} reads/s and "
         f"{WRITE_RATE if with_writes else 0:g} writes/s for {seconds:g} s")
    work = WORK_DIR / f"http-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _run(run, game, reads, writes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _run(run, game, reads, writes, work) -> None:
    rules = work / "rules.lp"
    rules.write_text(inputs.WIN_RULE + "\n")
    database = work / "kb.db"
    build_database(database, game)

    with open(work / "server.log", "w") as log:
        starts = []
        setup_speed = ImportYardstick()
        for attempt in range(SERVER_STARTS):
            server = Server(rules, database, log)
            starts.append(server.ready_s)
            if attempt < SERVER_STARTS - 1:
                server.stop()
            setup_speed.sample()
        run.metric("setup_s", setup_speed.scaled_median(starts), "s")
        note(f"setup: server start until /readyz 200, {SERVER_STARTS} starts, "
             f"median {statistics.median(starts):.4f} s "
             f"(reference import {setup_speed.median_ms:.1f} ms)")

        reader, writer = HttpClient(server.port), HttpClient(server.port)
        speed = Yardstick(repeats=READ_SPEED_SAMPLES)
        try:
            read_records, write_records = drive(
                lambda kind, target: reader.call(
                    "GET", "/query/wins?per_page=50" if kind == "query"
                    else f"/ask?q={quote(f'wins({target})')}"),
                lambda op, edge: writer.call(
                    "POST", f"/{op}", {"fact": f"move({edge[0]}, {edge[1]})"}),
                reads,
                writes,
                after_read=speed.sample if writes else None,
            )
            rss = process_peak_rss_mb(server.process.pid)
        finally:
            reader.close()
            writer.close()
            code = server.stop()
    run.attempted += len(read_records) + len(write_records)
    run.metric("peak_rss_mb", rss, "MB")
    _report(run, read_records, write_records, speed)
    late = [r["late"] for r in read_records + write_records]
    rejected = sum(r["status"] == 503 for r in read_records + write_records)
    note(f"generator lateness p90 {percentile(late, 0.9) * 1000:.3f} ms; "
         f"503 responses {rejected}; read connections {len(reader.sockets)}; "
         f"server exit code {code}")
    if code != 0:
        run.fail(f"repro serve exited with {code} after SIGTERM")

    if run.trace:
        _replay_in_process(run, game, reads, writes, work, read_records, write_records)
        run.metric("gen_late_p90_ms", percentile(late, 0.9) * 1000, "ms")
        run.metric("service_rejected", rejected, "count")
        run.metric("read_connections", len(reader.sockets), "count")
        run.metric("ops", len(read_records) + len(write_records), "count")
        run.metric("trace_overhead_ms", 0.0, "ms")

    for error in oracles.check_http(
        game.edges, _checked(write_records, "writes"), _checked(read_records, "reads"),
        first_epoch=server.first_epoch,
    ):
        run.fail(error)


def _replay_in_process(run, game, reads, writes, work, http_reads, http_writes) -> None:
    """The same schedule against ``QueryService`` on an identical file."""
    database = work / "replay.db"
    build_database(database, game)
    kb = KnowledgeBase.open(str(database), inputs.WIN_RULE)
    service = QueryService(kb).start()
    first_epoch = service.snapshot().epoch

    def read(kind, target):
        if kind == "query":
            body = service.query("wins", per_page=50)
            body = dict(body, rows=[list(row) for row in body["rows"]])
        else:
            body = service.ask(f"wins({target})")
        return 200, body

    def write(op, edge):
        outcome = service.submit(((op, inputs.move(*edge)),))
        return 200, {"changed": bool(outcome.changed), "epoch": outcome.epoch}

    try:
        read_records, write_records = drive(read, write, reads, writes)
    finally:
        service.stop()
        kb.close()
    run.attempted += len(read_records) + len(write_records)
    for error in oracles.check_http(
        game.edges, _checked(write_records, "writes"), _checked(read_records, "reads"),
        first_epoch=first_epoch,
    ):
        run.fail(f"in-process replay: {error}")

    def p50_ms(records, kind=None):
        return _p50_ms([r for r in records if kind is None or r["request"][0] == kind])

    run.metric("service_query_ms", p50_ms(read_records, "query"), "ms")
    run.metric("service_ask_ms", p50_ms(read_records, "ask"), "ms")
    run.metric("http_framing_read_ms", p50_ms(http_reads) - p50_ms(read_records), "ms")
    note(f"in-process replay p50: query {p50_ms(read_records, 'query'):.3f} ms  "
         f"ask {p50_ms(read_records, 'ask'):.3f} ms")
    if write_records:
        run.metric("service_submit_ms", p50_ms(write_records), "ms")
        run.metric("http_framing_write_ms", p50_ms(http_writes) - p50_ms(write_records), "ms")
        note(f"in-process replay p50: submit {p50_ms(write_records):.3f} ms")
