"""Plumbing shared by every workload: where the checkout is, how a run
collects its verdict and metrics, percentiles, memory high-water marks,
the machine-speed yardstick and the environment record printed with
each run."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for SQLite files and server logs, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Without the sources the benchmark has nothing to measure, so it stops
    with exit code 2 before printing any result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of *samples*."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int, beyond: int = 10, cap: float = 0.99) -> float:
    """The highest percentile (at most *cap*) that leaves at least *beyond*
    of *count* samples above it; the median when none above it does."""
    if count <= 1:
        return 0.5
    return max(0.5, min(cap, (count - 1 - beyond) / (count - 1)))


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's resident-set high-water mark (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def import_seconds(modules: str) -> float:
    """Time ``import <modules>`` in a fresh interpreter.  The child times
    its own import, so interpreter start-up is excluded."""
    code = (
        f"import time; start = time.perf_counter(); import {modules}; "
        "print(time.perf_counter() - start)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


@dataclass
class Run:
    """What one workload run reports: attempts, failures and metrics."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        note(f"FAIL {message}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def note(text: str) -> None:
    """One human-readable line of the run's record (never the last line)."""
    print(text, flush=True)


def record_environment(run: Run) -> None:
    """Print what a later change of default would show up in."""
    from repro import EngineConfig

    note(f"# workload {run.workload}  seed {run.seed}  trace {int(run.trace)}")
    note(f"# python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    note(f"# config {json.dumps(EngineConfig().describe(), default=str, sort_keys=True)}")


#: A fixed pure-Python Datalog job for :class:`Yardstick`: 150 edge facts
#: over 50 nodes, parsed with a regular expression, then closed
#: transitively, semi-naive, over tuples.
_YARDSTICK_RANDOM = random.Random(0)
_YARDSTICK_FACTS = "\n".join(
    f"edge(n{_YARDSTICK_RANDOM.randrange(50)}, n{_YARDSTICK_RANDOM.randrange(50)})."
    for _ in range(150)
)
_YARDSTICK_FACT = re.compile(r"edge\((\w+), (\w+)\)\.")


def _yardstick_job() -> int:
    edges = [match.groups() for match in _YARDSTICK_FACT.finditer(_YARDSTICK_FACTS)]
    successors: dict[str, list[str]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    closure = set(edges)
    delta = set(closure)
    while delta:
        found = set()
        for source, middle in delta:
            for target in successors.get(middle, ()):
                if (source, target) not in closure:
                    found.add((source, target))
        closure |= found
        delta = found
    return len(closure)


class Yardstick:
    """How fast the machine ran, sampled between the timed operations.

    Where cores are shared with other tenants, the speed they leave swings
    by up to 1.7x over seconds to minutes, which would swamp any change
    worth measuring.  A run times a fixed job of the same
    kind of interpreter work as ``repro`` (regular-expression parsing,
    dict and set joins) between its operations and reports latencies
    scaled to a machine on which that job takes ``NOMINAL_MS``.  The job is
    part of the benchmark, so no change to ``repro`` moves it.
    """

    NOMINAL_MS = 3.0

    def __init__(self, repeats: int = 1) -> None:
        #: Samples per call of :meth:`sample`.
        self.repeats = repeats
        self.samples: list[float] = []
        #: The median of each call's samples, in call order.
        self.groups: list[float] = []

    def _time_job(self) -> float:
        started = time.perf_counter()
        _yardstick_job()
        return time.perf_counter() - started

    def sample(self) -> None:
        # With the collector paused the job times the interpreter, not a
        # collection of the garbage the measured operation left behind.
        gc.disable()
        try:
            group = [self._time_job() for _ in range(self.repeats)]
        finally:
            gc.enable()
        self.samples.extend(group)
        self.groups.append(statistics.median(group))

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1000

    def scale(self, value: float) -> float:
        """*value*, measured alongside the samples, at the nominal speed."""
        return value * self.NOMINAL_MS / self.median_ms

    def scaled_median(self, values: list[float]) -> float:
        """The median of *values* at the nominal speed, each scaled by the
        samples taken right after it (one :meth:`sample` call per value)."""
        return statistics.median(
            value * self.NOMINAL_MS / (group * 1000)
            for value, group in zip(values, self.groups, strict=True)
        )


#: Standard-library modules :class:`ImportYardstick` imports: about as
#: much module code as ``repro`` and its own imports.
REFERENCE_MODULES = (
    "asyncio, email.mime.multipart, http.server, xml.etree.ElementTree, decimal, "
    "argparse, sqlite3, unittest, logging.handlers, concurrent.futures, json, csv, "
    "dataclasses, typing"
)


class ImportYardstick(Yardstick):
    """A yardstick for set-ups that start an interpreter: a fresh
    interpreter importing :data:`REFERENCE_MODULES`.

    Importing ``repro`` in a fresh interpreter touches new memory and
    runs module bodies once; its speed follows the shared machine's memory
    system more than a warm compute loop does.  On a shared two-vCPU
    virtual machine, 21 batches of 15 imports had medians that spread by
    19% (interquartile range over median) in wall time and by 12% scaled
    by the compute yardstick; scaled import by import against this one,
    by 6%.
    """

    NOMINAL_MS = 100.0

    def _time_job(self) -> float:
        return import_seconds(REFERENCE_MODULES)


def timed_loop(seconds: float, speed: Yardstick | None = None):
    """Yield step indices until *seconds* of wall time have passed,
    sampling *speed* after each step."""
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline:
        yield step
        if speed is not None:
            speed.sample()
        step += 1


def latency_metrics(
    run: Run, samples_s: list[float], label: str, speed: Yardstick | None = None
) -> None:
    """Report ``p50_ms`` of *samples_s* (scaled by *speed*, when given) and
    the unscaled ``wall_p50_ms`` and ``tail_ms``; note the sample count and
    the percentile the tail stands for."""
    count = len(samples_s)
    if not count:
        raise RuntimeError(f"{label}: no operation completed")
    q = tail_quantile(count)
    p50 = percentile(samples_s, 0.5) * 1000
    tail = percentile(samples_s, q) * 1000
    run.metric("p50_ms", speed.scale(p50) if speed is not None else p50, "ms")
    run.metric("wall_p50_ms", p50, "ms")
    run.metric("tail_ms", tail, "ms")
    scaled = (
        f"  scaled p50 {speed.scale(p50):.3f} ms (yardstick {speed.median_ms:.3f} ms, "
        f"n={len(speed.samples)})"
        if speed is not None
        else ""
    )
    note(
        f"{label}: n={count}  p50 {p50:.3f} ms  p{q * 100:.1f} {tail:.3f} ms "
        f"({count - 1 - math.ceil(q * (count - 1))} samples beyond){scaled}"
    )
    if speed is not None:
        run.metric("yardstick_ms", speed.median_ms, "ms")
