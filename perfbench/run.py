"""End-to-end benchmark of the library's default paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures an
untraced pass and then a traced one that times the calls into each layer
from this directory's files, and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check makes the
exit code 1; missing sources make it 2.  ``--workload all`` (the
default) runs every workload, each in a fresh interpreter.

See ``perfbench/README.md`` for the workloads, the metrics and which
per-layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import ROOT, Run, note, record_environment, use_checkout_sources

WORKLOADS = (
    "solve-layered",
    "solve-winmove",
    "solve-tc",
    "session-ground",
    "session-nonground",
    "session-social",
    "http-read",
    "http",
)

END_TO_END = ("setup_s", "peak_rss_mb", "p50_ms")

#: Every per-layer metric, in the order printed.  A layer a workload's
#: path does not pass through reports 0.
PER_LAYER = {
    # one-shot solve pipeline
    "parse_ms": "ms",
    "classify_ms": "ms",
    "ground_ms": "ms",
    "evaluate_ms": "ms",
    "assemble_ms": "ms",
    "unattributed_ms": "ms",
    "ground_rules": "count",
    "ground_atoms": "count",
    # session and delta maintenance
    "store_write_ms": "ms",
    "store_probes": "count",
    "refresh_ms": "ms",
    "maintain_ms": "ms",
    "read_ms": "ms",
    "mode_delta": "count",
    "mode_rebuild": "count",
    "components_recomputed": "count",
    "reuse_ratio": "ratio",
    # query service and HTTP
    "service_query_ms": "ms",
    "service_ask_ms": "ms",
    "service_submit_ms": "ms",
    "http_framing_read_ms": "ms",
    "http_framing_write_ms": "ms",
    "read_p50_ms": "ms",
    "gen_late_p90_ms": "ms",
    "service_rejected": "count",
    "read_connections": "count",
    # the untraced pass: p50 before scaling, the yardstick's median, the
    # highest percentile (at most p99) with ten samples beyond it (of
    # the reads, on the HTTP workloads)
    "wall_p50_ms": "ms",
    "yardstick_ms": "ms",
    "tail_ms": "ms",
    # the traced run itself
    "ops": "count",
    "trace_overhead_ms": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    if args.workload == "all":
        return run_all(args)

    run = Run(args.workload, args.seed, bool(args.trace))
    record_environment(run)
    if args.workload.startswith("solve-"):
        import wl_solve

        wl_solve.run(run, args.workload[len("solve-"):], args.seconds)
    elif args.workload.startswith("session-"):
        import wl_session

        wl_session.run(run, args.workload, args.seconds)
    else:
        import wl_http

        wl_http.run(run, args.workload, args.seconds)

    if run.trace:
        for name, unit in PER_LAYER.items():
            if name not in run.metrics:
                run.metric(name, 0.0, unit)
        wanted = PER_LAYER
    else:
        wanted = END_TO_END
    run.metrics = {name: run.metrics[name] for name in wanted}
    for name, (value, unit) in run.metrics.items():
        note(f"{args.workload} {name} = {value:.6g} {unit}")
    note(f"{args.workload} error_rate = {run.failed / max(1, run.attempted):.6g} "
         f"({run.failed} failed of {run.attempted} attempted)")
    print(run.result_line(), flush=True)
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, so set-up time and
    peak memory belong to that workload; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            note(line)
        worst = max(worst, completed.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            note(f"{workload}: no result (exit code {completed.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
