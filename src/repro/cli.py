"""Command-line interface.

``python -m repro <command> ...`` exposes the library to shell users:

* ``solve FILE``      — compute a model under a chosen semantics and print
  it (or write JSON with ``--json OUT``);
* ``repl [FILE]``     — interactive knowledge-base session: assert and
  retract facts against a live :class:`~repro.session.KnowledgeBase` and
  query the incrementally maintained model;
* ``serve [FILE]``    — long-running HTTP JSON API over a live
  :class:`~repro.session.KnowledgeBase`: snapshot-isolated concurrent
  reads, one serialized writer, bounded admission (see
  :mod:`repro.service`);
* ``trace FILE``      — print the alternating-fixpoint iteration table
  (the Table I view) for the program;
* ``query FILE Q``    — answer a conjunctive query against the computed
  model;
* ``stable FILE``     — enumerate stable models;
* ``classify FILE``   — report the program's syntactic class (stratified,
  locally stratified, strict, ...);
* ``explain FILE A``  — justify why atom ``A`` is true / false / undefined
  in the well-founded model;
* ``compare FILE``    — show per-atom verdicts under every semantics;
* ``bench FILE``      — time the grounding phase (indexed hash-join
  grounder versus the scan oracle, for non-ground programs), the naive
  versus semi-naive evaluation strategies on the monolithic engine, and
  the compiled kernel versus the monolithic well-founded engine on the
  program, with the kernel's per-method component counts;
* ``profile [FILE]``  — run one traced solve (``repro.obs``) and print
  the hierarchical span tree, counter totals and phase coverage; with
  ``--workload layered:12x200`` a generated workload replaces the file.

``solve``, ``query``, ``bench`` and ``profile`` accept
``--trace-out PATH`` to dump the recorded spans and counters as JSONL
(see :mod:`repro.obs.export` for the schema).

Commands that evaluate fixpoints share one set of configuration options —
``--strategy``, ``--engine``, ``--grounder`` (and ``--semantics`` where a
semantics choice makes sense; ``--store memory|sqlite:PATH`` where EDB
facts are consumed, so ``solve``/``query``/``explain`` can read a
persistent fact base and ``repl`` can mutate one durably) — which are
folded into a single validated :class:`~repro.config.EngineConfig`; every
command therefore rejects an unknown value with the same error message
listing the accepted ones.
``trace`` defaults to the monolithic engine because the Table I view *is*
the global stage sequence (it prints the kernel's per-method component
counts instead when asked for the kernel).

Programs are rule files in the textual syntax (see README); EDB relations
can be loaded from CSV with repeated ``--facts relation=path.csv`` options.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import classify
from .config import (
    DEFAULT_ENGINE,
    DEFAULT_STRATEGY,
    EVALUATION_ENGINES,
    EVALUATION_STRATEGIES,
    SUPPORTED_GROUNDERS,
    SUPPORTED_SEMANTICS,
    EngineConfig,
)
from .core import alternating_fixpoint, stable_models
from .datalog import parse_atom
from .datalog.io import load_facts_csv, load_program, save_interpretation_json
from .datalog.rules import Program
from .engine import answers, ask, solve
from .engine.query import query_has_variables
from .exceptions import BudgetError, ReproError
from .fixpoint.interpretations import TruthValue
from .obs import TraceRecorder, phase_coverage, render_counters, render_span_tree, write_trace_jsonl
from .resilience import Budget, metered
from .reporting import render_comparison, render_model, render_trace
from .semantics import compare_semantics
from .session import KnowledgeBase, run_repl
from .storage import MemoryStore

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Well-founded / alternating-fixpoint reasoning for logic programs with negation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_program_arguments(sub: argparse.ArgumentParser, optional: bool = False) -> None:
        if optional:
            sub.add_argument("program", nargs="?", help="path to a rule file")
        else:
            sub.add_argument("program", help="path to a rule file")
        sub.add_argument(
            "--facts",
            action="append",
            default=[],
            metavar="RELATION=CSV",
            help="load an EDB relation from a CSV file (repeatable)",
        )

    def add_config_arguments(
        sub: argparse.ArgumentParser,
        semantics: bool = False,
        strategy: bool = True,
        engine: bool = True,
        grounder: bool = True,
        store: bool = False,
        engine_default: str = DEFAULT_ENGINE,
    ) -> None:
        # Values are validated centrally by EngineConfig (not argparse
        # choices), so every command rejects bad input with the same
        # message listing the accepted values.  Each command only adds the
        # options it actually consults — a flag a command would ignore is
        # an argparse error, not a silent no-op.
        if semantics:
            sub.add_argument(
                "--semantics",
                default="auto",
                metavar="NAME",
                help=f"semantics to use: {', '.join(SUPPORTED_SEMANTICS)} (default: auto)",
            )
        if strategy:
            sub.add_argument(
                "--strategy",
                default=DEFAULT_STRATEGY,
                metavar="NAME",
                help=f"S_P evaluation scheme of the object-level evaluators (monolithic "
                f"AFP, W_P, horn, stratified, stable): {', '.join(EVALUATION_STRATEGIES)} "
                f"(default: {DEFAULT_STRATEGY}); the kernel and sessions have one "
                "counter-driven scheme",
            )
        if engine:
            sub.add_argument(
                "--engine",
                default=engine_default,
                metavar="NAME",
                help=f"well-founded evaluation engine: {', '.join(EVALUATION_ENGINES)} "
                f"(default: {engine_default})",
            )
        if grounder:
            sub.add_argument(
                "--grounder",
                default="relevant",
                metavar="NAME",
                help=f"grounder: {', '.join(SUPPORTED_GROUNDERS)} (default: relevant)",
            )
        if store:
            sub.add_argument(
                "--store",
                default="memory",
                metavar="SPEC",
                help="fact-storage backend: 'memory' or 'sqlite:PATH' — with a "
                "SQLite store, EDB facts come from (and, in the repl, persist "
                "to) the database file (default: memory)",
            )
        sub.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget for the evaluation; exceeding it aborts "
            "with exit code 3 (default: unlimited)",
        )

    def add_trace_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-out",
            metavar="PATH",
            default=None,
            help="record the run with repro.obs and write the span/counter trace as JSONL",
        )

    solve_parser = subparsers.add_parser("solve", help="compute a model and print it")
    add_program_arguments(solve_parser)
    add_config_arguments(solve_parser, semantics=True, store=True)
    solve_parser.add_argument("--predicate", help="restrict the printed model to one relation")
    solve_parser.add_argument("--json", metavar="OUT", help="also write the model as JSON")
    add_trace_argument(solve_parser)

    repl_parser = subparsers.add_parser(
        "repl", help="interactive knowledge-base session (assert/retract/query)"
    )
    add_program_arguments(repl_parser, optional=True)
    add_config_arguments(repl_parser, semantics=True, store=True)

    trace_parser = subparsers.add_parser(
        "trace",
        help="print the alternating-fixpoint iteration table "
        "(or the kernel's per-method component counts)",
    )
    add_program_arguments(trace_parser)
    # Table I *is* the global stage sequence, so the monolithic engine is
    # the default here; --engine kernel switches to per-method counts.
    add_config_arguments(trace_parser, grounder=False, engine_default="monolithic")
    trace_parser.add_argument("--predicate", help="restrict the table to one relation")

    query_parser = subparsers.add_parser("query", help="answer a conjunctive query")
    add_program_arguments(query_parser)
    query_parser.add_argument("query", help='e.g. "wins(X), not wins(Y)" or a ground query')
    add_config_arguments(query_parser, semantics=True, store=True)
    add_trace_argument(query_parser)

    bench_parser = subparsers.add_parser(
        "bench",
        help="time grounding, strategies and the kernel vs monolithic engines on the program",
    )
    add_program_arguments(bench_parser)
    # bench sweeps both strategies, both grounding matchers and both
    # engines itself, so none of them is an option: naive vs semi-naive
    # S_P evaluation runs on the monolithic engine (the kernel has one
    # counter-driven scheme), and the engine phase times both engines.
    add_config_arguments(bench_parser, strategy=False, engine=False, grounder=False)
    bench_parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions per strategy (best is kept)"
    )
    add_trace_argument(bench_parser)

    profile_parser = subparsers.add_parser(
        "profile", help="run one traced solve and print its span tree and counters"
    )
    add_program_arguments(profile_parser, optional=True)
    add_config_arguments(profile_parser, semantics=True, store=True)
    profile_parser.add_argument(
        "--workload",
        metavar="SPEC",
        default=None,
        help="profile a generated workload instead of a file: layered:LxS "
        "(repro.workloads.layered_program), negloop:N, choice:N",
    )
    add_trace_argument(profile_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="serve the knowledge base as a concurrent JSON HTTP API"
    )
    add_program_arguments(serve_parser, optional=True)
    add_config_arguments(serve_parser, semantics=True, store=True)
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8080, help="bind port; 0 picks a free one (default: 8080)"
    )
    serve_parser.add_argument(
        "--queue-size",
        type=int,
        default=64,
        metavar="N",
        help="write admission queue bound; a full queue sheds with 503 (default: 64)",
    )
    serve_parser.add_argument(
        "--max-readers",
        type=int,
        default=64,
        metavar="N",
        help="concurrent read requests admitted before shedding (default: 64)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall-clock budget; tripping it returns the "
        "504 budget payload (default: unlimited)",
    )

    stable_parser = subparsers.add_parser("stable", help="enumerate stable models")
    add_program_arguments(stable_parser)
    # The enumerator prunes with the (engine-independent) alternating
    # fixpoint and grounds with the default grounder: only the strategy
    # is consulted.
    add_config_arguments(stable_parser, engine=False, grounder=False)
    stable_parser.add_argument("--limit", type=int, default=None, help="stop after N models")

    classify_parser = subparsers.add_parser("classify", help="report the program's syntactic class")
    add_program_arguments(classify_parser)

    explain_parser = subparsers.add_parser("explain", help="justify an atom's well-founded verdict")
    add_program_arguments(explain_parser)
    add_config_arguments(explain_parser, store=True)
    explain_parser.add_argument("atom", help="ground atom, e.g. wins(c)")

    compare_parser = subparsers.add_parser("compare", help="verdicts under every semantics")
    add_program_arguments(compare_parser)
    compare_parser.add_argument(
        "--atoms", nargs="*", default=None, help="atoms to report (default: all IDB atoms)"
    )
    compare_parser.add_argument(
        "--no-stable", action="store_true", help="skip stable-model enumeration"
    )

    return parser


def _config_from_args(arguments) -> EngineConfig:
    """Fold the command's options into one validated EngineConfig; bad
    values raise through EngineConfig with the shared message format."""
    timeout = getattr(arguments, "timeout", None)
    return EngineConfig(
        semantics=getattr(arguments, "semantics", "auto"),
        strategy=getattr(arguments, "strategy", DEFAULT_STRATEGY),
        engine=getattr(arguments, "engine", DEFAULT_ENGINE),
        grounder=getattr(arguments, "grounder", "relevant"),
        store=getattr(arguments, "store", "memory"),
        budget=Budget(max_seconds=timeout) if timeout is not None else None,
    )


def _load(arguments) -> Program:
    if arguments.program is None:
        program = Program()
    else:
        program = load_program(arguments.program)
    if arguments.facts:
        store = MemoryStore()
        for entry in arguments.facts:
            if "=" not in entry:
                raise ReproError(f"--facts expects RELATION=CSV, got {entry!r}")
            relation, path = entry.split("=", 1)
            load_facts_csv(path, relation.strip(), store)
        program = Program.union(store.as_program(), program)
    return program


def _workload_program(spec: str) -> Program:
    """Build a generated workload from ``kind:params`` (e.g. ``layered:12x200``)."""
    from .workloads import generators

    kind, _, params = spec.partition(":")
    try:
        if kind == "layered":
            layers_text, _, size_text = params.partition("x")
            return generators.layered_program(int(layers_text), int(size_text))
        if kind == "negloop":
            return generators.random_negative_loop_program(int(params))
        if kind == "choice":
            return generators.two_player_choice_program(int(params))
    except ValueError as error:
        raise ReproError(f"bad --workload parameters in {spec!r}: {error}") from None
    raise ReproError(
        f"unknown workload {spec!r}; expected layered:LxS, negloop:N or choice:N"
    )


def _write_trace(recorder: TraceRecorder, path: str, out, **metadata: object) -> None:
    count = write_trace_jsonl(recorder, path, metadata=metadata)
    print(f"trace written to {path} ({count} records)", file=out)


# --------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------- #
def _render_kernel_stats(recorder: TraceRecorder) -> str:
    """Per-method component counts of one traced kernel run, read off its
    ``components.*`` and ``kernel.stages`` counters."""
    totals = recorder.counter_totals()
    lines = [f"components: {int(totals['components.total'])} (compiled kernel)"]
    for method in ("horn", "stratified", "alternating"):
        count = int(totals.get(f"components.{method}", 0))
        if count:
            lines.append(f"  {method:12s} {count:6d} components")
    lines.append(f"  stages       {int(totals['kernel.stages'])} total")
    return "\n".join(lines)


def _cmd_solve(arguments, out) -> int:
    config = _config_from_args(arguments)
    program = _load(arguments)
    recorder = TraceRecorder() if arguments.trace_out else None
    solution = solve(program, config=config, recorder=recorder)
    print(f"semantics: {solution.semantics}", file=out)
    print(render_model(solution.interpretation, solution.base, arguments.predicate), file=out)
    if arguments.json:
        save_interpretation_json(
            solution.interpretation,
            arguments.json,
            base=solution.base,
            metadata={"semantics": solution.semantics},
        )
        print(f"model written to {arguments.json}", file=out)
    if recorder is not None:
        _write_trace(recorder, arguments.trace_out, out, command="solve", program=arguments.program)
    return 0


def _cmd_repl(arguments, out) -> int:
    config = _config_from_args(arguments)
    program = _load(arguments)
    kb = KnowledgeBase(program, config=config)
    interactive = sys.stdin.isatty()
    if interactive:
        print("repro interactive session — type 'help' for commands", file=out)
    return run_repl(kb, sys.stdin, out, prompt="repro> " if interactive else None)


def _cmd_trace(arguments, out) -> int:
    config = _config_from_args(arguments)
    program = _load(arguments)
    if config.engine == "kernel":
        # The kernel runs no global stage sequence: render its per-method
        # component counts, from the run's trace, instead of a synthetic
        # Table I view.
        recorder = TraceRecorder()
        result = alternating_fixpoint(program, config=config, recorder=recorder)
        print(_render_kernel_stats(recorder), file=out)
        print(render_model(result.model, result.context.base, arguments.predicate), file=out)
        print(f"total model: {'yes' if result.is_total else 'no'}", file=out)
        return 0
    result = alternating_fixpoint(program, config=config)
    print(render_trace(result, arguments.predicate), file=out)
    print(f"\nconverged after {result.iterations} applications of the stability transform", file=out)
    print(f"total model: {'yes' if result.is_total else 'no'}", file=out)
    return 0


def _cmd_query(arguments, out) -> int:
    config = _config_from_args(arguments)
    program = _load(arguments)
    recorder = TraceRecorder() if arguments.trace_out else None
    solution = solve(program, config=config, recorder=recorder)
    if recorder is not None:
        _write_trace(recorder, arguments.trace_out, out, command="query", program=arguments.program)
    text = arguments.query
    if query_has_variables(text):
        results = list(answers(solution, text))
        if not results:
            print("no answers", file=out)
        for answer in results:
            bindings = ", ".join(f"{k} = {v}" for k, v in sorted(answer.as_dict().items()))
            print(bindings, file=out)
        return 0
    verdict = ask(solution, text)
    print(verdict.value, file=out)
    # grep-style exit status so shell scripts can branch on the verdict
    return 0 if verdict is TruthValue.TRUE else 1


def _cmd_serve(arguments, out) -> int:
    # Imported here so the other subcommands do not pay the http.server
    # import; everything is stdlib either way.
    from .service.http import run_server

    config = _config_from_args(arguments)
    program = _load(arguments)
    kb = KnowledgeBase(program, config=config)
    try:
        return run_server(
            kb,
            arguments.host,
            arguments.port,
            queue_size=arguments.queue_size,
            max_readers=arguments.max_readers,
            request_timeout=arguments.request_timeout,
            out=out,
        )
    finally:
        kb.close()


def _cmd_stable(arguments, out) -> int:
    config = _config_from_args(arguments)
    program = _load(arguments)
    models = stable_models(program, limit=arguments.limit, config=config)
    if not models:
        print("no stable model", file=out)
        return 1
    for index, model in enumerate(models, start=1):
        atoms = ", ".join(sorted(str(a) for a in model.true_atoms))
        print(f"stable model {index}: {{{atoms}}}", file=out)
    return 0


def _cmd_classify(arguments, out) -> int:
    program = _load(arguments)
    classification = classify(program)
    for key, value in classification.summary().items():
        print(f"{key:24s} {value}", file=out)
    return 0


def _cmd_explain(arguments, out) -> int:
    config = _config_from_args(arguments)
    program = _load(arguments)
    kb = KnowledgeBase(program, config=config.replace(semantics="well-founded"))
    atom = parse_atom(arguments.atom)
    print(kb.explain(atom).render(), file=out)
    return 0


def _cmd_compare(arguments, out) -> int:
    program = _load(arguments)
    comparison = compare_semantics(program, enumerate_stable=not arguments.no_stable)
    if arguments.atoms:
        atoms = [parse_atom(text) for text in arguments.atoms]
    else:
        idb = program.idb_predicates()
        context_base = alternating_fixpoint(program).context.base
        atoms = sorted((a for a in context_base if a.predicate in idb), key=str)
    print(render_comparison(comparison, atoms), file=out)
    print(
        f"\nTheorem 7.8 (AFP == WFS) holds: {'yes' if comparison.agreement_afp_wfs() else 'NO'}",
        file=out,
    )
    return 0


def _cmd_bench(arguments, out) -> int:
    import time

    from .core import build_context
    from .datalog.grounding import GROUNDING_MATCHERS, relevant_ground

    config = _config_from_args(arguments)
    program = _load(arguments)
    repeat = max(1, arguments.repeat)

    # The bench drives relevant_ground / alternating_fixpoint directly
    # (no config plumbed through), so the budget is installed as the
    # ambient meter for every timed phase below.
    with metered(config.budget):

        # Grounding phase: indexed semi-naive hash joins vs the scan oracle.
        if not program.is_ground:
            grounding_timings: dict[str, float] = {}
            grounded_rule_sets: dict[str, frozenset] = {}
            indexed_grounding = None
            for matcher in GROUNDING_MATCHERS:
                best = float("inf")
                for _ in range(repeat):
                    start = time.perf_counter()
                    grounded = relevant_ground(program, matcher=matcher)
                    best = min(best, time.perf_counter() - start)
                grounding_timings[matcher] = best
                grounded_rule_sets[matcher] = frozenset(grounded.rules)
                if matcher == "indexed":
                    indexed_grounding = grounded
            grounders_agree = len(set(grounded_rule_sets.values())) == 1
            print("grounding phase (relevant_ground):", file=out)
            for matcher in GROUNDING_MATCHERS:
                print(
                    f"  {matcher:10s} {grounding_timings[matcher] * 1000:10.3f} ms  (best of {repeat})",
                    file=out,
                )
            if grounding_timings["indexed"] > 0:
                speedup = grounding_timings["scan"] / grounding_timings["indexed"]
                print(f"  speedup    {speedup:10.2f}x", file=out)
            print(f"  ground programs agree: {'yes' if grounders_agree else 'NO'}", file=out)
            if not grounders_agree:
                return 1
            # Already ground, so build_context is a pass-through — no third
            # grounding pass.
            program = indexed_grounding

        context = build_context(program)

        timings: dict[str, float] = {}
        results: dict[str, object] = {}
        for strategy in EVALUATION_STRATEGIES:
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                result = alternating_fixpoint(context, strategy=strategy, engine="monolithic")
                best = min(best, time.perf_counter() - start)
            timings[strategy] = best
            results[strategy] = (result.true_atoms(), result.false_atoms())

        agree = len(set(results.values())) == 1
        stats = context.statistics()
        print("evaluation phase (alternating fixpoint, monolithic engine):", file=out)
        print(
            f"program: {stats['ground_rules']} ground rules, {stats['facts']} facts, "
            f"{stats['atoms']} atoms",
            file=out,
        )
        for strategy in EVALUATION_STRATEGIES:
            print(f"{strategy:10s} {timings[strategy] * 1000:10.3f} ms  (best of {repeat})", file=out)
        if timings["seminaive"] > 0:
            print(f"speedup    {timings['naive'] / timings['seminaive']:10.2f}x", file=out)
        print(f"models agree: {'yes' if agree else 'NO'}", file=out)

        # Engine phase: the compiled kernel against the monolithic
        # alternating fixpoint, on the default strategy.  The kernel's
        # compile is timed once on its own and cached on the context, so
        # the timed kernel runs are evaluation only.
        from .kernel import get_kernel, kernel_model

        compile_start = time.perf_counter()
        get_kernel(context)
        kernel_compile = time.perf_counter() - compile_start
        engine_timings: dict[str, float] = {}
        engine_results: dict[str, object] = {}
        for engine in EVALUATION_ENGINES:
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                if engine == "kernel":
                    result = kernel_model(context)
                else:
                    result = alternating_fixpoint(context, keep_stages=False)
                best = min(best, time.perf_counter() - start)
            engine_timings[engine] = best
            engine_results[engine] = result
        engines_agree = engine_results["kernel"] == engine_results["monolithic"].model
        print("\nengine phase (well-founded model, kernel vs monolithic):", file=out)
        for engine in EVALUATION_ENGINES:
            note = "  (+ one-off compile below)" if engine == "kernel" else ""
            print(
                f"{engine:10s} {engine_timings[engine] * 1000:10.3f} ms  (best of {repeat}){note}",
                file=out,
            )
        print(f"{'compile':10s} {kernel_compile * 1000:10.3f} ms  (kernel IR, once per grounding)", file=out)
        if engine_timings["kernel"] > 0:
            print(
                f"speedup    {engine_timings['monolithic'] / engine_timings['kernel']:10.2f}x  (kernel vs monolithic)",
                file=out,
            )
        # One extra traced kernel run over the already-built context
        # supplies the component counts (and --trace-out's trace): the
        # timed runs above stay recorder-free.
        recorder = TraceRecorder()
        kernel_model(context, recorder)
        print(_render_kernel_stats(recorder), file=out)
        kernel_stats = get_kernel(context).statistics()
        print(
            f"kernel IR: {kernel_stats['atoms']} atoms, {kernel_stats['rules']} rules, "
            f"{kernel_stats['components']} components, {kernel_stats['bytes']} bytes",
            file=out,
        )
        print(f"models agree: {'yes' if engines_agree else 'NO'}", file=out)
        if arguments.trace_out:
            _write_trace(recorder, arguments.trace_out, out, command="bench", program=arguments.program)
        return 0 if agree and engines_agree else 1


def _cmd_profile(arguments, out) -> int:
    import time

    config = _config_from_args(arguments)
    if arguments.workload and arguments.program:
        raise ReproError("profile takes either a program file or --workload, not both")
    if arguments.workload:
        program = _workload_program(arguments.workload)
        source = arguments.workload
    elif arguments.program:
        program = _load(arguments)
        source = arguments.program
    else:
        raise ReproError("profile needs a program file or --workload SPEC")

    # Loaded on first use otherwise: its one-time import is not a phase of
    # the solve being profiled.
    from . import kernel  # noqa: F401

    recorder = TraceRecorder()
    start = time.perf_counter()
    solution = solve(program, config=config, recorder=recorder)
    wall = time.perf_counter() - start

    print(f"workload: {source}", file=out)
    print(f"semantics: {solution.semantics}", file=out)
    print(file=out)
    print(render_span_tree(recorder), file=out)
    print(file=out)
    print(render_counters(recorder), file=out)
    root = recorder.find("solve")
    coverage = phase_coverage(recorder)
    if root is not None and coverage is not None:
        print(file=out)
        print(
            f"phase coverage: {coverage:.1%} of the {root.elapsed * 1000:.2f} ms 'solve' span "
            f"({wall * 1000:.2f} ms wall-clock) is inside a named phase",
            file=out,
        )
    if arguments.trace_out:
        _write_trace(recorder, arguments.trace_out, out, command="profile", workload=source)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "repl": _cmd_repl,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "query": _cmd_query,
    "stable": _cmd_stable,
    "classify": _cmd_classify,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _COMMANDS[arguments.command](arguments, out)
    except BudgetError as error:
        # Uniform one-line diagnostic + dedicated exit code for resource
        # exhaustion, so scripts can tell "over budget" from "bad input".
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
