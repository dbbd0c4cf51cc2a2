"""``repro.obs`` — low-overhead engine instrumentation.

One telemetry vocabulary for the whole pipeline: hierarchical timed
**spans** and named **counters**, captured by a :class:`TraceRecorder`
(or discarded at near-zero cost by the default :class:`NullRecorder`),
exportable as JSONL traces or human-readable span-tree tables.

Entry points accept ``recorder=`` throughout the stack —
``solve_configured``, ``build_context`` / ``IncrementalGrounder``,
``alternating_fixpoint`` / ``well_founded_model``, ``kernel_model``,
``IncrementalEngine``, ``KnowledgeBase`` — and the CLI surfaces the
subsystem as ``repro profile`` and ``--trace-out``.  Results carry the
model; how it was computed is the recorder's alone: the per-component
dispatch is the ``component`` spans of a session and the
``components.<method>``, ``kernel.*``, ``alternating.stages`` and
``dg.decrements`` counters, with no per-component copy kept on a result.
"""

from .export import (
    REQUIRED_SPAN_KEYS,
    TRACE_SCHEMA_VERSION,
    phase_coverage,
    render_counters,
    render_span_tree,
    trace_records,
    write_trace_jsonl,
)
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    SpanRecord,
    TraceRecorder,
    ensure_recorder,
)

__all__ = [
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "NULL_RECORDER",
    "SpanRecord",
    "ensure_recorder",
    "TRACE_SCHEMA_VERSION",
    "REQUIRED_SPAN_KEYS",
    "trace_records",
    "write_trace_jsonl",
    "render_span_tree",
    "render_counters",
    "phase_coverage",
]
