"""Compiled ground-program kernel: interned-int IR with flat-array evaluation.

The kernel compiles a frozen :class:`~repro.core.context.GroundContext`
into dense integers once (:mod:`repro.kernel.intern`,
:mod:`repro.kernel.compile`) and evaluates the well-founded model with
counter propagation over flat arrays (:mod:`repro.kernel.eval`).  Select it
with ``engine="kernel"`` on :class:`~repro.config.EngineConfig`,
:func:`~repro.engine.solver.solve` or the CLI; the object-level engines
remain the differential oracles.

The kernel is a one-shot evaluator.  A :class:`~repro.session.KnowledgeBase`
configured with it maintains its model like the modular engine does, in
the aggregate verdict sets of :mod:`repro.session.incremental`.
"""

from .compile import CompiledProgram, compile_context, get_kernel
from .eval import KernelResult, evaluate_compiled, kernel_model, kernel_well_founded
from .intern import AtomTable

__all__ = [
    "AtomTable",
    "CompiledProgram",
    "compile_context",
    "get_kernel",
    "KernelResult",
    "evaluate_compiled",
    "kernel_model",
    "kernel_well_founded",
]
