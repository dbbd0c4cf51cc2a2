"""Compiled ground-program kernel: interned-int IR with flat-array evaluation.

The kernel compiles a frozen :class:`~repro.core.context.GroundContext`
into dense integers once (:mod:`repro.kernel.compile`: atom ids in the
order compilation first meets them, the id → atom list kept as
``CompiledProgram.atoms``) and evaluates the well-founded model with
counter propagation over flat arrays (:mod:`repro.kernel.eval`).  It is
the default engine (``engine="kernel"`` on
:class:`~repro.config.EngineConfig`) of every one-shot well-founded
solve; the monolithic alternating fixpoint and the ``W_P`` unfounded-set
iteration remain the differential oracles.

The kernel is a one-shot evaluator.  A :class:`~repro.session.KnowledgeBase`
configured with it maintains its model in the aggregate verdict sets of
:mod:`repro.session.incremental` instead, re-solving components with
:func:`repro.core.modular.solve_component`.  Both hand a component's
residual rules to the same solvers,
:func:`~repro.core.modular.residual_closure` and
:func:`~repro.core.modular.residual_alternating`.
"""

from .compile import CompiledProgram, compile_context, get_kernel
from .eval import KernelResult, evaluate_compiled, kernel_model, kernel_well_founded

__all__ = [
    "CompiledProgram",
    "compile_context",
    "get_kernel",
    "KernelResult",
    "evaluate_compiled",
    "kernel_model",
    "kernel_well_founded",
]
