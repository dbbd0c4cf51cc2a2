"""Compiled ground-program kernel: interned-int IR with flat-array evaluation.

The kernel lowers a ground program to dense integers once
(:mod:`repro.kernel.compile`) and evaluates the well-founded model with
counter propagation over flat arrays (:mod:`repro.kernel.eval`).  Three
front ends produce the int rules — the relevant grounder's
:meth:`~repro.datalog.grounding.IncrementalGrounder.ground_ir` for a
non-ground program, :func:`lower_program` for a ground one and
:func:`compile_context` for a built
:class:`~repro.core.context.GroundContext` — and one back end,
:func:`condense`, indexes them by head and condenses the atom dependency
graph into a :class:`CompiledProgram` (the id → atom list kept as
``CompiledProgram.atoms``); :func:`evaluate_model` evaluates it and
decodes the model.  :func:`kernel_model` is the one object-level way in:
it compiles a built context (cached on it) and evaluates it.  Both
return the model alone; the per-method component counts, stages and
decrements of a run go to its recorder (the ``components.*`` and
``kernel.*`` counters).  The kernel is the default engine
(``engine="kernel"`` on :class:`~repro.config.EngineConfig`) of every
one-shot well-founded solve, which grounds straight into it with no
context built (:func:`repro.engine.solver.solve_configured`); the
monolithic alternating fixpoint and the ``W_P`` unfounded-set iteration
remain the differential oracles.

The kernel is a one-shot evaluator.  A :class:`~repro.session.KnowledgeBase`
configured with it maintains its model in the aggregate verdict sets of
:mod:`repro.session.incremental` instead, re-solving components with
:func:`repro.core.modular.solve_component`.  Both hand a component's
residual rules to the same solvers,
:func:`~repro.core.modular.residual_closure` and
:func:`~repro.core.modular.residual_alternating`.
"""

from .compile import CompiledProgram, compile_context, condense, get_kernel, lower_program
from .eval import evaluate_compiled, evaluate_model, kernel_model

__all__ = [
    "CompiledProgram",
    "compile_context",
    "condense",
    "get_kernel",
    "lower_program",
    "evaluate_compiled",
    "evaluate_model",
    "kernel_model",
]
