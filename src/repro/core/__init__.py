"""Core contribution of the paper: the alternating fixpoint and its friends.

* :mod:`repro.core.context` — ground evaluation contexts;
* :mod:`repro.core.consequence` — immediate consequence mappings
  (Definitions 3.6–3.7);
* :mod:`repro.core.eventual` — the eventual consequence ``S_P``
  (Definition 4.2);
* :mod:`repro.core.stability` — the stability transformation ``S̃_P`` and
  the Gelfond–Lifschitz reduct (Section 4);
* :mod:`repro.core.alternating` — the alternating transformation ``A_P`` and
  the AFP partial model (Section 5);
* :mod:`repro.core.wellfounded` — unfounded sets and the ``W_P`` fixpoint
  (Section 6), the independent baseline for Theorem 7.8;
* :mod:`repro.core.modular` — one strongly connected component of the
  atom dependency graph solved against the components below it, by the
  cheapest sound method (Horn closure / stratified double closure / local
  alternating fixpoint): the unit a session maintains its model with;
* :mod:`repro.core.stable` — stable models via ``S̃_P`` fixpoints.
"""

from .alternating import (
    AlternatingFixpointResult,
    AlternatingStage,
    afp_model,
    alternating_fixpoint,
    alternating_transform,
)
from .consequence import (
    horn_step,
    immediate_consequence,
    inflationary_step,
    naive_negation_step,
    tp_step,
)
from .context import GroundContext, GroundRule, build_context
from .eventual import (
    eventual_consequence,
    eventual_consequence_naive,
    eventual_consequence_trace,
    minimum_model,
)
from .explain import BlockedRule, Derivation, Explainer, Explanation, explain
from .stability import (
    gelfond_lifschitz_reduct,
    is_stable_set,
    reduct_minimum_model,
    stability_transform,
)
from .stable import (
    StableModel,
    has_stable_model,
    is_stable_model,
    stable_consequences,
    stable_models,
    stable_models_brute_force,
    unique_stable_model,
)
from .wellfounded import (
    WellFoundedResult,
    greatest_unfounded_set,
    is_unfounded_set,
    well_founded_model,
    well_founded_transform,
)

__all__ = [
    "AlternatingFixpointResult",
    "AlternatingStage",
    "afp_model",
    "alternating_fixpoint",
    "alternating_transform",
    "horn_step",
    "immediate_consequence",
    "inflationary_step",
    "naive_negation_step",
    "tp_step",
    "GroundContext",
    "GroundRule",
    "build_context",
    "eventual_consequence",
    "eventual_consequence_naive",
    "eventual_consequence_trace",
    "minimum_model",
    "BlockedRule",
    "Derivation",
    "Explainer",
    "Explanation",
    "explain",
    "gelfond_lifschitz_reduct",
    "is_stable_set",
    "reduct_minimum_model",
    "stability_transform",
    "StableModel",
    "has_stable_model",
    "is_stable_model",
    "stable_consequences",
    "stable_models",
    "stable_models_brute_force",
    "unique_stable_model",
    "WellFoundedResult",
    "greatest_unfounded_set",
    "is_unfounded_set",
    "well_founded_model",
    "well_founded_transform",
]
