"""Workload generators: programs for benchmarks and property-based tests.

Four families matter for reproducing the paper and scaling it up:

* *graph programs* — transitive closure, same-generation, its complement,
  reachability, sources/sinks, and the well-founded-nodes program of
  Example 8.2; together with the win–move game these are the non-ground
  workloads the grounding benchmarks sweep over EDB graphs;
* *win–move games* — provided by :mod:`repro.games`;
* *random ground programs* — propositional programs with controlled rule
  counts, body sizes and negation density, used by the property-based tests
  (Theorem 7.8 equivalence, stable-model containment, monotonicity of
  ``A_P``) and by the scaling benchmarks;
* *random non-ground programs* — safe-by-construction normal programs with
  variables, used by the grounder differential tests (indexed semi-naive
  grounding versus the scan oracle versus ``naive_ground``).
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from ..datalog.atoms import Atom, Literal
from ..datalog.builder import ProgramBuilder
from ..datalog.rules import Program, Rule

__all__ = [
    "transitive_closure_program",
    "complement_of_transitive_closure_program",
    "reachability_program",
    "same_generation_program",
    "well_founded_nodes_program",
    "layered_program",
    "random_propositional_program",
    "random_negative_loop_program",
    "random_nonground_program",
    "social_graph_program",
    "access_policy_program",
    "two_player_choice_program",
]

Edge = tuple[object, object]


def _graph_facts(builder: ProgramBuilder, edges: Iterable[Edge], relation: str = "edge") -> list[object]:
    nodes: list[object] = []
    seen: set[object] = set()
    for source, target in edges:
        builder.fact(relation, source, target)
        for node in (source, target):
            if node not in seen:
                seen.add(node)
                nodes.append(node)
    for node in nodes:
        builder.fact("node", node)
    return nodes


def transitive_closure_program(edges: Iterable[Edge]) -> Program:
    """The standard transitive-closure rules over the given edge facts."""
    builder = ProgramBuilder()
    _graph_facts(builder, edges)
    builder.rule(("tc", "X", "Y"), [("edge", "X", "Y")])
    builder.rule(("tc", "X", "Y"), [("edge", "X", "Z"), ("tc", "Z", "Y")])
    return builder.build()


def complement_of_transitive_closure_program(edges: Iterable[Edge]) -> Program:
    """Example 2.2 / Section 8.5: ``ntc`` as the negation of ``tc``.

    Stratified, so the stratified / well-founded / stable semantics all
    compute the true complement; the inflationary semantics famously does
    not (benchmark E4).
    """
    builder = ProgramBuilder()
    _graph_facts(builder, edges)
    builder.rule(("tc", "X", "Y"), [("edge", "X", "Y")])
    builder.rule(("tc", "X", "Y"), [("edge", "X", "Z"), ("tc", "Z", "Y")])
    builder.rule(("ntc", "X", "Y"), [("node", "X"), ("node", "Y"), ("not", "tc", "X", "Y")])
    return builder.build()


def reachability_program(edges: Iterable[Edge], sources: Sequence[object]) -> Program:
    """Reachability from a set of source nodes."""
    builder = ProgramBuilder()
    _graph_facts(builder, edges)
    for source in sources:
        builder.fact("source", source)
    builder.rule(("reach", "X"), [("source", "X")])
    builder.rule(("reach", "Y"), [("reach", "X"), ("edge", "X", "Y")])
    return builder.build()


def same_generation_program(parent_edges: Iterable[Edge]) -> Program:
    """The classic same-generation program over a parenthood relation.

    ``sg(X, Y)`` holds when ``X`` and ``Y`` are the same number of
    generations below some common view of the family forest::

        sg(X, X) :- node(X).
        sg(X, Y) :- parent(P, X), parent(Q, Y), sg(P, Q).

    The recursive rule's three-way join (two ``parent`` probes around a
    recursive ``sg`` delta) is the standard stress test for grounder join
    ordering and argument indexes.
    """
    builder = ProgramBuilder()
    _graph_facts(builder, parent_edges, relation="parent")
    builder.rule(("sg", "X", "X"), [("node", "X")])
    builder.rule(
        ("sg", "X", "Y"),
        [("parent", "P", "X"), ("parent", "Q", "Y"), ("sg", "P", "Q")],
    )
    return builder.build()


def well_founded_nodes_program(edges: Iterable[Edge]) -> Program:
    """Example 8.2 in its normal-program form.

    ``w(X)`` holds when node ``X`` has no infinite descending chain of
    ``e``-edges *into* it; ``u`` is the auxiliary "unfounded" relation the
    paper extracts from the negative existential subformula::

        w(X) :- node(X), not u(X).
        u(X) :- e(Y, X), not w(Y).
    """
    builder = ProgramBuilder()
    _graph_facts(builder, edges, relation="e")
    builder.rule(("w", "X"), [("node", "X"), ("not", "u", "X")])
    builder.rule(("u", "X"), [("e", "Y", "X"), ("not", "w", "Y")])
    return builder.build()


def layered_program(layers: int, layer_size: int) -> Program:
    """Stacked negation clusters connected by positive arcs — the
    adversarial workload for *monolithic* alternating-fixpoint evaluation.

    Each layer ``ℓ`` is gated by ``base(ℓ)`` (a fact for layer 0, derived
    from the layer below otherwise) and contains:

    * a **negation chain** ``chain(ℓ, i) ← base(ℓ) ∧ ¬chain(ℓ, i+1)`` of
      *layer_size* atoms: atom-level *acyclic*, yet the monolithic
      alternation needs ``Θ(layer_size)`` global stages to settle it one
      rung per alternation — while every rung is a singleton SCC the
      component-wise evaluator resolves in O(1);
    * an **undefined triangle** ``undef(ℓ, k) ← base(ℓ) ∧
      ¬undef(ℓ, k+1 mod 3)``: negation through recursion, all three atoms
      undefined — the per-component alternating fixpoint fires here;
    * two **observers** of the triangle, ``frontier(ℓ) ← undef(ℓ, 0)``
      and ``shadow(ℓ) ← base(ℓ) ∧ ¬undef(ℓ, 0)``: undefined through a
      literal resting on an unresolved component below — the stratified
      double-closure method fires here;
    * the **positive bridge** to the next layer,
      ``bridge(ℓ) ← chain(ℓ, layer_size−2)`` and
      ``base(ℓ+1) ← bridge(ℓ)`` (``chain(ℓ, layer_size−2)`` is true
      whenever the gate is, since the chain's top rung is false).

    The program is ground; monolithic evaluation costs
    ``Θ(layer_size × layers·layer_size)`` while component-wise evaluation
    is near-linear in the program size.
    """
    layers = max(1, layers)
    size = max(2, layer_size)
    builder = ProgramBuilder()
    for layer in range(layers):
        if layer == 0:
            builder.fact("base", 0)
        else:
            builder.rule(("base", layer), [("bridge", layer - 1)])
        for i in range(size - 1):
            builder.rule(
                ("chain", layer, i),
                [("base", layer), ("not", "chain", layer, i + 1)],
            )
        builder.rule(("bridge", layer), [("chain", layer, size - 2)])
        for k in range(3):
            builder.rule(
                ("undef", layer, k),
                [("base", layer), ("not", "undef", layer, (k + 1) % 3)],
            )
        builder.rule(("frontier", layer), [("undef", layer, 0)])
        builder.rule(("shadow", layer), [("base", layer), ("not", "undef", layer, 0)])
    return builder.build()


def random_propositional_program(
    atoms: int,
    rules: int,
    seed: int = 0,
    max_body: int = 3,
    negation_probability: float = 0.4,
    fact_probability: float = 0.15,
    layers: int = 0,
) -> Program:
    """A random ground propositional program.

    Atom names are ``p0 .. p{atoms-1}``.  Each rule picks a random head and
    up to ``max_body`` random body atoms, each negated with the given
    probability; a slice of the rules become facts.  With *layers* > 0 the
    atoms are cut into that many consecutive layers, a positive body atom
    is drawn from the head's layer or below and a negative one from a
    strictly lower layer (a rule in the lowest layer gets none), so the
    program is stratified.  Deterministic per seed.
    """
    generator = random.Random(seed)
    names = [f"p{i}" for i in range(max(1, atoms))]
    span = -(-len(names) // layers) if layers > 0 else 0
    produced: list[Rule] = []
    for _ in range(rules):
        head = generator.randrange(len(names))
        if generator.random() < fact_probability:
            produced.append(Rule(Atom(names[head], ())))
            continue
        # The first atom of the head's layer: a layered positive literal
        # reads below the layer's end, a negative one below its start.
        floor = head - head % span if span else 0
        body_size = generator.randint(1, max(1, max_body))
        body: list[Literal] = []
        for _ in range(body_size):
            index = generator.randrange(len(names))
            positive = generator.random() >= negation_probability
            if span:
                positive = positive or not floor
                index %= floor + span if positive else floor
            body.append(Literal(Atom(names[index], ()), positive))
        produced.append(Rule(Atom(names[head], ()), tuple(body)))
    return Program(produced)


def random_nonground_program(
    constants: int = 4,
    edb_relations: int = 2,
    idb_relations: int = 2,
    facts: int = 10,
    rules: int = 6,
    seed: int = 0,
    max_body: int = 3,
    negation_probability: float = 0.25,
) -> Program:
    """A random *non-ground* normal program, safe by construction.

    EDB relations ``e0..`` (arity 1–2) receive random facts over constants
    ``c0..``; each of the *rules* IDB rules draws a random positive body
    over EDB and IDB relations with variable-or-constant arguments, then —
    with the given probability — one negative literal and finally a head
    whose arguments are restricted to positively bound variables and
    constants, so every generated rule is range-restricted.  Deterministic
    per seed; with ``negation_probability=0`` the result is definite.  The
    small constant pool keeps ``naive_ground`` tractable, which is what the
    grounder differential tests need.
    """
    generator = random.Random(seed)
    builder = ProgramBuilder()
    constant_pool = [f"c{i}" for i in range(max(1, constants))]
    edb = [(f"e{i}", generator.choice((1, 2))) for i in range(max(1, edb_relations))]
    idb = [(f"r{i}", generator.choice((1, 2))) for i in range(max(1, idb_relations))]
    variable_pool = ["X", "Y", "Z"]

    for _ in range(max(1, facts)):
        name, arity = generator.choice(edb)
        builder.fact(name, *(generator.choice(constant_pool) for _ in range(arity)))

    def bound_or_constant(bound: list[str]) -> str:
        if bound and generator.random() < 0.8:
            return generator.choice(bound)
        return generator.choice(constant_pool)

    for _ in range(max(1, rules)):
        head_name, head_arity = generator.choice(idb)
        body: list[tuple] = []
        bound_variables: list[str] = []
        for _ in range(generator.randint(1, max(1, max_body))):
            name, arity = generator.choice(edb + idb)
            args = []
            for _ in range(arity):
                if generator.random() < 0.8:
                    variable = generator.choice(variable_pool)
                    args.append(variable)
                    bound_variables.append(variable)
                else:
                    args.append(generator.choice(constant_pool))
            body.append((name, *args))
        if bound_variables and generator.random() < negation_probability:
            name, arity = generator.choice(edb + idb)
            body.append(
                ("not", name, *(bound_or_constant(bound_variables) for _ in range(arity)))
            )
        head_args = (bound_or_constant(bound_variables) for _ in range(head_arity))
        builder.rule((head_name, *head_args), body)
    return builder.build()


def random_negative_loop_program(pairs: int, seed: int = 0) -> Program:
    """A program made of ``a_i :- not b_i.  b_i :- not a_i.`` choice pairs.

    Every pair doubles the number of stable models (2^pairs total) while the
    well-founded model leaves all of them undefined — the worst case for
    stable-model enumeration and the flattest case for the alternating
    fixpoint, used by benchmark E8.
    """
    generator = random.Random(seed)
    builder = ProgramBuilder()
    order = list(range(pairs))
    generator.shuffle(order)
    for index in order:
        builder.proposition(f"a{index}", f"-b{index}")
        builder.proposition(f"b{index}", f"-a{index}")
    return builder.build()


def social_graph_program(
    people: int, extra_edges: int = 0, back_edges: int = 0, seed: int = 0
) -> Program:
    """A ground social-graph reachability workload for streaming churn.

    *people* nodes ``0 .. people-1`` form a follow backbone
    ``follows(i, i+1)`` **doubled** by a parallel ``endorses(i, i+1)``
    relation, so every backbone hop has two independent supports —
    retracting one backbone edge is the redundant-support churn that
    atom-level counting maintenance absorbs in O(1) while component-level
    invalidation re-solves the whole downstream closure.  *extra_edges*
    seeded random **forward** ``follows`` edges (more redundancy, graph
    stays acyclic) and *back_edges* seeded short backward edges (each
    closes a small local cycle, so recursive components exist but their
    delete-and-rederive cones stay bounded) are layered on top.  The
    derived relations::

        reach(p)      :- seed(p).                    % seed(0) is a fact
        reach(v)      :- reach(u), follows(u, v).    % per follow edge
        reach(v)      :- reach(u), endorses(u, v).   % per endorse edge
        influencer(p) :- reach(p), not muted(p).     % non-recursive ¬
        isolated(p)   :- person(p), not reach(p).

    Everything is pre-ground per edge/person, so the program qualifies
    for incremental maintenance; acyclic ``reach`` atoms are counting
    singletons, the back-edge loops are DRed components, and
    ``influencer`` / ``isolated`` form a wide counting frontier.
    Deterministic per seed.
    """
    people = max(2, people)
    generator = random.Random(seed)
    builder = ProgramBuilder()
    builder.fact("seed", 0)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def add_edge(source: int, target: int) -> None:
        if source != target and (source, target) not in seen:
            seen.add((source, target))
            builder.fact("follows", source, target)
            edges.append((source, target))

    for person in range(people):
        builder.fact("person", person)
        if person + 1 < people:
            for relation in ("follows", "endorses"):
                builder.fact(relation, person, person + 1)
            edges.append((person, person + 1))
            seen.add((person, person + 1))
    for _ in range(max(0, extra_edges)):
        source = generator.randrange(people - 1)
        add_edge(source, generator.randrange(source + 1, people))
    for _ in range(max(0, back_edges)):
        source = generator.randrange(1, people)
        add_edge(source, max(0, source - generator.randint(1, 4)))
    for person in range(people):
        builder.rule(("reach", person), [("seed", person)])
        builder.rule(
            ("influencer", person),
            [("reach", person), ("not", "muted", person)],
        )
        builder.rule(
            ("isolated", person),
            [("person", person), ("not", "reach", person)],
        )
    for source, target in edges:
        builder.rule(
            ("reach", target), [("reach", source), ("follows", source, target)]
        )
        if target == source + 1:
            builder.rule(
                ("reach", target),
                [("reach", source), ("endorses", source, target)],
            )
    return builder.build()


def access_policy_program(
    users: int, groups: int = 4, resources: int = 8, seed: int = 0
) -> Program:
    """A ground access-control policy workload for streaming churn.

    Users belong to seeded random groups; groups hold grants on
    resources; access composes membership with grants minus explicit
    denials, with an admin override::

        allow(u, r)  :- member(u, g), grants(g, r).   % per (u, g, r)
        access(u, r) :- allow(u, r), not denied(u, r).
        access(u, r) :- admin(u), resource(r).
        flagged(u)   :- admin(u), not trusted(u).

    Entirely non-recursive once ground — every derived atom is a
    counting singleton, the pure counter-maintenance regime (group
    membership and denial churn each touch O(affected rules) counters).
    Deterministic per seed.
    """
    users = max(1, users)
    groups = max(1, groups)
    resources = max(1, resources)
    generator = random.Random(seed)
    builder = ProgramBuilder()
    membership: dict[int, list[int]] = {}
    grants: dict[int, list[int]] = {}
    for group in range(groups):
        granted = sorted(
            generator.sample(range(resources), generator.randint(1, resources))
        )
        grants[group] = granted
        for resource in granted:
            builder.fact("grants", group, resource)
    for resource in range(resources):
        builder.fact("resource", resource)
    for user in range(users):
        joined = sorted(
            generator.sample(range(groups), generator.randint(1, min(2, groups)))
        )
        membership[user] = joined
        for group in joined:
            builder.fact("member", user, group)
        if generator.random() < 0.05:
            builder.fact("admin", user)
        if generator.random() < 0.5:
            builder.fact("trusted", user)
    for user in range(users):
        builder.rule(("flagged", user), [("admin", user), ("not", "trusted", user)])
        for resource in range(resources):
            builder.rule(
                ("access", user, resource),
                [("allow", user, resource), ("not", "denied", user, resource)],
            )
            builder.rule(
                ("access", user, resource),
                [("admin", user), ("resource", resource)],
            )
        for group in range(groups):
            for resource in grants[group]:
                builder.rule(
                    ("allow", user, resource),
                    [("member", user, group), ("grants", group, resource)],
                )
    return builder.build()


def two_player_choice_program(pairs: int, winners: int = 1) -> Program:
    """Choice pairs plus a few atoms forced true through double negation.

    Gives programs whose well-founded model is partial but not empty, with
    a predictable split of true / false / undefined atoms — handy for
    calibrating the figure-2 style convergence benchmark.
    """
    builder = ProgramBuilder()
    for index in range(pairs):
        builder.proposition(f"a{index}", f"-b{index}")
        builder.proposition(f"b{index}", f"-a{index}")
    for index in range(winners):
        builder.proposition(f"win{index}", f"-lose{index}")
        builder.proposition(f"lose{index}", f"-dead{index}")
        builder.fact(f"dead{index}")
    return builder.build()
