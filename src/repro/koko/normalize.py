"""Query normalization (§4.1).

Expands every node variable's path to absolute form (rooted), derives the
implied structural constraints (``parentOf`` for a single ``/`` hop off a
base variable, ``ancestorOf`` for ``//``), names the elastic ``^`` atoms
of horizontal conditions (``v_1``, ``v_2``, …) and derives their
``leftOf`` adjacency constraints — exactly the Example 4.1 expansion.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..indexing.pathmatch import check_steps
from .ast import Constraint, NodeDef, Query, SpanAtom, SpanDef, Step


@dataclass
class NormQuery:
    query: Query
    abs_paths: dict[str, list[Step]]          # node var → absolute steps
    anon_paths: dict[str, list[Step]]         # synthesized vars for path atoms
    span_defs: list[SpanDef]                  # elastic atoms replaced by named vars
    elastic_vars: dict[str, SpanAtom]         # v_i → original elastic atom
    constraints: list[Constraint]             # original + derived
    dominant: dict[str, str] = field(default_factory=dict)  # var → its dominant var

    def all_node_vars(self) -> dict[str, list[Step]]:
        return {**self.abs_paths, **self.anon_paths}


def _absolutize(defs: list[NodeDef]) -> tuple[dict[str, list[Step]], list[Constraint]]:
    abs_paths: dict[str, list[Step]] = {}
    derived: list[Constraint] = []
    remaining = list(defs)
    guard = 0
    while remaining:
        guard += 1
        if guard > 10 * len(defs) + 10:
            raise ValueError("circular node definitions")
        d = remaining.pop(0)
        if d.base is None:
            abs_paths[d.name] = list(d.steps)
        elif d.base in abs_paths:
            abs_paths[d.name] = abs_paths[d.base] + list(d.steps)
            one_hop = len(d.steps) == 1 and d.steps[0].axis == "/"
            kind = "parentOf" if one_hop else "ancestorOf"
            derived.append(Constraint(kind, d.base, d.name))
        else:
            remaining.append(d)
    return abs_paths, derived


def _dominates(p: list[Step], q: list[Step]) -> bool:
    """p is dominated by q: p (with conditions, modulo order) is a prefix
    of q (§4.2.1)."""
    if len(p) > len(q):
        return False
    for sp, sq in zip(p, q):
        if (sp.axis, sp.label, sp.kind) != (sq.axis, sq.label, sq.kind):
            return False
        if sorted(sp.conds) != sorted(sq.conds):
            return False
    return True


def normalize(q: Query) -> NormQuery:
    for d in q.node_defs:
        check_steps(d.steps)
    abs_paths, derived = _absolutize(q.node_defs)

    # Name elastic atoms and inline path atoms; derive leftOf adjacency.
    span_defs: list[SpanDef] = []
    elastic_vars: dict[str, SpanAtom] = {}
    anon_paths: dict[str, list[Step]] = {}
    n_el, n_anon = 0, 0
    for sd in q.span_defs:
        atoms: list[SpanAtom] = []
        names: list[str] = []
        for a in sd.atoms:
            if a.kind == "elastic":
                n_el += 1
                name = f"v_{n_el}"
                elastic_vars[name] = a
                atoms.append(replace(a, var=name))
                names.append(name)
            elif a.kind == "path":
                check_steps(list(a.steps))
                n_anon += 1
                name = f"p_{n_anon}"
                anon_paths[name] = list(a.steps)
                atoms.append(SpanAtom("var", var=name))
                names.append(name)
            else:
                atoms.append(a)
                names.append(a.var)
        span_defs.append(SpanDef(sd.name, atoms))
        for left, right in zip(names, names[1:]):
            derived.append(Constraint("leftOf", left, right))

    # Dominant-path assignment (§4.2.1): a var whose path is a prefix of
    # another's is dominated; every var maps to a dominant var whose
    # lookup covers it.
    all_paths = {**abs_paths, **anon_paths}
    dominant: dict[str, str] = {}
    for v, p in all_paths.items():
        dom = v
        for w, r in all_paths.items():
            if w == v:
                continue
            if _dominates(all_paths[dom], r) and not _dominates(r, all_paths[dom]):
                dom = w
        dominant[v] = dom
    return NormQuery(
        query=q,
        abs_paths=abs_paths,
        anon_paths=anon_paths,
        span_defs=span_defs,
        elastic_vars=elastic_vars,
        constraints=list(q.constraints) + derived,
        dominant=dominant,
    )
