"""Generate Skip Plan — Algorithm 2 (§4.3).

For each horizontal condition (span definition), estimate the cost of
every participating variable — ``t(t+1)/2`` for an unconstrained elastic
``^``, otherwise the number of candidate bindings in this sentence — and
greedily skip the costliest variables subject to the rule that a
variable's immediate left and right neighbours must not themselves be
skipped (their bindings are what the skipped variable is later derived
from). Literal-token atoms are constants: never skipped, and they count
as present (non-skipped) neighbours.
"""
from __future__ import annotations

from .ast import SpanAtom, SpanDef


def atom_cost(atom: SpanAtom, costs: dict[str, int], t: int) -> int:
    if atom.kind == "elastic" and atom.etype is None:
        return t * (t + 1) // 2
    return costs.get(atom.var, t)


def skip_list(sd: SpanDef, costs: dict[str, int], t: int) -> list[str]:
    """Variables of one horizontal condition to skip, greedily by cost."""
    atoms = sd.atoms
    if len(atoms) < 2:
        return []  # a lone atom has no neighbours to derive it from
    var_pos = {a.var: i for i, a in enumerate(atoms) if a.var is not None}
    cost = {
        a.var: atom_cost(a, costs, t) for a in atoms if a.var is not None
    }
    skipped: set[str] = set()
    out: list[str] = []
    for v in sorted(cost, key=lambda v: (-cost[v], var_pos[v])):
        i = var_pos[v]
        left = atoms[i - 1].var if i > 0 else None
        right = atoms[i + 1].var if i + 1 < len(atoms) else None
        if (left is None or left not in skipped) and (
            right is None or right not in skipped
        ):
            skipped.add(v)
            out.append(v)
    return out
