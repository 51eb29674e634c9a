"""KOKO query model (§2).

Queries are built programmatically (DESIGN.md §6): node/span variable
definitions, constraints, satisfying and excluding clauses. Path strings
use the paper's syntax and are parsed by ``indexing.pathmatch.parse_path``.

Example — the query of Example 2.1::

    q = Query(
        outputs=[("e", "Entity"), ("d", "Str")],
        node_defs=[
            NodeDef("a", None, parse_path("//verb")),
            NodeDef("b", "a", parse_path("/dobj")),
            NodeDef("c", "b", parse_path('//"delicious"')),
        ],
        span_defs=[SpanDef("d", [subtree("b")])],
        constraints=[Constraint("in", "b", "e")],
    )
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..indexing.pathmatch import Step, parse_path  # re-exported for queries

__all__ = [
    "Step", "parse_path", "NodeDef", "SpanAtom", "SpanDef", "Constraint",
    "SatCond", "Satisfying", "Excluding", "Query",
    "var_atom", "subtree", "elastic", "tokens_atom", "path_atom",
]


@dataclass(frozen=True)
class NodeDef:
    """``name = base<steps>`` — ``base=None`` anchors at the tree root."""
    name: str
    base: str | None
    steps: list[Step]


@dataclass(frozen=True)
class SpanAtom:
    """One atom of a span term: variable reference, ``v.subtree``, elastic
    ``^`` (with optional etype/regex/min/max conditions), literal token
    sequence, or an inline path expression."""
    kind: str  # 'var' | 'subtree' | 'elastic' | 'tokens' | 'path'
    var: str | None = None
    tokens: tuple[str, ...] = ()
    steps: tuple[Step, ...] = ()
    etype: str | None = None
    regex: str | None = None
    min_len: int = 0
    max_len: int | None = None


def var_atom(name: str) -> SpanAtom:
    return SpanAtom("var", var=name)


def subtree(name: str) -> SpanAtom:
    return SpanAtom("subtree", var=name)


def elastic(etype: str | None = None, regex: str | None = None,
            min_len: int = 0, max_len: int | None = None) -> SpanAtom:
    return SpanAtom("elastic", etype=etype, regex=regex, min_len=min_len, max_len=max_len)


def tokens_atom(*words: str) -> SpanAtom:
    return SpanAtom("tokens", tokens=tuple(words))


def path_atom(path: str) -> SpanAtom:
    return SpanAtom("path", steps=tuple(parse_path(path)))


@dataclass(frozen=True)
class SpanDef:
    """``name = atom_1 + … + atom_k`` — a horizontal condition (§4.3)."""
    name: str
    atoms: list[SpanAtom]


@dataclass(frozen=True)
class Constraint:
    """``a <kind> b`` with kind ∈ in/eq/parentOf/ancestorOf/leftOf."""
    kind: str
    a: str
    b: str


@dataclass(frozen=True)
class SatCond:
    """One weighted condition of a satisfying clause (§2.2, §4.4.1).

    kinds: ``contains`` / ``mentions`` / ``matches`` (string-level
    booleans), ``follows`` (``x "str"``), ``precedes`` (``"str" x``),
    ``near``, ``desc_right`` (``x [[d]]``), ``desc_left`` (``[[d]] x``),
    ``similar_to``.
    """
    kind: str
    arg: str
    weight: float = 1.0


@dataclass(frozen=True)
class Satisfying:
    var: str
    conds: list[SatCond]
    threshold: float


@dataclass(frozen=True)
class Excluding:
    """Boolean excluding conditions on variable ``var``; ``in_dict`` takes
    a dictionary name resolved against ``aggregate.DICTIONARIES``."""
    var: str
    conds: list[SatCond]


@dataclass(frozen=True)
class Query:
    outputs: list[tuple[str, str]]  # (var, type) — type Str / Entity / Person / …
    node_defs: list[NodeDef] = field(default_factory=list)
    span_defs: list[SpanDef] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    satisfying: list[Satisfying] = field(default_factory=list)
    excluding: Excluding | None = None
