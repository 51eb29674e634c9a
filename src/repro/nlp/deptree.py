"""Dependency-tree metadata: depths, subtree spans, root-to-node paths.

The paper's indices store, for every token, the quintuple ``(x, y, u-v, d)``
— sentence id, token id, first/last token id of the token's subtree, and
depth — plus, for the hierarchy indices, the token's root-to-node path over
parse labels (PL path) and POS tags (POS path). This module derives all of
that from a sentence's head-pointer array.

All functions are pure Python/NumPy over one sentence (templates are ≤ ~20
tokens); the corpus generator and the synthetic benchmarks call them per
sentence.
"""
from __future__ import annotations

from typing import Sequence


def depths(heads: Sequence[int]) -> list[int]:
    """Depth of each token (root = 0). ``heads[i]`` is the head token id,
    -1 for the root. Raises on cycles/malformed trees."""
    n = len(heads)
    out = [-1] * n
    for i in range(n):
        d, j, seen = 0, i, 0
        while heads[j] != -1:
            j = heads[j]
            d += 1
            seen += 1
            if seen > n:
                raise ValueError(f"cycle in dependency tree at token {i}")
        out[i] = d
    return out


def subtree_spans(heads: Sequence[int]) -> list[tuple[int, int]]:
    """``(u, v)`` = min/max token id in each token's subtree (inclusive,
    self included). Matches the paper's ``u-v`` components."""
    n = len(heads)
    lo = list(range(n))
    hi = list(range(n))
    # Propagate each token's id up to all its ancestors.
    for i in range(n):
        j = heads[i]
        while j != -1:
            lo[j] = min(lo[j], i)
            hi[j] = max(hi[j], i)
            j = heads[j]
    return list(zip(lo, hi))


def _root_path(i: int, heads: Sequence[int]) -> list[int]:
    """Token ids from root down to token ``i`` (inclusive)."""
    path = [i]
    while heads[path[-1]] != -1:
        path.append(heads[path[-1]])
    return path[::-1]


def label_paths(heads: Sequence[int], labels: Sequence[str]) -> list[str]:
    """Root-to-node path string per token, e.g. ``/root/dobj/nn``."""
    return [
        "/" + "/".join(labels[j] for j in _root_path(i, heads))
        for i in range(len(heads))
    ]


def triple_paths(
    heads: Sequence[int],
    labels: Sequence[str],
    pos: Sequence[str],
    tokens: Sequence[str],
) -> list[str]:
    """Root-to-node path of ``label|POS|token`` triples per token.

    One string per token; exact combined path matching (parse label AND
    POS AND word conditions on every step simultaneously) becomes a single
    regex test against this string. Used by the full-scan reference
    matcher and the per-sentence validation step — *not* by DPLI, which
    sees only the decomposed per-attribute indices, as in the paper.
    ``/`` and ``|`` separate steps and fields, so a label, POS tag or token
    containing either raises ``ValueError`` instead of never matching.
    """
    for value in (*labels, *pos, *tokens):
        if "/" in value or "|" in value:
            raise ValueError(f"path separator '/' or '|' in {value!r}")
    out = []
    for i in range(len(heads)):
        parts = [f"{labels[j]}|{pos[j]}|{tokens[j]}" for j in _root_path(i, heads)]
        out.append("/" + "/".join(parts))
    return out


def triple_elems(triple_path: str) -> list[tuple[str, str, str]]:
    """The ``(label, POS, token)`` triples of one ``triple_paths`` string,
    root first."""
    return [tuple(e.split("|")) for e in triple_path.strip("/").split("/")]


def parents(heads: Sequence[int]) -> list[int]:
    """Alias with validation: returns heads as a list, checking exactly
    one root exists."""
    hs = list(heads)
    if sum(1 for h in hs if h == -1) != 1:
        raise ValueError("dependency tree must have exactly one root")
    return hs
