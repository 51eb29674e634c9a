"""Decompose Paths & Lookup Indices — Algorithm 1 (§4.2).

For every *dominant* path: decompose into a parse-label path, a POS-tag
path and a word path (Example 4.2); look up the PL index, POS index and
word index; join the posting lists with the paper's quintuple join rules
(``path_bindings``); the result covers every variable the path
dominates. Entity-typed output variables bind to the entity index.

``run`` returns the candidate sentences: those having bindings for
**every** dominant path and every entity variable (the extract clause is
conjunctive), intersected in one aggregation by ``sidsets.intersect``; an
empty extract clause leaves all sentences candidates (§4.3), and ``run``
returns None. Only the sids leave DPLI: the evaluator re-derives exact
per-sentence bindings itself. Everything here is
DataFrame algebra over the indices — per-sentence work happens later in
``evaluate``.

Every join here has a side that is small by construction: a literal
word's posting list, or the word-path result positioned at such a list.
That side is broadcast (``F.broadcast``), so scanning ``W`` never
shuffles it; the session's automatic broadcast threshold stays off.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..corpus.generator import has_etype
from ..indexing import pathmatch, sidsets
from ..indexing.koko_index import KokoIndex, lookup_word
from ..indexing.pathmatch import Step
from .normalize import NormQuery

QUINT = ["x", "y", "u", "v", "d"]


def _q(df: DataFrame, side: str) -> DataFrame:
    return df.select(*[F.col(c).alias(f"{c}{side}") for c in QUINT])


def _join_word_path(index: KokoIndex, steps: list[Step]) -> DataFrame | None:
    """Successively join word-index posting lists along the word path,
    enforcing ancestor-descendant + depth-gap conditions (Example 4.4).
    Returns quintuples positioned at the *last* word step, or None if the
    path has no word constraints. Each next word's posting list is the
    broadcast side."""
    words = pathmatch.word_path_words(steps)
    if not words:
        return None
    prev_i, _ = words[0]
    q = lookup_word(index, words[0][1])
    for i, w in words[1:]:
        g, exact = pathmatch.gap(steps, prev_i, i)
        nxt = lookup_word(index, w)
        depth_cond = (
            (F.col("d2") == F.col("d1") + g) if exact else (F.col("d2") >= F.col("d1") + g)
        )
        q = (
            _q(q, "1")
            .join(
                F.broadcast(_q(nxt, "2")),
                (F.col("x1") == F.col("x2"))
                & (F.col("u1") <= F.col("u2"))
                & (F.col("v1") >= F.col("v2"))
                & depth_cond,
            )
            .select(*[F.col(f"{c}2").alias(c) for c in QUINT])
        )
        prev_i = i
    return q


def _matching_node_ids(index: KokoIndex, regex: str, attr: str) -> list[int]:
    """Hierarchy-node ids whose path matches — resolved on the driver's
    compact copy of the (tiny, >99.7%-merged) hierarchy index; the ids
    then filter ``W`` in one pass — the "direct access without
    posting-list joins" the hierarchy index exists for.
    """
    import re

    local = index.local_nodes(attr)
    rx = re.compile(regex)
    return [int(i) for i, p in zip(local["id"], local["path"]) if rx.match(p)]


def path_bindings(index: KokoIndex, steps: list[Step]) -> DataFrame:
    """Candidate quintuples for one dominant path (complete, possibly
    over-approximate — §4.2.2 Discussion).

    The P1 ⋈ P2 join on (x, y) of Algorithm 1 degenerates to a single
    scan of ``W``: every W row carries both its PL and POS node id, so
    "token in both posting lists" is two ``isin`` predicates on one row.
    The word-path bindings, drawn from the posting lists of the path's
    literal words, are broadcast into the join with that scan.
    """
    p1_rx = pathmatch.label_path_regex(steps, "parse")
    p2_rx = pathmatch.label_path_regex(steps, "pos")
    cond = None
    if p1_rx is not None:
        ids = _matching_node_ids(index, p1_rx, "parse")
        if not ids:  # path absent from the index: empty answer (§4.2.2)
            return index.word.limit(0).select(*QUINT)
        cond = F.col("pl_id").isin(ids)
    if p2_rx is not None:
        ids = _matching_node_ids(index, p2_rx, "pos")
        if not ids:
            return index.word.limit(0).select(*QUINT)
        c2 = F.col("pos_id").isin(ids)
        cond = c2 if cond is None else (cond & c2)
    p = index.word.where(cond).select(*QUINT) if cond is not None else None

    q = _join_word_path(index, steps)
    if q is None:
        if p is None:  # pure //* path: unconstrained
            return index.word.select(*QUINT)
        return p

    words = pathmatch.word_path_words(steps)
    last_word_i = words[-1][0]
    if p is None:
        # Word constraints only; if the path extends past the last word,
        # bindings are descendants of Q at the right depth.
        if last_word_i == len(steps) - 1:
            return q
        p = index.word.select(*QUINT)

    if last_word_i == len(steps) - 1:
        # Last element of the word path is a word: same-token join.
        return (
            _q(p, "1")
            .join(
                F.broadcast(_q(q, "2")),
                (F.col("x1") == F.col("x2")) & (F.col("y1") == F.col("y2")),
            )
            .select(*[F.col(f"{c}1").alias(c) for c in QUINT])
        )
    g, exact = pathmatch.gap(steps, last_word_i, len(steps) - 1)
    depth_cond = (
        (F.col("d1") == F.col("d2") + g) if exact else (F.col("d1") >= F.col("d2") + g)
    )
    return (
        _q(p, "1")
        .join(
            F.broadcast(_q(q, "2")),
            (F.col("x1") == F.col("x2"))
            & (F.col("u2") <= F.col("u1"))
            & (F.col("v2") >= F.col("v1"))
            & depth_cond,
        )
        .select(*[F.col(f"{c}1").alias(c) for c in QUINT])
    )


def entity_vars(nq: NormQuery) -> dict[str, str]:
    """Output variables bound to the entity index (type ≠ Str and not
    defined as a node or span variable) → required etype ('Entity'=any)."""
    defined = set(nq.abs_paths) | {sd.name for sd in nq.span_defs}
    return {
        v: t for v, t in nq.query.outputs
        if t != "Str" and v not in defined
    }


def run(index: KokoIndex, nq: NormQuery) -> DataFrame | None:
    """Candidate sids (column ``x``): the sentences with bindings for every
    dominant path and every entity variable; None when nothing constrains
    the sentences (no extract clause)."""
    paths = nq.all_node_vars()
    dominants = sorted({nq.dominant[v] for v in paths})
    sid_sets = [path_bindings(index, paths[d]) for d in dominants]
    for etype in entity_vars(nq).values():
        sid_sets.append(index.entity.where(has_etype(etype)))
    return sidsets.intersect(sid_sets)
