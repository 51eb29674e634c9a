"""Satisfying-clause evaluation and document-level evidence aggregation
(§2.2, §4.4).

For every candidate value of a satisfying-clause variable, the score is
``Σ_i w_i · m_i(e)`` over the clause's conditions:

- string-level booleans (``contains`` / ``mentions`` / ``matches`` /
  ``in_dict``) and ``similar_to`` need no corpus scan; the excluding
  clause reads the booleans the same way;
- evidence conditions (``follows`` / ``precedes`` / ``near`` /
  descriptors) scan every sentence of the document where the value is
  mentioned: booleans contribute 0/1 (any-sentence semantics), ``near``
  contributes its best ``1/(1+distance)``, and descriptor confidences are
  summed over sentences — the collective-evidence semantics that
  distinguishes KOKO from single-sentence extractors.

Descriptor confidence per sentence follows §4.4.1 exactly:
``max_i Σ_j match(d_i, c_j)`` with ``match = k_i · l_j`` when the
expanded phrase occurs (in order, gaps allowed) in the canonical clause,
restricted to the side of the mention the condition names.

The per-document work lives in two functions over one document's decoded
sentences: ``score_doc`` (one clause's scores) and ``apply_doc`` (every
clause's threshold, then excluding). The engine calls ``apply_doc`` inside
its single pass over the candidate articles. ``score_values`` and
``apply_clauses`` are the unpruned reference the pass is checked against:
on the driver, they decode each candidate value's document and score it
through the same ``score_doc``. Mentions are found with the extract
clause's own entity-span and token-sequence matching.
"""
from __future__ import annotations

import re
from functools import lru_cache

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..corpus import vocab
from ..nlp import decompose, embeddings
from .ast import SatCond, Satisfying
from .evaluate import DECODE_COLS, Sentence, Span, _token_occurrences, documents
from .normalize import NormQuery

DICTIONARIES: dict[str, set[str]] = {
    "Location": set(vocab.CITIES) | set(vocab.COUNTRIES),
}

_EXPANSION_K = 32  # fixed expansion budget (§5: "a fixed number of expanded terms")


def _tokenize(s: str) -> list[str]:
    """Tokenize a condition argument the way the corpus is tokenized
    (punctuation split off)."""
    return re.findall(r"[A-Za-z0-9_'-]+|[^\sA-Za-z0-9]", s)


@lru_cache(maxsize=256)
def _expanded(descriptor: str) -> tuple[tuple[tuple[str, ...], float], ...]:
    return tuple(
        (tuple(p.split()), k) for p, k in embeddings.expand(descriptor, k=_EXPANSION_K)
    )


def _occurs(seq: tuple[str, ...], words: list[str]) -> bool:
    """Word sequence occurs in order with arbitrary gaps (case folded)."""
    it = iter(w.lower() for w in words)
    return all(any(w == x for x in it) for w in (s.lower() for s in seq))


_SCAN_KINDS = frozenset({"follows", "precedes", "near", "desc_right", "desc_left"})
_BOOLEAN_KINDS = frozenset({"contains", "mentions", "matches", "in_dict"})


def _string_level(cond: SatCond, value: str) -> float | None:
    """m_i for conditions that need no corpus scan; None ⇒ corpus scan."""
    if cond.kind == "contains":
        return 1.0 if cond.arg in value else 0.0
    if cond.kind == "mentions":
        return 1.0 if cond.arg.lower() in value.lower() else 0.0
    if cond.kind == "matches":
        return 1.0 if re.fullmatch(cond.arg, value) else 0.0
    if cond.kind == "in_dict":
        return 1.0 if value in DICTIONARIES.get(cond.arg, set()) else 0.0
    if cond.kind == "similar_to":
        return max(embeddings.similarity(w, cond.arg) for w in value.split())
    return None


def _mentions(sent: Sentence, value: str) -> list[Span]:
    """Token spans where ``value`` is mentioned in this sentence: entity
    spans with that text, else literal token-sequence occurrences."""
    spans = [(lo, hi) for lo, hi, _, text in sent.entities if text == value]
    return spans or _token_occurrences(sent, tuple(_tokenize(value)))


def _descriptor_conf(
    sent: Sentence, clauses: list[tuple[list[int], float]], span: Span, cond: SatCond
) -> float:
    lo, hi = span
    windows = []  # each clause's tokens on the named side of the mention
    for tids, l_j in clauses:
        if cond.kind == "desc_right":
            window = [sent.tokens[i] for i in tids if i > hi]
        else:
            window = [sent.tokens[i] for i in tids if i < lo]
        windows.append((window, l_j))
    best = 0.0
    for phrase, k_i in _expanded(cond.arg):
        total = 0.0
        for window, l_j in windows:
            if window and _occurs(phrase, window):
                total += k_i * l_j
        best = max(best, total)
    return best


def _evidence_scores(
    sents: list[Sentence], values: list[str], conds: list[SatCond]
) -> dict[str, list[float]]:
    """m_i(e) per value for the corpus-scanning conditions of one clause."""
    out = {v: [0.0] * len(conds) for v in values}
    for sent in sents:
        toks = sent.tokens
        clauses = None  # decomposed on the first descriptor condition
        for v in values:
            spans = _mentions(sent, v)
            if not spans:
                continue
            for ci, cond in enumerate(conds):
                if cond.kind in ("follows", "precedes"):
                    arg = _tokenize(cond.arg)
                    hit = any(
                        (
                            toks[hi + 1 : hi + 1 + len(arg)] == arg
                            if cond.kind == "follows"
                            else toks[max(0, lo - len(arg)) : lo] == arg
                        )
                        for lo, hi in spans
                    )
                    if hit:
                        out[v][ci] = 1.0
                elif cond.kind == "near":
                    occ = _token_occurrences(sent, tuple(_tokenize(cond.arg)))
                    for lo, hi in spans:
                        for s, e in occ:
                            dist = max(0, max(lo - e, s - hi) - 1)
                            out[v][ci] = max(out[v][ci], 1.0 / (1.0 + dist))
                elif cond.kind in ("desc_right", "desc_left"):
                    if clauses is None:
                        clauses = decompose.clauses(sent.heads, sent.labels)
                    conf = max(
                        _descriptor_conf(sent, clauses, sp, cond) for sp in spans
                    )
                    out[v][ci] += conf  # summed over sentences (§4.4.1)
    return out


def score_doc(
    sents: list[Sentence], values: list[str], clause: Satisfying
) -> dict[str, float]:
    """Score ``Σ_i w_i · m_i(e)`` of each value over one document's sentences."""
    conds = list(clause.conds)
    scan_conds = [c for c in conds if c.kind in _SCAN_KINDS]
    ev = (
        _evidence_scores(sents, values, scan_conds)
        if scan_conds
        else {v: [] for v in values}
    )
    scores = {}
    for v in values:
        score = 0.0
        k = 0
        for cond in conds:
            if cond.kind in _SCAN_KINDS:
                m = ev[v][k]
                k += 1
            else:
                m = _string_level(cond, v)
            score += cond.weight * m
        scores[v] = score
    return scores


def score_values(
    tokens: DataFrame, candidates: pd.DataFrame, clause: Satisfying
) -> pd.DataFrame:
    """Score every (doc_id, value) candidate for one satisfying clause.
    ``candidates`` columns: doc_id, value. Returns doc_id, value, score."""
    cand_by_doc: dict[int, list[str]] = {
        int(d): sorted(g["value"].unique())
        for d, g in candidates.groupby("doc_id")
    }
    scoped = tokens.where(F.col("doc_id").isin(list(cand_by_doc))).select(*DECODE_COLS)
    rows = []
    for doc_id, sents in documents(scoped.toPandas()).items():
        scores = score_doc(sents, cand_by_doc[doc_id], clause)
        rows += [(doc_id, v, s) for v, s in scores.items()]
    return pd.DataFrame(rows, columns=["doc_id", "value", "score"])


def excluded(value: str, conds: list[SatCond]) -> bool:
    """Whether any boolean string condition holds of ``value``, read as a
    satisfying clause reads it (``_string_level``)."""
    return any(c.kind in _BOOLEAN_KINDS and _string_level(c, value) for c in conds)


def apply_doc(sents: list[Sentence], rows: list[dict], nq: NormQuery) -> list[dict]:
    """The per-document form of ``apply_clauses``: keep the extraction
    ``rows`` of the document ``sents`` whose value passes every satisfying
    clause's threshold and is not excluded."""
    for clause in nq.query.satisfying:
        values = sorted({r[clause.var] for r in rows} - {None})
        scores = score_doc(sents, values, clause)
        passing = {v for v, s in scores.items() if s >= clause.threshold}
        rows = [r for r in rows if r[clause.var] in passing]
    exc = nq.query.excluding
    if exc is not None:
        rows = [r for r in rows if not excluded(r[exc.var], exc.conds)]
    return rows


def apply_clauses(
    tokens: DataFrame, extractions: pd.DataFrame, nq: NormQuery
) -> pd.DataFrame:
    """Filter extraction rows by every satisfying clause (doc-aggregated
    threshold) and the excluding clause; project to the output tuple.

    ``extractions`` is ``evaluate.evaluate_corpus``'s frame.
    """
    ext = extractions
    out_cols = [v for v, _ in nq.query.outputs]
    for clause in nq.query.satisfying:
        cand = ext[["doc_id", clause.var]].rename(columns={clause.var: "value"})
        cand = cand.dropna().drop_duplicates()
        scores = score_values(tokens, cand, clause)
        passing = scores[scores.score >= clause.threshold][["doc_id", "value"]]
        ext = ext.merge(
            passing.rename(columns={"value": clause.var}),
            on=["doc_id", clause.var],
            how="inner",
        )
    exc = nq.query.excluding
    if exc is not None and not ext.empty:
        mask = ext[exc.var].map(lambda v: not excluded(v, exc.conds))
        ext = ext[mask]
    return ext[["doc_id"] + out_cols].drop_duplicates().reset_index(drop=True)
