"""IKE baseline [18] (§5, §6.1, Appendix A.1).

IKE matches patterns over single sentences and supports distributional
similarity: ``("serves coffee"~10)`` matches any of the ~10 phrases most
similar to the literal. We execute the Appendix's translated query: each
pattern extracts the NP (entity span) it brackets, results are unioned
into a relation. The two capabilities KOKO has and IKE lacks are
faithfully absent: no evidence aggregation across sentences/mentions
(one pattern hit ⇒ extract) and no excluding clause — the precision gap
of Fig. 3 follows from exactly this.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from ..koko.aggregate import _occurs
from ..koko.evaluate import sentences
from ..nlp import embeddings

# (side, phrase): side 'left' = pattern precedes the NP, 'right' = follows.
CAFE_PATTERNS: list[tuple[str, str, int]] = [
    ("left", "cafe called", 1),     # literal (no ~k)
    ("left", "cafes such as", 1),
    ("right", "sells coffee", 10),
    ("right", "serves coffee", 10),
    ("left", "coffee from", 10),
    ("left", "baristas of", 10),
    ("right", "baristas", 10),
    ("right", "barista champion", 10),
    ("left", "barista champion", 10),
    ("right", "pour-over", 10),
    ("right", "french press", 10),
    ("right", "coffee menu", 10),
    ("left", "coffee menu", 10),
]

FACILITY_PATTERNS: list[tuple[str, str, int]] = [
    ("left", "at", 1),
    ("left", "went to", 10),
    ("left", "go to", 10),
]

TEAM_PATTERNS: list[tuple[str, str, int]] = [
    ("left", "Go", 1),
    ("right", "won", 10),
]


def _expansions(phrase: str, k: int) -> list[tuple[str, ...]]:
    if k <= 1:
        return [tuple(phrase.split())]
    return [tuple(p.split()) for p, _ in embeddings.expand(phrase, k=k)]


def extract(
    tokens: DataFrame, patterns: list[tuple[str, str, int]]
) -> pd.DataFrame:
    """Run all patterns; return distinct (doc_id, entity) predictions."""
    expanded = [(side, _expansions(p, k)) for side, p, k in patterns]
    rows = []
    for sent in sentences(tokens.toPandas()):
        for lo, hi, _etype, text in sent.entities:
            for side, exps in expanded:
                # IKE patterns are (near-)adjacent sequence slots: look at a
                # short window next to the NP, not the whole sentence.
                window = (
                    sent.tokens[max(0, lo - 7) : lo]
                    if side == "left"
                    else sent.tokens[hi + 1 : hi + 8]
                )
                if any(_occurs(x, window) for x in exps):
                    rows.append((sent.doc_id, text))
                    break
    out = pd.DataFrame(rows, columns=["doc_id", "entity"])
    return out.drop_duplicates().reset_index(drop=True)
