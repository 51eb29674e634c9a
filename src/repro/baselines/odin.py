"""Odin baseline [44] (§6.3).

Odin is a CPSL-style rule engine with no indices: every rule is matched
against every sentence (iterating until no new matches; with priorities
supplied, one prioritized pass). We translate KOKO queries by dropping
the satisfying clause (Odin cannot aggregate evidence) and run the
engine's own pass (``engine.run_pass``) over the **entire** corpus, so
the comparison measures DPLI pruning, not plumbing — exactly where the
paper's 40×/23×/1.3× slowdowns come from: the more selective the query,
the more KOKO's indices skip and the larger Odin's relative cost.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

import pandas as pd
from pyspark.sql import DataFrame

from ..koko import engine, normalize
from ..koko.ast import Query


@dataclass
class OdinResult:
    results: pd.DataFrame
    seconds: float
    n_sentences: int  # sentences evaluated: every sentence of the corpus


def translate(query: Query) -> Query:
    """Odin's version of a KOKO query: extract clause only."""
    return replace(query, satisfying=[], excluding=None)


def run(tokens: DataFrame, query: Query) -> OdinResult:
    nq = normalize.normalize(translate(query))
    t0 = perf_counter()
    rr = engine.run_pass(tokens, nq, None)
    return OdinResult(rr.results, perf_counter() - t0, rr.n_candidate_sentences)
