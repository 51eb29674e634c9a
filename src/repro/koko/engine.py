"""End-to-end KOKO query execution with Table-2-style stage timings.

Pipeline (Figure 2): Normalize → DPLI (index lookups, candidate
sentences) → LoadArticle (fetch the candidate articles' parsed tokens) →
GSP + extract (per-sentence evaluation with skip plans) → satisfying
(document-level aggregation). Every stage's wall time is recorded under
the paper's column names: ``Normalize, DPLI, LoadArticle, GSP, extract,
satisfying``; GSP/extract are the per-sentence plan/loop times summed
across the corpus (measured inside the evaluation UDF).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..corpus.generator import SENTS_PER_DOC
from ..indexing.koko_index import KokoIndex
from . import aggregate, dpli, evaluate, normalize
from .ast import Query


@dataclass
class RunResult:
    results: pd.DataFrame           # final output tuples (doc_id + outputs)
    timings: dict[str, float] = field(default_factory=dict)
    n_candidate_sentences: int = 0
    n_extraction_rows: int = 0


def run(
    tokens: DataFrame,
    index: KokoIndex,
    query: Query,
    *,
    use_gsp: bool = True,
) -> RunResult:
    timings: dict[str, float] = {}

    t0 = perf_counter()
    nq = normalize.normalize(query)
    timings["Normalize"] = perf_counter() - t0

    t0 = perf_counter()
    dres = dpli.run(index, nq)
    if dres.candidate_sids is not None:
        cand = dres.candidate_sids.cache()
        n_cand = cand.count()
    else:
        cand = None
        n_cand = tokens.select("sid").distinct().count()
    timings["DPLI"] = perf_counter() - t0

    # LoadArticle: pull the full parsed articles containing candidate
    # sentences (the paper loads them from the DBMS into memory).
    t0 = perf_counter()
    if cand is not None:
        cand_docs = (
            cand.select((F.col("x") / SENTS_PER_DOC).cast("long").alias("doc_id"))
            .distinct()
        )
        articles = tokens.join(cand_docs, "doc_id", "left_semi").cache()
    else:
        articles = tokens.cache()
    articles.count()
    timings["LoadArticle"] = perf_counter() - t0

    t0 = perf_counter()
    ext = evaluate.evaluate_corpus(
        articles, nq, candidate_sids=cand, use_gsp=use_gsp, timing=True
    ).cache()
    emitted = evaluate.emitted_vars(nq)
    timing_rows = ext.where(F.col("eval_s").isNotNull())
    agg = timing_rows.agg(
        F.sum("gsp_s").alias("g"), F.sum("eval_s").alias("e")
    ).collect()[0]
    wall = perf_counter() - t0
    timings["GSP"] = float(agg["g"] or 0.0)
    timings["extract"] = float(agg["e"] or 0.0)
    timings["extract_wall"] = wall

    extraction_rows = ext.where(F.col("eval_s").isNull()).select(
        "doc_id", "sid", *emitted
    )

    t0 = perf_counter()
    results = aggregate.apply_clauses(articles, extraction_rows, nq)
    timings["satisfying"] = perf_counter() - t0

    n_rows = int(len(results))
    ext.unpersist()
    articles.unpersist()
    if cand is not None:
        cand.unpersist()
    return RunResult(
        results=results,
        timings=timings,
        n_candidate_sentences=n_cand,
        n_extraction_rows=n_rows,
    )
