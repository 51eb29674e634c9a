"""End-to-end KOKO query execution with Table-2-style stage timings.

Pipeline (Figure 2): Normalize → DPLI (index lookups, candidate
sentences) → one pass over the candidate articles. The pass is a single
``groupBy("doc_id").applyInPandas`` over the tokens of every document
holding a candidate sentence, each row flagged ``is_cand``. Per document it
decodes the article once (LoadArticle), evaluates the extract clause on
its candidate sentences with GSP skip plans (GSP + extract), scores the
satisfying values against the same sentences and applies thresholds and
``excluding`` (satisfying). It returns one row per document: the
surviving output tuples plus that document's timers and counts. The
driver makes one collect and drops duplicate tuples.

Timings use the paper's column names. ``Normalize`` and ``DPLI`` are
driver wall times (DPLI includes materializing the candidate sids);
``LoadArticle`` (decode), ``GSP`` (skip-plan generation), ``extract``
(the evaluator loop without plan generation) and ``satisfying`` (scoring,
thresholds, excluding) are in-UDF times summed over documents;
``extract_wall`` is the wall time of the whole pass, Spark jobs included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..corpus.generator import SENTS_PER_DOC
from ..indexing.koko_index import KokoIndex
from . import aggregate, dpli, evaluate, normalize
from .ast import Query
from .normalize import NormQuery


@dataclass
class RunResult:
    results: pd.DataFrame           # final output tuples (doc_id + outputs)
    timings: dict[str, float] = field(default_factory=dict)
    n_candidate_sentences: int = 0
    n_extraction_rows: int = 0      # extract-clause rows, before satisfying
    n_extracted_sentences: int = 0  # candidate sentences with ≥1 extraction row


# Per-document timers summed into ``RunResult.timings``.
_TIMERS = {"LoadArticle": "decode_s", "GSP": "gsp_s", "extract": "eval_s",
           "satisfying": "satisfying_s"}
_COUNTS = ["n_cand", "n_rows", "n_sents"]


def _pass_schema(nq: NormQuery) -> T.StructType:
    tuple_type = T.StructType(
        [T.StructField(v, T.StringType()) for v, _ in nq.query.outputs]
    )
    return T.StructType(
        [
            T.StructField("doc_id", T.LongType()),
            T.StructField("tuples", T.ArrayType(tuple_type)),
        ]
        + [T.StructField(c, T.DoubleType()) for c in _TIMERS.values()]
        + [T.StructField(c, T.LongType()) for c in _COUNTS]
    )


def _doc_pass(nq: NormQuery, use_gsp: bool) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """One document's tokens (with ``is_cand``) → its output tuples,
    timers and counts, as one row."""
    out_vars = [v for v, _ in nq.query.outputs]

    def run_doc(pdf: pd.DataFrame) -> pd.DataFrame:
        t0 = perf_counter()
        sents = evaluate.sentences(pdf)
        cand = set(pdf.sid[pdf.is_cand].tolist())
        decode_s = perf_counter() - t0

        rows: list[dict] = []
        gsp_s = eval_s = 0.0
        n_sents = 0
        for sent in sents:
            if sent.sid not in cand:
                continue
            r, g, e = evaluate.eval_sentence_timed(sent, nq, use_gsp=use_gsp)
            rows += r
            gsp_s += g
            eval_s += e
            n_sents += bool(r)

        t0 = perf_counter()
        kept = aggregate.apply_doc(sents, rows, nq)
        satisfying_s = perf_counter() - t0
        return pd.DataFrame([{
            "doc_id": sents[0].doc_id,
            "tuples": [{v: r[v] for v in out_vars} for r in kept],
            "decode_s": decode_s, "gsp_s": gsp_s, "eval_s": eval_s,
            "satisfying_s": satisfying_s,
            "n_cand": len(cand), "n_rows": len(rows), "n_sents": n_sents,
        }])

    return run_doc


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
    cand = dres.candidate_sids
    if cand is not None:
        cand = cand.cache()
        cand.count()  # materialize, so DPLI's time is its own
    timings["DPLI"] = perf_counter() - t0

    # The candidate articles: every token of a document holding a
    # candidate sentence (the paper loads them from the DBMS into memory).
    # Joining each doc's candidate sids on doc_id shuffles the tokens once:
    # the join's partitioning already serves the groupBy.
    t0 = perf_counter()
    if cand is None:
        articles = tokens.withColumn("is_cand", F.lit(True))
    else:
        cand_docs = cand.groupBy(
            (F.col("x") / SENTS_PER_DOC).cast("long").alias("doc_id")
        ).agg(F.collect_list("x").alias("cand_sids"))
        articles = tokens.join(cand_docs, "doc_id").select(
            *tokens.columns, F.array_contains("cand_sids", F.col("sid")).alias("is_cand")
        )
    docs = (
        articles.groupBy("doc_id")
        .applyInPandas(_doc_pass(nq, use_gsp), schema=_pass_schema(nq))
        .collect()
    )
    timings["extract_wall"] = perf_counter() - t0
    for key, col in _TIMERS.items():
        timings[key] = float(sum(d[col] for d in docs))
    if cand is not None:
        cand.unpersist()

    out_vars = [v for v, _ in nq.query.outputs]
    results = pd.DataFrame(
        [(d.doc_id, *t) for d in docs for t in d.tuples],
        columns=["doc_id", *out_vars],
    )
    return RunResult(
        results=results.drop_duplicates().reset_index(drop=True),
        timings=timings,
        n_candidate_sentences=sum(d.n_cand for d in docs),
        n_extraction_rows=sum(d.n_rows for d in docs),
        n_extracted_sentences=sum(d.n_sents for d in docs),
    )
