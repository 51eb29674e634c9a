"""End-to-end KOKO query execution with Table-2-style stage timings.

Pipeline (Figure 2): Normalize → DPLI (index lookups, candidate
sentences) → one pass over the candidate articles, ``run_pass`` (the
Odin baseline and the quality figures run it over every sentence).
DPLI's candidate sids are collected to the driver and grouped into a
``(doc_id, cand_sids)`` frame. The pass is one ``mapInPandas`` over the
tokens of every document holding a candidate sentence, each row flagged
``is_cand``, hash-partitioned by ``doc_id`` into ``defaultParallelism``
partitions and sorted by ``(doc_id, sid, tid)`` within each. Per Arrow
batch it decodes the rows once with ``evaluate.sentences`` (LoadArticle)
and splits the sentences by document; per document it evaluates the
extract clause on the candidate sentences with GSP skip plans (GSP +
extract), scores the satisfying values against the same sentences and
applies thresholds and ``excluding`` (satisfying). Each batch yields one
frame with one row per document: the surviving output tuples plus that
document's timers and counts. A batch boundary may cut a document, so
the last document of each batch is carried into the next. The driver
makes one collect and drops duplicate tuples.

Broadcasts: the session's automatic broadcast threshold is off, so every
broadcast is an explicit ``F.broadcast`` on a side that is small by
construction. ``koko_index.build`` broadcasts the PL/POS node tables (one
row per distinct path, >99.7% of tree nodes merged away); DPLI broadcasts
the posting lists of the query's literal words; here the
``(doc_id, cand_sids)`` frame (one row per candidate document, built on
the driver from pandas, so it plans as a local relation) is broadcast
into the token scan, so only candidate articles reach the pass's shuffle.

Timings use the paper's column names. ``Normalize`` and ``DPLI`` are
driver wall times (DPLI is planning the lookups plus the one collect of
the candidate sids); ``LoadArticle`` (the wait for each Arrow batch, its
conversion to pandas and its decode), ``GSP`` (skip-plan generation),
``extract`` (the evaluator loop without plan generation) and
``satisfying`` (scoring, thresholds, excluding) are in-UDF times summed
over partitions; ``extract_wall`` is the wall time of the whole pass,
Spark jobs included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

import numpy as np
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


def _doc_row(sents: list[evaluate.Sentence], cand: set[int], nq: NormQuery) -> dict:
    """One document's decoded sentences → its output tuples, timers and
    counts: the extract clause on its candidate sentences (Alg. 2), then
    satisfying and excluding (§4.4)."""
    rows: list[dict] = []
    gsp_s = eval_s = 0.0
    n_cand = n_sents = 0
    for sent in sents:
        if sent.sid not in cand:
            continue
        r, g, e = evaluate.eval_sentence_timed(sent, nq)
        rows += r
        gsp_s += g
        eval_s += e
        n_cand += 1
        n_sents += bool(r)

    t0 = perf_counter()
    kept = aggregate.apply_doc(sents, rows, nq)
    satisfying_s = perf_counter() - t0
    return {
        "doc_id": sents[0].doc_id,
        "tuples": [{v: r[v] for v, _ in nq.query.outputs} for r in kept],
        "decode_s": 0.0, "gsp_s": gsp_s, "eval_s": eval_s,
        "satisfying_s": satisfying_s,
        "n_cand": n_cand, "n_rows": len(rows), "n_sents": n_sents,
    }


def _batch_pass(
    nq: NormQuery,
) -> Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]]:
    """One partition's Arrow batches of token rows (with ``is_cand``),
    sorted by ``(doc_id, sid, tid)`` → one frame per batch, one row per
    document. A batch boundary may cut a document, so each batch's last
    document is carried into the next batch. LoadArticle covers the wait
    for each batch, its conversion to pandas and its decode; a batch's
    LoadArticle time is booked on its first document."""
    columns = _pass_schema(nq).fieldNames()

    def docs_frame(pdf: pd.DataFrame, load_s: float) -> pd.DataFrame:
        t0 = perf_counter()
        by_doc = evaluate.documents(pdf)
        cand = set(pdf.sid[pdf.is_cand].tolist())
        load_s += perf_counter() - t0
        rows = [_doc_row(sents, cand, nq) for sents in by_doc.values()]
        rows[0]["decode_s"] = load_s
        return pd.DataFrame(rows, columns=columns)

    def run_batches(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        carry = None
        load_s = 0.0
        t0 = perf_counter()
        for pdf in batches:
            if carry is not None:
                pdf = pd.concat([carry, pdf], ignore_index=True)
            if pdf.empty:
                continue
            # The batch's last document may go on in the next batch.
            doc_ids = pdf["doc_id"].to_numpy()
            cut = int(np.searchsorted(doc_ids, doc_ids[-1]))
            carry = pdf.iloc[cut:]
            load_s += perf_counter() - t0
            if cut:
                yield docs_frame(pdf.iloc[:cut], load_s)
                load_s = 0.0
            t0 = perf_counter()
        if carry is not None:
            yield docs_frame(carry, load_s + perf_counter() - t0)

    return run_batches


def run_pass(tokens: DataFrame, nq: NormQuery, cand: list[int] | None) -> RunResult:
    """Everything after DPLI: the pass over the articles holding a
    sentence of ``cand``, or over every sentence when ``cand`` is None."""
    # The candidate articles: every token of a document holding a
    # candidate sentence (the paper loads them from the DBMS into memory).
    # The (doc_id, cand_sids) frame has one row per candidate document, so
    # it is broadcast: only candidate articles' tokens reach the shuffle,
    # and of those only the columns the decoder reads. Built from pandas it
    # plans as a local relation, which is cheaper to broadcast than the RDD
    # a Python list becomes. An explicit partition count keeps AQE from
    # coalescing the pass into one task on small inputs.
    t0 = perf_counter()
    spark = tokens.sparkSession
    cols = evaluate.DECODE_COLS
    if cand is None:
        articles = tokens.select(*cols, F.lit(True).alias("is_cand"))
    else:
        by_doc: dict[int, list[int]] = {}
        for sid in cand:
            by_doc.setdefault(sid // SENTS_PER_DOC, []).append(sid)
        cand_docs = spark.createDataFrame(
            pd.DataFrame({"doc_id": list(by_doc), "cand_sids": list(by_doc.values())}),
            "doc_id long, cand_sids array<long>",
        )
        articles = tokens.join(F.broadcast(cand_docs), "doc_id").select(
            *cols, F.array_contains("cand_sids", F.col("sid")).alias("is_cand")
        )
    docs = (
        articles.repartition(spark.sparkContext.defaultParallelism, "doc_id")
        .sortWithinPartitions("doc_id", "sid", "tid")
        .mapInPandas(_batch_pass(nq), schema=_pass_schema(nq))
        .collect()
    )
    timings = {"extract_wall": perf_counter() - t0}
    n_cand = sum(d.n_cand for d in docs)
    if cand is not None and n_cand != len(cand):
        raise ValueError(
            f"{len(cand) - n_cand} of {len(cand)} candidate sentences are not in "
            f"document sid // SENTS_PER_DOC: sids must be doc_id * {SENTS_PER_DOC} + i"
        )
    for key, col in _TIMERS.items():
        timings[key] = float(sum(d[col] for d in docs))

    out_vars = [v for v, _ in nq.query.outputs]
    results = pd.DataFrame(
        [(d.doc_id, *t) for d in docs for t in d.tuples],
        columns=["doc_id", *out_vars],
    )
    return RunResult(
        results=results.drop_duplicates().reset_index(drop=True),
        timings=timings,
        n_candidate_sentences=n_cand,
        n_extraction_rows=sum(d.n_rows for d in docs),
        n_extracted_sentences=sum(d.n_sents for d in docs),
    )


def run(tokens: DataFrame, index: KokoIndex, query: Query) -> RunResult:
    """Normalize, DPLI's candidate sids, then ``run_pass`` over them."""
    t0 = perf_counter()
    nq = normalize.normalize(query)
    t1 = perf_counter()
    cand = dpli.run(index, nq)
    if cand is not None:
        cand = [r.x for r in cand.collect()]
    t2 = perf_counter()
    res = run_pass(tokens, nq, cand)
    res.timings = {"Normalize": t1 - t0, "DPLI": t2 - t1, **res.timings}
    return res
