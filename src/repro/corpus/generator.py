"""Distributed synthetic parsed-corpus generation.

``wiki_corpus`` / ``happy_corpus`` return a **token table** — one row per
token with full dependency-tree metadata — generated distributively with
``spark.range(n_docs)`` → ``mapInPandas`` and a per-document seeded RNG, so
the same ``(n_docs, seed)`` always yields the same corpus on any number of
partitions.

Schema (see DESIGN.md §5): ``doc_id, sid, tid, token, pos, label, head,
depth, sub_lo, sub_hi, pl_path, pos_path, triple_path, etype, ent_lo,
ent_hi, ent_text``. ``sid`` is globally unique
(``doc_id * SENTS_PER_DOC + i``, at most ``SENTS_PER_DOC`` sentences a doc).
Entity columns are null for tokens outside any entity span;
``entities_of`` projects the entity table out of the token table.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..nlp import deptree
from .templates import HAPPY_MIXTURE, POOLS, WIKI_MIXTURE, Template

SENTS_PER_DOC = 1000  # sid = doc_id * SENTS_PER_DOC + sentence index

TOKEN_SCHEMA = T.StructType(
    [
        T.StructField("doc_id", T.LongType(), False),
        T.StructField("sid", T.LongType(), False),
        T.StructField("tid", T.IntegerType(), False),
        T.StructField("token", T.StringType(), False),
        T.StructField("pos", T.StringType(), False),
        T.StructField("label", T.StringType(), False),
        T.StructField("head", T.IntegerType(), False),
        T.StructField("depth", T.IntegerType(), False),
        T.StructField("sub_lo", T.IntegerType(), False),
        T.StructField("sub_hi", T.IntegerType(), False),
        T.StructField("pl_path", T.StringType(), False),
        T.StructField("pos_path", T.StringType(), False),
        T.StructField("triple_path", T.StringType(), False),
        T.StructField("etype", T.StringType(), True),
        T.StructField("ent_lo", T.IntegerType(), True),
        T.StructField("ent_hi", T.IntegerType(), True),
        T.StructField("ent_text", T.StringType(), True),
    ]
)


def resolve_template(
    tpl: Template, rng: np.random.Generator, doc_id: int, sent_idx: int
) -> list[dict]:
    """Fill a template's slots and compute all tree metadata → row dicts."""
    if sent_idx >= SENTS_PER_DOC:
        raise ValueError(
            f"sentence {sent_idx} of doc {doc_id}: at most {SENTS_PER_DOC} per doc"
        )
    words = [
        POOLS[t.word][int(rng.integers(len(POOLS[t.word])))] if t.word.startswith("$") else t.word
        for t in tpl.tokens
    ]
    heads = [t.head for t in tpl.tokens]
    labels = [t.label for t in tpl.tokens]
    pos = [t.pos for t in tpl.tokens]
    dep = deptree.depths(heads)
    spans = deptree.subtree_spans(heads)
    pl = deptree.label_paths(heads, labels)
    pp = deptree.label_paths(heads, pos)
    tp = deptree.triple_paths(heads, labels, pos, words)
    ent_at: dict[int, tuple[int, int, str, str]] = {}
    for lo, hi, etype in tpl.entities:
        text = " ".join(words[lo : hi + 1])
        for i in range(lo, hi + 1):
            ent_at[i] = (lo, hi, etype, text)
    sid = doc_id * SENTS_PER_DOC + sent_idx
    rows = []
    for i in range(len(words)):
        lo, hi, etype, text = ent_at.get(i, (None, None, None, None))
        rows.append(
            {
                "doc_id": doc_id,
                "sid": sid,
                "tid": i,
                "token": words[i],
                "pos": pos[i],
                "label": labels[i],
                "head": heads[i],
                "depth": dep[i],
                "sub_lo": spans[i][0],
                "sub_hi": spans[i][1],
                "pl_path": pl[i],
                "pos_path": pp[i],
                "triple_path": tp[i],
                "etype": etype,
                "ent_lo": lo,
                "ent_hi": hi,
                "ent_text": text,
            }
        )
    return rows


def _doc_rows(
    doc_id: int,
    mixture: list[tuple[Template, float]],
    seed: int,
    sent_range: tuple[int, int],
) -> list[dict]:
    rng = np.random.default_rng([seed, doc_id])
    lo, hi = sent_range
    n_sents = int(rng.integers(lo, hi + 1))
    probs = np.array([p for _, p in mixture])
    probs = probs / probs.sum()
    rows: list[dict] = []
    for s in range(n_sents):
        tpl = mixture[int(rng.choice(len(mixture), p=probs))][0]
        rows.extend(resolve_template(tpl, rng, doc_id, s))
    return rows


def _corpus(
    spark: SparkSession,
    n_docs: int,
    mixture: list[tuple[Template, float]],
    seed: int,
    sent_range: tuple[int, int],
) -> DataFrame:
    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            rows: list[dict] = []
            for doc_id in pdf["id"]:
                rows.extend(_doc_rows(int(doc_id), mixture, seed, sent_range))
            yield pd.DataFrame(rows, columns=[f.name for f in TOKEN_SCHEMA.fields])

    n_parts = max(1, min(64, n_docs // 64 or 1))
    return (
        spark.range(n_docs)
        .repartition(n_parts)
        .mapInPandas(gen, schema=TOKEN_SCHEMA)
    )


def wiki_corpus(
    spark: SparkSession, n_articles: int, *, seed: int = 0,
    sent_range: tuple[int, int] = (4, 10),
) -> DataFrame:
    """Wikipedia-article substitute: multi-sentence docs, §6.3 mixture."""
    return _corpus(spark, n_articles, WIKI_MIXTURE, seed, sent_range)


def happy_corpus(spark: SparkSession, n_docs: int, *, seed: int = 17) -> DataFrame:
    """HappyDB substitute: one short sentence per document."""
    return _corpus(spark, n_docs, HAPPY_MIXTURE, seed, (1, 1))


def entities_of(tokens: DataFrame) -> DataFrame:
    """Entity table (one row per entity mention) from the token table."""
    return (
        tokens.where(F.col("etype").isNotNull() & (F.col("tid") == F.col("ent_lo")))
        .select(
            "doc_id",
            "sid",
            F.col("ent_text").alias("entity"),
            F.col("ent_lo").alias("lo"),
            F.col("ent_hi").alias("hi"),
            "etype",
        )
    )
