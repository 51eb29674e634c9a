"""INVERTED baseline (§6.2.1): ``P(label, sentence id, token id)``.

Every token contributes three label rows — its word, its POS tag, and its
parse label. A query retrieves the sentences that contain *all* concrete
labels mentioned anywhere in it; hierarchical conditions are ignored
entirely, which is why this baseline's effectiveness is poor (<0.5 in the
paper) and its intermediate results large.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import sidsets
from .pathmatch import Step


def build(tokens: DataFrame) -> DataFrame:
    base = tokens.select("sid", "tid", "token", "pos", "label")
    parts = [
        base.select(F.col("token").alias("plabel"), F.col("sid").alias("x"), F.col("tid").alias("y")),
        base.select(F.col("pos").alias("plabel"), F.col("sid").alias("x"), F.col("tid").alias("y")),
        base.select(F.col("label").alias("plabel"), F.col("sid").alias("x"), F.col("tid").alias("y")),
    ]
    out = parts[0]
    for p in parts[1:]:
        out = out.unionByName(p)
    return out


def query_labels(paths: list[list[Step]]) -> list[str]:
    """All concrete labels a query mentions (words / POS / parse labels)."""
    labels: list[str] = []
    for steps in paths:
        for s in steps:
            if s.kind == "word":
                labels.append(s.label)
            elif s.kind == "pos":
                labels.append(s.label.upper())
            elif s.kind == "parse":
                labels.append(s.label)
            if s.cond("text"):
                labels.append(s.cond("text"))
            if s.cond("pos"):
                labels.append(s.cond("pos").upper())
    return sorted(set(labels))


def candidate_sentences(index: DataFrame, paths: list[list[Step]]) -> DataFrame:
    """Sentences containing every query label, as the paper's nested-SQL
    formulation evaluates it: one subquery per label, intersected — the
    per-label intermediate results are what makes INVERTED slow."""
    labels = query_labels(paths)
    if not labels:
        return index.select("x").distinct()
    return sidsets.intersect([index.where(F.col("plabel") == lab) for lab in labels])
