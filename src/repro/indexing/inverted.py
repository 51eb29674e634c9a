"""INVERTED baseline (§6.2.1): ``P(label, sentence id, token id)``.

Every token contributes three label rows — its word, its POS tag, and its
parse label. A query retrieves the sentences that contain *all* concrete
labels mentioned anywhere in it; hierarchical conditions are ignored
entirely, which is why this baseline's effectiveness is poor (<0.5 in the
paper) and its intermediate results large.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from . import sidsets
from .pathmatch import Step


def label_rows(tokens: DataFrame, *cols: Column | str) -> DataFrame:
    """One row per token and label attribute — its word, POS tag and
    parse label, each as ``plabel`` — carrying the token's ``cols``."""
    return reduce(
        DataFrame.unionByName,
        [tokens.select(F.col(a).alias("plabel"), *cols) for a in ("token", "pos", "label")],
    )


def build(tokens: DataFrame) -> DataFrame:
    return label_rows(tokens, F.col("sid").alias("x"), F.col("tid").alias("y"))


def query_labels(paths: list[list[Step]]) -> list[str]:
    """All concrete labels a query mentions (words / POS / parse labels)."""
    return sorted({lab for steps in paths for s in steps for lab in s.labels()})


def candidate_sentences(index: DataFrame, paths: list[list[Step]]) -> DataFrame:
    """Sentences containing every query label, as the paper's nested-SQL
    formulation evaluates it: one subquery per label, intersected — the
    per-label intermediate results are what makes INVERTED slow."""
    labels = query_labels(paths)
    if not labels:
        return index.select("x").distinct()
    return sidsets.intersect([index.where(F.col("plabel") == lab) for lab in labels])
