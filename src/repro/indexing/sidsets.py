"""Intersection of candidate-sentence sets, shared by every index scheme.

Each scheme turns a query into several sid sets (one per path, label or
entity variable) and keeps the sentences present in all of them; one
implementation means the Fig. 7/8 comparison measures the index
structures, not the intersection code.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def intersect(sid_sets: list[DataFrame]) -> DataFrame | None:
    """Distinct ``x`` values present in every frame's ``x`` column, or
    None when there are no frames (nothing constrains the sentences).

    One aggregation over the tagged union: each frame's rows carry the
    frame's position ``k``, and a sid survives when it was seen under all
    ``len(sid_sets)`` tags. A set of tags, not a bitmask, so any number of
    frames works; the frames need not be distinct.
    """
    if not sid_sets:
        return None
    tagged = reduce(
        DataFrame.unionAll,
        [s.select("x", F.lit(k).alias("k")) for k, s in enumerate(sid_sets)],
    )
    return (
        tagged.groupBy("x")
        .agg(F.size(F.collect_set("k")).alias("n"))
        .where(F.col("n") == len(sid_sets))
        .select("x")
    )
