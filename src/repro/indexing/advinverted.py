"""ADVINVERTED baseline [7, 20] (§6.2.1):
``P(label, sentence id, token id, left, right, depth, pid)``.

Same label explosion as INVERTED plus structural columns, so path
expressions translate to chained self-joins: child steps join on
``c.pid = p.y``, descendant steps on interval containment + depth. This
is precise (effectiveness ≈ 1) but pays per-step joins over full posting
lists — the cost KOKO's hierarchy indices avoid.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import sidsets
from .inverted import label_rows
from .pathmatch import Step

_COLS = ["x", "y", "left", "right", "depth", "pid"]


def build(tokens: DataFrame) -> DataFrame:
    return label_rows(
        tokens,
        F.col("sid").alias("x"), F.col("tid").alias("y"),
        F.col("sub_lo").alias("left"), F.col("sub_hi").alias("right"),
        "depth", F.col("head").alias("pid"),
    )


def _step_tokens(index: DataFrame, step: Step) -> DataFrame:
    """Tokens satisfying every attribute of one step (self-join per extra
    attribute on the same (x, y))."""
    wanted = step.labels()
    if not wanted:  # wildcard: one row per token via the parse-label copy
        return index.groupBy(*_COLS).agg(F.count("*").alias("_n")).drop("_n")
    out = index.where(F.col("plabel") == wanted[0]).select(*_COLS)
    for w in wanted[1:]:
        other = index.where(F.col("plabel") == w).select(
            F.col("x").alias("x2"), F.col("y").alias("y2")
        )
        out = out.join(
            other, (F.col("x") == F.col("x2")) & (F.col("y") == F.col("y2"))
        ).select(*_COLS)
    return out


def path_matches(index: DataFrame, steps: list[Step]) -> DataFrame:
    """Chained self-joins down the path; returns last-step token rows."""
    cur = _step_tokens(index, steps[0])
    if steps[0].axis == "/":
        cur = cur.where(F.col("depth") == 0)
    for s in steps[1:]:
        nxt = _step_tokens(index, s).select(
            *[F.col(c).alias(f"c_{c}") for c in _COLS]
        )
        if s.axis == "/":
            cond = (F.col("x") == F.col("c_x")) & (F.col("c_pid") == F.col("y"))
        else:
            cond = (
                (F.col("x") == F.col("c_x"))
                & (F.col("left") <= F.col("c_left"))
                & (F.col("right") >= F.col("c_right"))
                & (F.col("c_depth") > F.col("depth"))
            )
        cur = cur.join(nxt, cond).select(
            *[F.col(f"c_{c}").alias(c) for c in _COLS]
        )
    return cur


def candidate_sentences(index: DataFrame, paths: list[list[Step]]) -> DataFrame:
    cand = sidsets.intersect([path_matches(index, steps) for steps in paths])
    return cand if cand is not None else index.select("x").distinct()
