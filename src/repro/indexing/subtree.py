"""SUBTREE baseline — Chubak & Rafiei [14] (§6.2.1), mss = 3, root-split.

Index keys are serialized subtrees of size ≤ 3 of every sentence's
dependency tree: single nodes ``a``, parent-child chains ``a/b``,
grandparent chains ``a/b/c``, and sibling pairs ``a/(b,c)`` (children
label-sorted). Because the scheme was designed for constituency trees
with a single label alphabet, two indices are built — one over parse
labels, one over POS tags (as in the paper's adaptation).

Postings are root-split: ``(x, y, left, right, depth)`` of the subtree
*root* only. Query paths are decomposed into chains of ≤ 3 steps (also
broken at ``//`` and at attribute changes); consecutive chunk roots are
joined on containment + relative depth of the *previous chunk's root* —
the paper's noted effectiveness loss (joined roots need not lie on one
branch) is inherent to this. Wildcards and word attributes are
unsupported (``Unsupported`` is raised), matching the paper's 125/350
benchmark coverage.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import sidsets
from .pathmatch import Step

MSS = 3


class Unsupported(Exception):
    """Query not expressible with the SUBTREE index (wildcards / words)."""


@dataclass
class SubtreeIndex:
    parse: DataFrame  # key, x, y, left, right, depth
    pos: DataFrame

    def frames(self) -> dict[str, DataFrame]:
        return {"parse": self.parse, "pos": self.pos}

    def cache(self) -> "SubtreeIndex":
        for df in self.frames().values():
            df.cache().count()
        return self


def _keys_for(tokens: DataFrame, label_col: str) -> DataFrame:
    t = tokens.select(
        F.col("sid").alias("x"), F.col("tid").alias("y"),
        F.col(label_col).alias("lab"),
        F.col("sub_lo").alias("left"), F.col("sub_hi").alias("right"),
        "depth", F.col("head").alias("pid"),
    )
    posting = ["x", "y", "left", "right", "depth"]
    singles = t.select(F.col("lab").alias("key"), *posting)
    c = t.select(*[F.col(col).alias(f"c_{col}" if col != "lab" else "c_lab") for col in t.columns])
    pairs = t.join(
        c, (F.col("x") == F.col("c_x")) & (F.col("c_pid") == F.col("y"))
    )
    chain2 = pairs.select(
        F.concat_ws("/", "lab", "c_lab").alias("key"), *posting
    )
    # grandparent chains: join pairs with another child level
    g = t.select(*[F.col(col).alias(f"g_{col}" if col != "lab" else "g_lab") for col in t.columns])
    chain3 = (
        pairs.join(g, (F.col("x") == F.col("g_x")) & (F.col("g_pid") == F.col("c_y")))
        .select(F.concat_ws("/", "lab", "c_lab", "g_lab").alias("key"), *posting)
    )
    # sibling pairs under one parent, children label-sorted
    c2 = t.select(
        F.col("x").alias("s_x"), F.col("y").alias("s_y"),
        F.col("lab").alias("s_lab"), F.col("pid").alias("s_pid"),
    )
    sib = (
        pairs.join(
            c2,
            (F.col("x") == F.col("s_x"))
            & (F.col("s_pid") == F.col("y"))
            & (F.col("c_y") < F.col("s_y")),
        )
        .select(
            F.concat(
                F.col("lab"), F.lit("/("),
                F.array_join(F.array_sort(F.array("c_lab", "s_lab")), ","),
                F.lit(")"),
            ).alias("key"),
            *posting,
        )
    )
    return singles.unionByName(chain2).unionByName(chain3).unionByName(sib)


def build(tokens: DataFrame) -> SubtreeIndex:
    return SubtreeIndex(
        parse=_keys_for(tokens, "label"), pos=_keys_for(tokens, "pos")
    )


def _attr_of(step: Step) -> tuple[str, str]:
    if not step.conds:
        if step.parse is not None:
            return "parse", step.parse
        if step.pos is not None:
            return "pos", step.pos
    raise Unsupported(f"step {step.axis}{step.label} not indexable (mss/root-split)")


def decompose(steps: list[Step]) -> list[tuple[str, list[str], str, int]]:
    """→ chunks ``(attr, labels, axis_into_chunk, depth_offset_into_chunk)``.

    Chunks break at ``//`` boundaries, attribute changes, and MSS size.
    ``depth_offset`` is the number of steps from the previous chunk's
    root to this chunk's root (used in the root-join condition).
    """
    chunks = []
    cur_attr, cur_labels, cur_axis = None, [], "/"
    offset = 0
    for s in steps:
        attr, lab = _attr_of(s)
        boundary = (
            cur_attr is None
            or attr != cur_attr
            or s.axis == "//"
            or len(cur_labels) >= MSS
        )
        if boundary and cur_labels:
            chunks.append((cur_attr, cur_labels, cur_axis, offset))
            offset = len(cur_labels)
            cur_labels, cur_axis = [], s.axis
        if cur_attr is None:
            cur_axis = s.axis
        cur_attr = attr
        cur_labels.append(lab)
    chunks.append((cur_attr, cur_labels, cur_axis, offset))
    return chunks


def path_root_matches(index: SubtreeIndex, steps: list[Step]) -> DataFrame:
    """Join decomposed chunk roots; returns final chunk's root postings."""
    chunks = decompose(steps)
    cur: DataFrame | None = None
    root_anchored = steps[0].axis == "/"
    for attr, labels, axis, offset in chunks:
        frame = index.parse if attr == "parse" else index.pos
        hits = frame.where(F.col("key") == "/".join(labels)).select(
            "x", "y", "left", "right", "depth"
        )
        if cur is None:
            cur = hits.where(F.col("depth") == 0) if root_anchored else hits
            continue
        nxt = hits.select(
            *[F.col(c).alias(f"n_{c}") for c in ("x", "y", "left", "right", "depth")]
        )
        depth_cond = (
            (F.col("n_depth") >= F.col("depth") + offset)
            if axis == "//"
            else (F.col("n_depth") == F.col("depth") + offset)
        )
        cur = cur.join(
            nxt,
            (F.col("x") == F.col("n_x"))
            & (F.col("left") <= F.col("n_left"))
            & (F.col("right") >= F.col("n_right"))
            & depth_cond,
        ).select(*[F.col(f"n_{c}").alias(c) for c in ("x", "y", "left", "right", "depth")])
    return cur


def candidate_sentences(index: SubtreeIndex, paths: list[list[Step]]) -> DataFrame:
    cand = sidsets.intersect([path_root_matches(index, steps) for steps in paths])
    assert cand is not None
    return cand
