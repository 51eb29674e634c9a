"""Exact full-scan matcher — the reference KOKO's index lookups are
measured against.

Matches every node variable *exactly*: all per-step conditions at once,
through the combined ``triple_path`` regex that ``pathmatch`` builds from
each step's ``parse``, ``pos`` and ``word`` projections, and the last
step's ``etype`` through ``generator.has_etype``, the rule DPLI reads
(``Entity`` means any type). It enforces consistency between variables
(a child variable's witness must hang off one of its base variable's
witnesses) with DataFrame semijoins, bottom-up over the variable tree.
Used for the *index effectiveness score* (§6.2.2: true sentences ÷
sentences the index returns) and as the completeness oracle
in DPLI tests. Not part of the KOKO engine's fast path.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..corpus.generator import has_etype
from ..indexing import pathmatch
from ..indexing.pathmatch import Step
from .normalize import NormQuery


def var_matches(tokens: DataFrame, steps: list[Step]) -> DataFrame:
    """Tokens whose full root-to-node path satisfies the absolute path."""
    rx = pathmatch.triple_path_regex(steps)
    out = tokens.where(F.col("triple_path").rlike(rx))
    etype = steps[-1].cond("etype") if steps else None
    if etype:
        out = out.where(has_etype(etype))
    return out.select(
        F.col("sid").alias("x"), F.col("tid").alias("y"),
        F.col("sub_lo").alias("u"), F.col("sub_hi").alias("v"),
        F.col("depth").alias("d"),
    )


def consistent_matches(tokens: DataFrame, nq: NormQuery) -> dict[str, DataFrame]:
    """Per-variable witnesses that extend to a full consistent assignment
    of all descendant variables (bottom-up semijoin pruning)."""
    defs = {d.name: d for d in nq.query.node_defs}
    children: dict[str, list[str]] = {}
    for d in nq.query.node_defs:
        if d.base is not None:
            children.setdefault(d.base, []).append(d.name)

    surviving: dict[str, DataFrame] = {}

    def solve(name: str) -> DataFrame:
        if name in surviving:
            return surviving[name]
        m = var_matches(tokens, nq.abs_paths[name])
        for c in children.get(name, []):
            cm = solve(c)
            rel = defs[c].steps
            g, exact = len(rel), all(s.axis == "/" for s in rel)
            depth_cond = (
                (F.col("cd") == F.col("d") + g) if exact else (F.col("cd") >= F.col("d") + g)
            )
            csel = cm.select(
                F.col("x").alias("cx"), F.col("u").alias("cu"),
                F.col("v").alias("cv"), F.col("d").alias("cd"),
            )
            m = m.join(
                csel,
                (F.col("x") == F.col("cx"))
                & (F.col("u") <= F.col("cu"))
                & (F.col("v") >= F.col("cv"))
                & depth_cond,
                "left_semi",
            )
        surviving[name] = m
        return m

    for name in nq.abs_paths:
        solve(name)
    for name, steps in nq.anon_paths.items():
        surviving[name] = var_matches(tokens, steps)
    return surviving


def true_sids(tokens: DataFrame, nq: NormQuery) -> DataFrame:
    """Sentences admitting a consistent assignment for every node variable
    (the ground truth for index effectiveness)."""
    surviving = consistent_matches(tokens, nq)
    roots = [d.name for d in nq.query.node_defs if d.base is None] + list(nq.anon_paths)
    cand: DataFrame | None = None
    for r in roots:
        s = surviving[r].select("x").distinct()
        cand = s if cand is None else cand.join(s, "x")
    if cand is None:
        cand = tokens.select(F.col("sid").alias("x")).distinct()
    return cand
