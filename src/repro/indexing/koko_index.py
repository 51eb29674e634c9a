"""KOKO's multi-index (§3): word + entity inverted indices, PL/POS
hierarchy indices.

All four are Spark DataFrames derived from the token table:

- ``word``:   ``W(word, x, y, u, v, d, pl_id, pos_id)`` — the paper's
  quintuple ``(x, y, u-v, d)`` plus hierarchy-node ids (§6.2.1 schema).
- ``entity``: ``E(entity, x, u, v, etype)``.
- ``pl_nodes`` / ``pos_nodes``: the hierarchy indices. Merging identical
  dependency-tree nodes ≡ grouping tokens by their root-to-node path
  string, so a node *is* a distinct path; ``id`` is a dense rank over
  paths (tiny domain — the paper reports >99.7% node reduction, which
  ``compression_stats`` verifies). Posting lists are recovered by joining
  ``W`` on ``pl_id``/``pos_id``; ``closure`` materializes the
  Closure-Table representation the paper stores in PostgreSQL.

A path lookup filters the node table with the regex from
``pathmatch.label_path_regex`` and joins ``W`` — direct access to all
matching tokens without posting-list self-joins (the paper's speed
argument for hierarchy indices).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from ..corpus.generator import entities_of


@dataclass
class KokoIndex:
    word: DataFrame
    entity: DataFrame
    pl_nodes: DataFrame   # id, path, label, depth
    pos_nodes: DataFrame  # id, path, label, depth
    _local: dict = field(default_factory=dict, compare=False)

    def local_nodes(self, attr: str):
        """Driver-side (id, path) pandas copy of a hierarchy index.

        The hierarchy indices are tiny by construction (>99.7% of tree
        nodes merged away, §3) — the paper's "fast searching" means path
        matching happens on this compact structure, not via a distributed
        scan. Cached on first use.
        """
        if attr not in self._local:
            nodes = self.pl_nodes if attr == "parse" else self.pos_nodes
            self._local[attr] = nodes.select("id", "path").toPandas()
        return self._local[attr]

    def frames(self) -> dict[str, DataFrame]:
        return {
            "word": self.word,
            "entity": self.entity,
            "pl_nodes": self.pl_nodes,
            "pos_nodes": self.pos_nodes,
        }

    def cache(self) -> "KokoIndex":
        for df in self.frames().values():
            df.cache().count()
        return self


def _node_table(tokens: DataFrame, path_col: str) -> DataFrame:
    paths = tokens.select(F.col(path_col).alias("path")).distinct()
    w = Window.orderBy("path")
    return paths.select(
        F.dense_rank().over(w).alias("id"),
        "path",
        F.element_at(F.split("path", "/"), -1).alias("label"),
        (F.size(F.split("path", "/")) - 2).alias("depth"),
    )


def build(tokens: DataFrame) -> KokoIndex:
    """Construct all four indices from the token table.

    The node tables hold one row per distinct path (>99.7% of tree nodes
    merged away), so they are broadcast into ``W``'s joins: ``W`` is built
    without a shuffle and keeps the token table's partitioning.
    """
    pl_nodes = _node_table(tokens, "pl_path")
    pos_nodes = _node_table(tokens, "pos_path")
    pl_ids = pl_nodes.select(F.col("id").alias("pl_id"), F.col("path").alias("pl_path"))
    pos_ids = pos_nodes.select(F.col("id").alias("pos_id"), F.col("path").alias("pos_path"))
    word = (
        tokens.join(F.broadcast(pl_ids), "pl_path")
        .join(F.broadcast(pos_ids), "pos_path")
        .select(
            F.col("token").alias("word"),
            F.col("sid").alias("x"),
            F.col("tid").alias("y"),
            F.col("sub_lo").alias("u"),
            F.col("sub_hi").alias("v"),
            F.col("depth").alias("d"),
            "pl_id",
            "pos_id",
        )
    )
    entity = entities_of(tokens).select(
        "entity", F.col("sid").alias("x"), F.col("lo").alias("u"),
        F.col("hi").alias("v"), "etype",
    )
    return KokoIndex(word=word, entity=entity, pl_nodes=pl_nodes, pos_nodes=pos_nodes)


def closure(nodes: DataFrame) -> DataFrame:
    """Closure table ``(id, label, depth, aid, alabel, adepth)`` — every
    node joined with each of its ancestors (self included), as stored in
    the paper's PostgreSQL schema (§6.2.1)."""
    a = nodes.select(
        F.col("id").alias("aid"), F.col("path").alias("apath"),
        F.col("label").alias("alabel"), F.col("depth").alias("adepth"),
    )
    return (
        nodes.crossJoin(a)
        .where(
            (F.col("path") == F.col("apath"))
            | F.col("path").startswith(F.concat(F.col("apath"), F.lit("/")))
        )
        .select("id", "label", "depth", "aid", "alabel", "adepth")
    )


def lookup_word(index: KokoIndex, word: str) -> DataFrame:
    return index.word.where(F.col("word") == word).select("x", "y", "u", "v", "d")


def compression_stats(tokens: DataFrame, index: KokoIndex) -> dict[str, float]:
    """§3's hierarchy-compression claim: fraction of dependency-tree nodes
    eliminated by merging (paper: >99.7% for both PL and POS)."""
    n_tokens = tokens.count()
    return {
        "n_tree_nodes": float(n_tokens),
        "pl_nodes": float(index.pl_nodes.count()),
        "pos_nodes": float(index.pos_nodes.count()),
        "pl_reduction": 1.0 - index.pl_nodes.count() / n_tokens,
        "pos_reduction": 1.0 - index.pos_nodes.count() / n_tokens,
    }
