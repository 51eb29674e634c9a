"""Synthetic Tree benchmark (§6.2.2).

360 queries with node variables forming paths or tree patterns,
generated from *observed* corpus paths (so selectivity is controllable
and non-trivial): path length 2–5 × attribute types (parse / parse+POS /
parse+POS+text / POS) × wildcard or not × root-anchored or not, 5 random
queries of varying selectivity per setting; plus tree patterns with 3–10
labels, 5 per size. The paper's benchmark is built the same way over its
corpora; ours regenerates deterministically from ``(corpus, seed)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..indexing.pathmatch import Step
from ..koko.ast import NodeDef, Query
from ..nlp.deptree import triple_elems

ATTR_TYPES = ("parse", "parse_pos", "parse_pos_text", "pos")


@dataclass(frozen=True)
class TreeQuery:
    name: str
    defs: tuple[NodeDef, ...]
    setting: dict

    def query(self) -> Query:
        return Query(outputs=[], node_defs=list(self.defs))


def _path_stats(tokens: DataFrame) -> pd.DataFrame:
    """Distinct triple paths with frequencies (driver-side; the hierarchy
    domain is tiny — the same compression the index exploits)."""
    return (
        tokens.groupBy("triple_path").count().toPandas().sort_values("count")
    ).reset_index(drop=True)


def _mk_step(axis: str, elem: tuple[str, str, str], attr: str, with_text: bool) -> Step:
    lab, pos, tok = elem
    if attr == "pos":
        return Step(axis, pos.lower(), "pos")
    conds: list[tuple[str, str]] = []
    if attr in ("parse_pos", "parse_pos_text"):
        conds.append(("pos", pos.lower()))
    if attr == "parse_pos_text" and with_text:
        conds.append(("text", tok))
    return Step(axis, lab, "parse", tuple(conds))


def _pick_spread(pool: pd.DataFrame, n: int, rng: np.random.Generator) -> list[str]:
    """n paths spread over the frequency distribution (selectivity mix)."""
    if len(pool) == 0:
        return []
    qs = np.linspace(0.05, 0.95, n)
    idx = sorted({min(len(pool) - 1, int(q * len(pool)) + int(rng.integers(0, 3))) for q in qs})
    return [pool.iloc[i].triple_path for i in idx]


def path_queries(tokens: DataFrame, *, per_setting: int = 5, seed: int = 0) -> list[TreeQuery]:
    stats = _path_stats(tokens)
    stats["depth"] = stats.triple_path.str.count("/")
    rng = np.random.default_rng(seed)
    out: list[TreeQuery] = []
    for length in (2, 3, 4, 5):
        for attr in ATTR_TYPES:
            for wildcard in (False, True):
                for rooted in (True, False):
                    pool = stats[stats.depth >= length]
                    for k, tp in enumerate(_pick_spread(pool, per_setting, rng)):
                        elems = triple_elems(tp)
                        seg = elems[:length] if rooted else elems[-length:]
                        steps = []
                        for i, e in enumerate(seg):
                            axis = "/" if (i > 0 or rooted) else "//"
                            steps.append(
                                _mk_step(axis, e, attr, with_text=(i == length - 1))
                            )
                        if wildcard and length >= 3:
                            mid = length // 2
                            steps[mid] = Step(steps[mid].axis, "*", "wildcard")
                        name = f"path_L{length}_{attr}_w{int(wildcard)}_r{int(rooted)}_{k}"
                        out.append(
                            TreeQuery(
                                name,
                                (NodeDef("q0", None, steps),),
                                {"length": length, "attr": attr,
                                 "wildcard": wildcard, "rooted": rooted},
                            )
                        )
    return out


def tree_pattern_queries(
    tokens: DataFrame, *, per_size: int = 5, seed: int = 1
) -> list[TreeQuery]:
    """Patterns ``x = <path>``, ``c_i = x/<label>`` with 3–10 total labels."""
    stats = _path_stats(tokens)
    rng = np.random.default_rng(seed)
    # children of each parse-label path prefix
    children: dict[str, set[str]] = {}
    for tp in stats.triple_path:
        elems = triple_elems(tp)
        for i in range(1, len(elems)):
            prefix = "/" + "/".join(l for l, _, _ in elems[:i])
            children.setdefault(prefix, set()).add(elems[i][0])
    parents = sorted(p for p, cs in children.items() if len(cs) >= 2)
    out: list[TreeQuery] = []
    for size in range(3, 11):
        for k in range(per_size):
            p = parents[int(rng.integers(len(parents)))]
            labels = p.strip("/").split("/")
            base_steps = [Step("/" if i else "/", lab, "parse") for i, lab in enumerate(labels)]
            defs = [NodeDef("x", None, base_steps)]
            kids = sorted(children[p])
            n_kids = min(len(kids), max(1, size - len(labels)))
            for j, lab in enumerate(kids[:n_kids]):
                defs.append(NodeDef(f"c{j}", "x", [Step("/", lab, "parse")]))
            out.append(
                TreeQuery(
                    f"tree_S{size}_{k}",
                    tuple(defs),
                    {"size": size, "n_vars": len(defs)},
                )
            )
    return out


def benchmark(tokens: DataFrame, *, seed: int = 0) -> list[TreeQuery]:
    return path_queries(tokens, seed=seed) + tree_pattern_queries(tokens, seed=seed + 1)
