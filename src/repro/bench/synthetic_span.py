"""Synthetic Span benchmark (§6.2.3).

Span variables with 1, 3 and 5 atoms (0/1/2 elastic ``^`` atoms to skip),
e.g. ``v = //verb + ^ + /root/xcomp + ^ + "happy"`` — built from observed
corpus paths and tokens so queries have non-trivial selectivity.
100 queries per setting (300 total), deterministic in seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..koko.ast import Query, SpanAtom, SpanDef, Step, elastic, tokens_atom
from ..nlp.deptree import triple_elems


@dataclass(frozen=True)
class SpanQuery:
    name: str
    n_atoms: int
    span: SpanDef

    def query(self) -> Query:
        return Query(outputs=[(self.span.name, "Str")], span_defs=[self.span])


def _samples(tokens: DataFrame) -> tuple[pd.DataFrame, list[str]]:
    paths = tokens.groupBy("triple_path").count().toPandas()
    words = [
        r.token
        for r in tokens.groupBy("token").count().orderBy("count", ascending=False)
        .limit(60).collect()
        if r.token.isalpha()
    ]
    return paths, words


def _path_atom_from(tp: str, rng: np.random.Generator) -> SpanAtom:
    elems = triple_elems(tp)
    mode = int(rng.integers(3))
    lab, pos, tok = elems[-1]
    if mode == 0:  # POS anywhere
        steps = (Step("//", pos.lower(), "pos"),)
    elif mode == 1:  # parse-label path suffix (≤2)
        seg = elems[-min(2, len(elems)):]
        steps = tuple(
            Step("//" if i == 0 else "/", e[0], "parse") for i, e in enumerate(seg)
        )
    else:  # word
        steps = (Step("//", tok, "word"),)
    return SpanAtom("path", steps=steps)


def benchmark(tokens: DataFrame, *, per_setting: int = 100, seed: int = 0) -> list[SpanQuery]:
    paths, words = _samples(tokens)
    rng = np.random.default_rng(seed)
    out: list[SpanQuery] = []
    for n_atoms in (1, 3, 5):
        for k in range(per_setting):
            def pa() -> SpanAtom:
                return _path_atom_from(
                    paths.iloc[int(rng.integers(len(paths)))].triple_path, rng
                )
            if n_atoms == 1:
                atoms = [pa()]
            elif n_atoms == 3:
                atoms = [pa(), elastic(), pa()]
            else:
                tail: SpanAtom = (
                    tokens_atom(words[int(rng.integers(len(words)))])
                    if words and rng.random() < 0.5
                    else pa()
                )
                atoms = [pa(), elastic(), pa(), elastic(), tail]
            out.append(SpanQuery(f"span_{n_atoms}_{k}", n_atoms, SpanDef("v", atoms)))
    return out
