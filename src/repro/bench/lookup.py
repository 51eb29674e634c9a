"""Scheme-agnostic index-lookup harness (Figs. 7/8 analogue).

Runs a SyntheticTree query against each of the four index schemes,
measuring (1) lookup wall time to materialize the candidate-sentence set
and (2) the *index effectiveness score*: |true sentences| / |returned
sentences| (§6.2.2), with ground truth from the full-scan matcher.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from pyspark.sql import DataFrame

from ..indexing import advinverted, inverted, subtree
from ..koko import dpli, fullscan, normalize
from .synthetic_tree import TreeQuery


@dataclass
class LookupResult:
    scheme: str
    query: str
    seconds: float
    n_returned: int
    n_true: int
    effectiveness: float
    supported: bool = True


def run_lookup(
    scheme: str,
    index,
    tokens: DataFrame,
    tq: TreeQuery,
    true_sids: set | None = None,
) -> LookupResult:
    nq = normalize.normalize(tq.query())
    all_paths = list(nq.abs_paths.values())
    try:
        t0 = perf_counter()
        if scheme == "koko":
            cand = dpli.run(index, nq)
        elif scheme == "inverted":
            cand = inverted.candidate_sentences(index, all_paths)
        elif scheme == "advinverted":
            cand = advinverted.candidate_sentences(index, all_paths)
        elif scheme == "subtree":
            cand = subtree.candidate_sentences(index, all_paths)
        else:
            raise ValueError(scheme)
        got = {r.x for r in cand.collect()}
        secs = perf_counter() - t0
    except subtree.Unsupported:
        return LookupResult(scheme, tq.name, 0.0, 0, 0, 0.0, supported=False)
    if true_sids is None:
        true_sids = {r.x for r in fullscan.true_sids(tokens, nq).collect()}
    eff = (len(true_sids & got) / len(got)) if got else 1.0
    return LookupResult(
        scheme, tq.name, secs, len(got), len(true_sids), eff
    )


def ground_truth(tokens: DataFrame, tq: TreeQuery) -> set:
    nq = normalize.normalize(tq.query())
    return {r.x for r in fullscan.true_sids(tokens, nq).collect()}
