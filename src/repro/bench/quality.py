"""Extraction-quality harness (§6.1 / Figs. 3–5 / NELL comparison).

Runs KOKO (threshold sweep, with/without descriptors), IKE, the CRF
perceptron, and NELL-sim on a quality corpus and reports P/R/F1 rows.
KOKO runs the engine's pass (``engine.run_pass``) over every sentence,
with no index: DPLI changes no result, so the figures score the engine.
CRF is trained on 50% of the docs and evaluated on the held-out half
(gold restricted accordingly), as in the paper.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from ..baselines import crf, ike, nell
from ..corpus.cafes import QualityCorpus
from ..koko import engine, normalize, queries
from .metrics import PRF, prf


def koko_predictions(
    tokens: DataFrame, threshold: float, *, target: str = "cafe",
    with_descriptors: bool = True,
) -> pd.DataFrame:
    if target == "cafe":
        q = queries.cafe(threshold, with_descriptors=with_descriptors)
    elif target == "facility":
        q = queries.facility(threshold)
    elif target == "team":
        q = queries.team(threshold)
    else:
        raise ValueError(target)
    res = engine.run_pass(tokens, normalize.normalize(q), None).results
    return res.rename(columns={"x": "entity"})[["doc_id", "entity"]]


def sweep_koko(
    qc: QualityCorpus, thresholds: list[float], *, target: str = "cafe",
    with_descriptors: bool = True,
) -> pd.DataFrame:
    rows = []
    for tau in thresholds:
        pred = koko_predictions(
            qc.tokens, tau, target=target, with_descriptors=with_descriptors
        )
        m = prf(pred, qc.truth)
        rows.append(
            {
                "system": "koko" if with_descriptors else "koko_nodesc",
                "threshold": tau,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
            }
        )
    return pd.DataFrame(rows)


def run_ike(qc: QualityCorpus, *, target: str = "cafe") -> PRF:
    patterns = {
        "cafe": ike.CAFE_PATTERNS,
        "facility": ike.FACILITY_PATTERNS,
        "team": ike.TEAM_PATTERNS,
    }[target]
    pred = ike.extract(qc.tokens, patterns)
    return prf(pred, qc.truth)


def run_crf(qc: QualityCorpus, *, train_frac: float = 0.5, seed: int = 0) -> PRF:
    pdf = qc.tokens.toPandas()
    pred = crf.train_and_predict(pdf, qc.truth, train_frac=train_frac, seed=seed)
    test_docs = crf.held_out_docs(pdf.doc_id.unique(), train_frac, seed)
    return prf(pred, qc.truth[qc.truth.doc_id.isin(test_docs)])


def run_nell(qc: QualityCorpus, *, n_seeds: int = 17, seed: int = 0) -> PRF:
    import numpy as np
    pdf = qc.tokens.toPandas()
    rng = np.random.default_rng(seed)
    names = sorted(qc.truth.entity.unique())
    rng.shuffle(names)
    seeds = names[: min(n_seeds, max(1, len(names) // 3))]
    pred, _patterns = nell.extract(pdf, seeds)
    # NELL is seeded with known instances; exclude the seeds from gold so
    # recall measures *discovery* (as in the paper's deployment).
    gold = qc.truth[~qc.truth.entity.isin(seeds)]
    return prf(pred, gold)
