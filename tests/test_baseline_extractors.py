"""Baseline extractors: IKE, CRF perceptron, NELL-sim, Odin-sim."""
import json
from pathlib import Path

import pandas as pd
import pytest

from repro.baselines import crf, ike, nell, odin
from repro.corpus import cafes, generator
from repro.koko import queries


@pytest.fixture(scope="module")
def cafe_qc(spark):
    qc = cafes.cafe_corpus(spark, 120, style="barista", seed=3)
    qc.tokens.cache().count()
    return qc


PINNED_PREDICTIONS = Path(__file__).parent / "data" / "baseline_predictions.json"


def baseline_predictions(qc):
    """IKE with ``CAFE_PATTERNS``, CRF with ``train_frac=0.5, epochs=4`` and
    NELL seeded with the first third of the sorted gold names, on ``qc``:
    predictions as sorted ``[doc_id, entity]`` rows, NELL's promoted
    patterns as ``[prev, next]`` and its mention contexts as sorted
    ``[doc_id, entity, prev, next]`` rows."""
    def rows(pred):
        return sorted([int(d), e] for d, e in zip(pred.doc_id, pred.entity))

    pdf = qc.tokens.toPandas()
    names = sorted(qc.truth.entity.unique())
    nell_pred, patterns = nell.extract(pdf, names[: len(names) // 3])
    return {
        "ike": rows(ike.extract(qc.tokens, ike.CAFE_PATTERNS)),
        "crf": rows(crf.train_and_predict(pdf, qc.truth, train_frac=0.5, epochs=4)),
        "nell": rows(nell_pred),
        "nell_patterns": [list(p) for p in patterns],
        "nell_contexts": sorted(
            [int(r.doc_id), r.entity, r.prev, r.next]
            for r in nell._mention_contexts(pdf).itertuples()
        ),
    }


class TestPinnedPredictions:
    def test_baselines_unchanged(self, cafe_qc):
        """The three driver-side baselines' output on ``cafe_qc`` equals the
        recorded ``tests/data/baseline_predictions.json``."""
        expected = json.loads(PINNED_PREDICTIONS.read_text())
        assert baseline_predictions(cafe_qc) == expected


class TestIKE:
    def test_extracts_evidence_bearing_cafes(self, cafe_qc):
        pred = ike.extract(cafe_qc.tokens, ike.CAFE_PATTERNS)
        gold = {(int(r.doc_id), r.entity) for _, r in cafe_qc.truth.iterrows()}
        hits = {(int(r.doc_id), r.entity) for _, r in pred.iterrows()}
        assert len(hits & gold) > 0

    def test_no_excluding_hurts_precision(self, cafe_qc):
        """IKE extracts cities near coffee evidence (it has no excluding
        clause) — at least some predictions are not gold."""
        pred = ike.extract(cafe_qc.tokens, ike.CAFE_PATTERNS)
        gold_names = set(cafe_qc.truth.entity)
        assert any(e not in gold_names for e in pred.entity)

    def test_expansions_literal_for_k1(self):
        assert ike._expansions("cafe called", 1) == [("cafe", "called")]

    def test_expansions_include_paraphrases(self):
        exps = ike._expansions("serves coffee", 10)
        assert ("serves", "coffee") in exps
        assert len(exps) == 10


class TestCRF:
    def test_learns_giveaway_names(self, cafe_qc):
        pdf = cafe_qc.tokens.toPandas()
        pred = crf.train_and_predict(pdf, cafe_qc.truth, train_frac=0.5, epochs=4)
        assert len(pred) > 0

    def test_features_shape(self):
        f = crf.features(["Blue", "Cafe", "opened"], 1)
        assert "w=Cafe" in f and "cap" in f and "pre3=Caf" in f

    def test_viterbi_legal_sequences(self):
        m = crf.PerceptronCRF()
        feats = [["w=a"], ["w=b"], ["w=c"]]
        tags = m.viterbi(feats)
        # I never follows O or starts
        prev = "O"
        for t in tags:
            assert not (t == "I" and prev == "O")
            prev = t

    def test_more_data_not_worse(self, cafe_qc):
        """Sanity: training signal exists (10% vs 70% training data)."""
        from repro.bench.metrics import prf
        pdf = cafe_qc.tokens.toPandas()
        def f1_at(frac):
            pred = crf.train_and_predict(pdf, cafe_qc.truth, train_frac=frac, epochs=4)
            test = crf.held_out_docs(pdf.doc_id.unique(), frac, 0)
            return prf(pred, cafe_qc.truth[cafe_qc.truth.doc_id.isin(test)]).f1
        assert f1_at(0.7) >= f1_at(0.1) - 0.15


class TestNELL:
    def test_high_precision_low_recall(self, cafe_qc):
        from repro.bench.metrics import prf
        pdf = cafe_qc.tokens.toPandas()
        names = sorted(cafe_qc.truth.entity.unique())
        seeds = names[: len(names) // 3]
        pred, patterns = nell.extract(pdf, seeds)
        gold = cafe_qc.truth[~cafe_qc.truth.entity.isin(seeds)]
        m = prf(pred, gold)
        # The paper's observation: recall collapses on rare entities.
        assert m.recall < 0.5

    def test_no_seeds_no_output(self, cafe_qc):
        pdf = cafe_qc.tokens.toPandas()
        pred, patterns = nell.extract(pdf, [])
        assert len(pred) == 0

    def test_contexts(self, cafe_qc):
        ctx = nell._mention_contexts(cafe_qc.tokens.toPandas())
        assert {"doc_id", "entity", "prev", "next"} <= set(ctx.columns)
        assert len(ctx) > 0


class TestOdin:
    def test_translate_drops_aggregation(self):
        q = queries.chocolate()
        t = odin.translate(q)
        assert t.satisfying == [] and t.excluding is None

    def test_runs_and_superset_of_koko(self, spark):
        """Without the satisfying filter Odin returns ⊇ KOKO's results for
        the Chocolate query's extract clause."""
        from repro.indexing import koko_index
        from repro.koko import engine
        tokens = generator.wiki_corpus(spark, 60, seed=2).cache()
        tokens.count()
        index = koko_index.build(tokens).cache()
        q = queries.chocolate()
        res_o = odin.run(tokens, q)
        res_k = engine.run(tokens, index, q)
        o = {(r.doc_id, r.c) for _, r in res_o.results.iterrows()}
        k = {(r.doc_id, r.c) for _, r in res_k.results.iterrows()}
        assert k <= o
        assert res_o.seconds > 0
