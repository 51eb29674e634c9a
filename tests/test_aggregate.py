"""Aggregation (§4.4) tests: Example 2.2 similarTo discrimination, the
evidence condition kinds, descriptor confidence formula, excluding."""
import json
from pathlib import Path

import pandas as pd
import pytest

from repro.corpus import fixtures
from repro.koko import aggregate, evaluate, normalize, queries
from repro.koko.ast import Excluding, SatCond, Satisfying


class TestOccurs:
    def test_in_order(self):
        assert aggregate._occurs(("serves", "coffee"), ["serves", "great", "coffee"])

    def test_wrong_order(self):
        assert not aggregate._occurs(("coffee", "serves"), ["serves", "great", "coffee"])

    def test_case_folded(self):
        assert aggregate._occurs(("Serves",), ["serves"])

    def test_missing(self):
        assert not aggregate._occurs(("espresso",), ["serves", "coffee"])


class TestTokenize:
    def test_punctuation_split(self):
        assert aggregate._tokenize(", a cafe") == [",", "a", "cafe"]

    def test_plain(self):
        assert aggregate._tokenize("cafe called") == ["cafe", "called"]


class TestStringLevel:
    def test_contains(self):
        c = SatCond("contains", "Cafe")
        assert aggregate._string_level(c, "Blue Cafe") == 1.0
        assert aggregate._string_level(c, "Blue cafe") == 0.0  # case-sensitive

    def test_mentions(self):
        c = SatCond("mentions", "choc")
        assert aggregate._string_level(c, "chocolate ice cream") == 1.0

    def test_matches_fullmatch(self):
        c = SatCond("matches", r"[L1]a Marzocco")
        assert aggregate._string_level(c, "La Marzocco") == 1.0
        assert aggregate._string_level(c, "a La Marzocco") == 0.0

    def test_similar_to(self):
        c = SatCond("similar_to", "city")
        assert aggregate._string_level(c, "Beijing") > 0.5
        assert aggregate._string_level(c, "China") < 0.4


class TestExample22:
    """Q1 (similarTo "city") answers only on S2; Q2 only on S1."""

    @pytest.fixture(scope="class")
    def corpus(self, spark):
        return fixtures.ex22_tokens(spark)

    def run_query(self, spark, corpus, descriptor):
        nq = normalize.normalize(queries.example_22(descriptor))
        ext = evaluate.evaluate_corpus(corpus, nq)
        return aggregate.apply_clauses(corpus, ext, nq)

    def test_q1_cities(self, spark, corpus):
        res = self.run_query(spark, corpus, "city")
        assert set(res.a) == {"Beijing", "Tokyo"}
        assert set(res.doc_id) == {1}

    def test_q2_countries(self, spark, corpus):
        res = self.run_query(spark, corpus, "country")
        assert set(res.a) == {"China", "Japan"}
        assert set(res.doc_id) == {0}


def _doc_tokens(spark, template, doc_id=0):
    import numpy as np
    from repro.corpus.generator import TOKEN_SCHEMA, resolve_template
    rows = resolve_template(template, np.random.default_rng(0), doc_id, 0)
    return spark.createDataFrame(pd.DataFrame(rows), schema=TOKEN_SCHEMA)


class TestEvidenceConditions:
    def test_follows(self, spark):
        from repro.corpus.cafes import s_evidence
        toks = _doc_tokens(spark, s_evidence(["Blue", "Ritual"], "serves", "coffee"))
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("follows", "serves coffee", 1.0)], 0.5)
        scores = aggregate.score_values(toks, cand, clause)
        assert scores.score.iloc[0] == 1.0

    def test_precedes(self, spark):
        from repro.corpus.cafes import s_called
        toks = _doc_tokens(spark, s_called(["Blue", "Ritual"]))
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("precedes", "cafe called", 1.0)], 0.5)
        scores = aggregate.score_values(toks, cand, clause)
        assert scores.score.iloc[0] == 1.0

    def test_near_decays_with_distance(self, spark):
        from repro.corpus.cafes import s_evidence
        toks = _doc_tokens(spark, s_evidence(["Blue", "Ritual"], "serves", "coffee", adj="fresh"))
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("near", "coffee", 1.0)], 0.0)
        scores = aggregate.score_values(toks, cand, clause)
        # "Blue Ritual serves fresh coffee": 2 tokens separate the mention
        # from "coffee" → 1/(1+2)
        assert scores.score.iloc[0] == pytest.approx(1 / 3)

    def test_descriptor_exact_phrase(self, spark):
        from repro.corpus.cafes import s_evidence
        toks = _doc_tokens(spark, s_evidence(["Blue", "Ritual"], "serves", "coffee"))
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("desc_right", "serves coffee", 1.0)], 0.0)
        scores = aggregate.score_values(toks, cand, clause)
        assert scores.score.iloc[0] == pytest.approx(1.0)

    def test_descriptor_paraphrase(self, spark):
        from repro.corpus.cafes import s_evidence
        toks = _doc_tokens(spark, s_evidence(["Blue", "Ritual"], "sells", "espresso"))
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("desc_right", "serves coffee", 1.0)], 0.0)
        scores = aggregate.score_values(toks, cand, clause)
        # expansion must recover "sells espresso" with score k_i < 1
        assert 0.2 < scores.score.iloc[0] < 1.0

    def test_descriptor_left_side_blind(self, spark):
        from repro.corpus.cafes import s_evidence
        toks = _doc_tokens(spark, s_evidence(["Blue", "Ritual"], "serves", "coffee"))
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("desc_left", "serves coffee", 1.0)], 0.0)
        scores = aggregate.score_values(toks, cand, clause)
        assert scores.score.iloc[0] == 0.0  # evidence is to the right

    def test_evidence_sums_across_sentences(self, spark):
        import numpy as np
        from repro.corpus.cafes import s_evidence
        from repro.corpus.generator import TOKEN_SCHEMA, resolve_template
        rows = []
        rows += resolve_template(s_evidence(["Blue", "Ritual"], "serves", "coffee"), np.random.default_rng(0), 0, 0)
        rows += resolve_template(s_evidence(["Blue", "Ritual"], "serves", "coffee"), np.random.default_rng(0), 0, 1)
        toks = spark.createDataFrame(pd.DataFrame(rows), schema=TOKEN_SCHEMA)
        cand = pd.DataFrame({"doc_id": [0], "value": ["Blue Ritual"]})
        clause = Satisfying("x", [SatCond("desc_right", "serves coffee", 1.0)], 0.0)
        scores = aggregate.score_values(toks, cand, clause)
        assert scores.score.iloc[0] == pytest.approx(2.0)


class TestExcluding:
    def test_matches(self):
        conds = [SatCond("matches", r"[L1]a Marzocco")]
        assert aggregate.excluded("La Marzocco", conds)
        assert not aggregate.excluded("Blue Cafe", conds)

    def test_in_dict(self):
        conds = [SatCond("in_dict", "Location")]
        assert aggregate.excluded("Portland", conds)
        assert not aggregate.excluded("Blue Cafe", conds)

    def test_address_regex(self):
        conds = [SatCond("matches", r"[0-9]+ [0-9A-Za-z ]+ [Ss]t.?")]
        assert aggregate.excluded("12 Mission St.", conds)


PINNED_SCORES = Path(__file__).parent / "data" / "cafe_scores.json"
PINNED_CORPORA = [("barista", 1), ("sprudge", 2)]


def pinned_scores(spark, style, seed):
    """``score_values`` for ``cafe(0.6)``'s clause over every entity of
    ``cafe_corpus(30, style, seed)``, plus the token sequences "cafe" and
    "a cafe" in every doc: never entities, so they take ``_mentions``'
    token-sequence fallback.
    Rows ``[doc_id, value, score]`` sorted, scores rounded to 1e-9."""
    from pyspark.sql import functions as F
    from repro.corpus import cafes, generator
    qc = cafes.cafe_corpus(spark, 30, style=style, seed=seed)
    ents = generator.entities_of(qc.tokens).select(
        "doc_id", F.col("entity").alias("value")
    )
    docs = qc.tokens.select("doc_id").distinct()
    words = [docs.withColumn("value", F.lit(w)) for w in ("cafe", "a cafe")]
    cand = ents.union(words[0]).union(words[1]).distinct().toPandas()
    clause = queries.cafe(0.6).satisfying[0]
    scores = aggregate.score_values(qc.tokens, cand, clause)
    return sorted(
        [int(r.doc_id), r.value, round(float(r.score), 9)]
        for r in scores.itertuples()
    )


class TestPinnedScores:
    """Multi-sentence, multi-value documents scored with every evidence
    kind (precedes, near, desc_right), pinned to the recorded output."""

    @pytest.mark.parametrize("style,seed", PINNED_CORPORA)
    def test_cafe_scores_unchanged(self, spark, style, seed):
        expected = json.loads(PINNED_SCORES.read_text())[f"{style}-{seed}"]
        assert pinned_scores(spark, style, seed) == expected
