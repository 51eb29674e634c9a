"""Corpus generator tests: determinism, schema, tree validity, selectivity
bands (§6.3: Chocolate < 1%, Title ≈ 10%, DateOfBirth > 70% of articles),
and a DuckDB oracle check on the entity projection."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.corpus import generator, templates
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def wiki(spark):
    df = generator.wiki_corpus(spark, 300, seed=42).cache()
    df.count()
    return df


class TestTemplates:
    @pytest.mark.parametrize(
        "tpl", [t for t, _ in templates.WIKI_MIXTURE + templates.HAPPY_MIXTURE],
        ids=lambda t: t.name,
    )
    def test_template_is_valid_tree(self, tpl):
        import numpy as np
        rows = generator.resolve_template(tpl, np.random.default_rng(0), 7, 3)
        assert rows[0]["sid"] == 7 * generator.SENTS_PER_DOC + 3
        heads = [r["head"] for r in rows]
        assert heads.count(-1) == 1
        root = heads.index(-1)
        assert rows[root]["sub_lo"] == 0
        assert rows[root]["sub_hi"] == len(rows) - 1
        assert all(r["pl_path"].startswith("/root") for r in rows)

    def test_sentence_index_bounded_by_sids_per_doc(self):
        import numpy as np
        tpl = templates.WIKI_MIXTURE[0][0]
        last = generator.SENTS_PER_DOC - 1
        rows = generator.resolve_template(tpl, np.random.default_rng(0), 2, last)
        assert rows[0]["sid"] == 3 * generator.SENTS_PER_DOC - 1
        # one more would take doc 3's first sid
        with pytest.raises(ValueError):
            generator.resolve_template(
                tpl, np.random.default_rng(0), 2, generator.SENTS_PER_DOC
            )

    def test_mixture_sums_to_one(self):
        assert sum(p for _, p in templates.WIKI_MIXTURE) == pytest.approx(1.0)


class TestWikiCorpus:
    def test_deterministic(self, spark):
        a = generator.wiki_corpus(spark, 20, seed=3).toPandas()
        b = generator.wiki_corpus(spark, 20, seed=3).toPandas()
        key = ["doc_id", "sid", "tid"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True),
        )

    def test_seed_changes_corpus(self, spark):
        a = generator.wiki_corpus(spark, 20, seed=3).toPandas()
        b = generator.wiki_corpus(spark, 20, seed=4).toPandas()
        assert not a.sort_values(["doc_id", "sid", "tid"]).reset_index(drop=True).equals(
            b.sort_values(["doc_id", "sid", "tid"]).reset_index(drop=True)
        )

    def test_doc_count(self, wiki):
        assert wiki.select("doc_id").distinct().count() == 300

    def test_sentences_per_doc_in_range(self, wiki):
        per = (
            wiki.groupBy("doc_id").agg(F.countDistinct("sid").alias("n")).toPandas()
        )
        assert per.n.between(4, 10).all()

    def test_tids_contiguous(self, wiki):
        s = (
            wiki.groupBy("sid")
            .agg(F.min("tid").alias("lo"), F.max("tid").alias("hi"), F.count("*").alias("n"))
            .toPandas()
        )
        assert (s.lo == 0).all()
        assert (s.n == s.hi + 1).all()

    def test_one_root_per_sentence(self, wiki):
        roots = wiki.where(F.col("head") == -1).groupBy("sid").count().toPandas()
        n_sents = wiki.select("sid").distinct().count()
        assert len(roots) == n_sents and (roots["count"] == 1).all()

    def test_selectivity_bands(self, wiki):
        n_docs = 300
        def frac(token):
            return (
                wiki.where(F.col("token") == token).select("doc_id").distinct().count()
                / n_docs
            )
        # Chocolate query anchor: pobj "chocolate" under "is"
        choc = (
            wiki.where((F.col("token") == "chocolate") & (F.col("label") == "pobj"))
            .select("doc_id").distinct().count() / n_docs
        )
        assert choc < 0.05
        title = frac("called")
        assert 0.02 < title < 0.30
        dob = frac("born")
        assert dob > 0.60

    def test_entities_oracle(self, wiki):
        got = generator.entities_of(wiki)
        assert_equivalent(
            got,
            """
            SELECT doc_id, sid, ent_text AS entity, ent_lo AS lo,
                   ent_hi AS hi, etype
            FROM tokens
            WHERE etype IS NOT NULL AND tid = ent_lo
            """,
            tokens=wiki,
        )


class TestHappyCorpus:
    def test_one_sentence_per_doc(self, spark):
        df = generator.happy_corpus(spark, 50)
        per = df.groupBy("doc_id").agg(F.countDistinct("sid").alias("n")).toPandas()
        assert (per.n == 1).all()

    def test_xcomp_present(self, spark):
        df = generator.happy_corpus(spark, 80)
        assert df.where(F.col("label") == "xcomp").count() > 0
