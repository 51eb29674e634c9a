"""Full-scan reference matcher tests (ground truth for effectiveness)."""
import pytest

from repro.corpus import fixtures, generator
from repro.indexing import koko_index, pathmatch
from repro.koko import dpli, evaluate, fullscan, normalize
from repro.koko.ast import NodeDef, Query
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def paper(spark):
    return fixtures.paper_tokens(spark).cache()


class TestVarMatches:
    def test_word_path(self, paper):
        m = fullscan.var_matches(paper, pathmatch.parse_path('//"delicious"'))
        assert sorted((r.x, r.y) for r in m.collect()) == [(0, 9), (1, 3)]

    def test_oracle_equivalence(self, paper):
        got = fullscan.var_matches(paper, pathmatch.parse_path("//dobj")).select("x", "y")
        assert_equivalent(
            got,
            "SELECT sid AS x, tid AS y FROM tokens WHERE label = 'dobj'",
            tokens=paper,
        )

    def test_structural_miss(self, paper):
        m = fullscan.var_matches(paper, pathmatch.parse_path('//nsubj//"delicious"'))
        assert m.count() == 0


class TestTrueSids:
    def test_consistency_prunes(self, paper):
        """x=//verb with children dobj AND nsubj: both s0/s1 roots qualify;
        but requiring a child label that never co-occurs yields nothing."""
        q = Query(
            outputs=[],
            node_defs=[
                NodeDef("x", None, pathmatch.parse_path("//verb")),
                NodeDef("c1", "x", pathmatch.parse_path("/dobj")),
                NodeDef("c2", "x", pathmatch.parse_path("/nsubj")),
            ],
        )
        sids = {r.x for r in fullscan.true_sids(paper, normalize.normalize(q)).collect()}
        assert sids == {0, 1}

    def test_same_parent_required(self, paper):
        """advmod and prep exist in s1 under *different* verbs — a pattern
        asking for both under one verb must not match."""
        q = Query(
            outputs=[],
            node_defs=[
                NodeDef("x", None, pathmatch.parse_path("//verb")),
                NodeDef("c1", "x", pathmatch.parse_path("/det")),
                NodeDef("c2", "x", pathmatch.parse_path("/nn")),
            ],
        )
        sids = {r.x for r in fullscan.true_sids(paper, normalize.normalize(q)).collect()}
        assert sids == set()  # det/nn hang under nouns here, not verbs

    def test_empty_query_all_sentences(self, paper):
        q = Query(outputs=[])
        sids = {r.x for r in fullscan.true_sids(paper, normalize.normalize(q)).collect()}
        assert sids == {0, 1}

    def test_matches_wiki_scan(self, spark):
        tokens = generator.wiki_corpus(spark, 40, seed=77).cache()
        tokens.count()
        q = Query(
            outputs=[],
            node_defs=[
                NodeDef("v", None, pathmatch.parse_path('//"called"')),
                NodeDef("p", "v", pathmatch.parse_path("/propn")),
            ],
        )
        sids = {r.x for r in fullscan.true_sids(tokens, normalize.normalize(q)).collect()}
        from pyspark.sql import functions as F
        called = {r.sid for r in tokens.where(F.col("token") == "called").collect()}
        assert sids <= called
        assert sids  # title template occurs in 40 docs with high prob


@pytest.fixture(scope="module")
def wiki(spark):
    tokens = generator.wiki_corpus(spark, 40, seed=5).cache()
    sents = evaluate.sentences(tokens.select(*evaluate.DECODE_COLS).toPandas())
    return tokens, koko_index.build(tokens).cache(), sents


class TestEntityType:
    @pytest.mark.parametrize("etype", ["Entity", "Person"])
    def test_matches_evaluator(self, wiki, etype):
        """The oracle reads ``etype`` as the evaluator does (``Entity``:
        any type), and DPLI's lookup of the path covers what it finds."""
        tokens, index, sents = wiki
        steps = pathmatch.parse_path(f'//propn[etype="{etype}"]')
        nq = normalize.normalize(Query(outputs=[], node_defs=[NodeDef("p", None, steps)]))
        local = {(s.sid, t) for s in sents for t in evaluate.node_bindings(s, nq)["p"]}
        scan = {(r.x, r.y) for r in fullscan.var_matches(tokens, steps).collect()}
        bound = {(r.x, r.y) for r in dpli.path_bindings(index, steps).collect()}
        assert scan and scan == local
        assert scan <= bound
