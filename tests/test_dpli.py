"""DPLI (Algorithm 1) tests against the paper's worked examples and the
full-scan oracle: lookups must be *complete* (no true binding missed)."""
import pytest
from pyspark.sql import functions as F

from repro.corpus import fixtures, generator
from repro.indexing import koko_index, pathmatch
from repro.koko import dpli, fullscan, normalize, queries
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def paper(spark):
    tokens = fixtures.paper_tokens(spark).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


@pytest.fixture(scope="module")
def wiki(spark):
    tokens = generator.wiki_corpus(spark, 150, seed=9).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


def quints(df):
    return sorted(tuple(r) for r in df.select("x", "y", "u", "v", "d").collect())


class TestKokoIndexContents:
    def test_word_index_oracle(self, paper):
        tokens, index = paper
        assert_equivalent(
            index.word.select("word", "x", "y", "u", "v", "d"),
            """
            SELECT token AS word, sid AS x, tid AS y, sub_lo AS u,
                   sub_hi AS v, depth AS d
            FROM tokens
            """,
            tokens=tokens,
        )

    def test_entity_index(self, paper):
        _, index = paper
        rows = sorted(tuple(r) for r in index.entity.select("entity", "x", "u", "v").collect())
        assert ("cheesecake", 1, 4, 4) in rows
        assert ("grocery store", 1, 10, 11) in rows
        assert ("chocolate ice cream", 0, 3, 5) in rows

    def test_hierarchy_nodes_are_distinct_paths(self, paper):
        tokens, index = paper
        n_paths = tokens.select("pl_path").distinct().count()
        assert index.pl_nodes.count() == n_paths
        assert index.pl_nodes.select("id").distinct().count() == n_paths

    def test_node_depth_and_label(self, paper):
        _, index = paper
        r = index.pl_nodes.where(F.col("path") == "/root/dobj/nn").collect()[0]
        assert r.label == "nn" and r.depth == 2

    def test_closure_table(self, paper):
        _, index = paper
        c = koko_index.closure(index.pl_nodes)
        node = index.pl_nodes.where(F.col("path") == "/root/dobj/nn").collect()[0]
        anc = sorted(
            r.alabel for r in c.where(F.col("id") == node.id).collect()
        )
        assert anc == ["dobj", "nn", "root"]

    def test_posting_list_via_node_join(self, paper):
        _, index = paper
        hits = dpli.path_bindings(index, pathmatch.parse_path("/root/dobj"))
        assert quints(hits) == [(0, 5, 2, 9, 1), (1, 4, 2, 11, 1)]

    def test_compression_on_wiki(self, wiki):
        tokens, index = wiki
        stats = koko_index.compression_stats(tokens, index)
        # Template corpus: path diversity far below token count.
        assert stats["pl_reduction"] > 0.95
        assert stats["pos_reduction"] > 0.95


class TestWordPathJoin:
    def test_example_44(self, paper):
        """//"ate"/*//"delicious" → {(1,3,3-3,2), (0,9,9-9,3)}."""
        _, index = paper
        steps = pathmatch.parse_path('//"ate"/*//"delicious"')
        q = dpli._join_word_path(index, steps)
        assert quints(q) == [(0, 9, 9, 9, 3), (1, 3, 3, 3, 2)]

    def test_exact_depth_gap(self, paper):
        """//"ate"/"cream" requires depth exactly +1 → only s0 cream."""
        _, index = paper
        steps = pathmatch.parse_path('//"ate"/"cream"')
        q = dpli._join_word_path(index, steps)
        assert quints(q) == [(0, 5, 2, 9, 1)]

    def test_missing_word_empty(self, paper):
        _, index = paper
        steps = pathmatch.parse_path('//"zzz"')
        assert dpli._join_word_path(index, steps).count() == 0


class TestPathBindings:
    def test_example_41_d_path(self, paper):
        _, index = paper
        steps = pathmatch.parse_path('//verb[@text="ate"]/dobj//"delicious"')
        b = dpli.path_bindings(index, steps)
        assert quints(b) == [(0, 9, 9, 9, 3), (1, 3, 3, 3, 2)]

    def test_pl_only_path(self, paper):
        _, index = paper
        b = dpli.path_bindings(index, pathmatch.parse_path("/root/nsubj"))
        assert quints(b) == [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)]

    def test_pure_wildcard_unconstrained(self, paper):
        tokens, index = paper
        b = dpli.path_bindings(index, pathmatch.parse_path("//*"))
        assert b.count() == tokens.count()

    @pytest.mark.parametrize(
        "path",
        [
            "//verb/dobj",
            "/root/nsubj",
            '//verb/dobj//"delicious"',
            "//noun",
            "//verb//noun",
            '//"born"',
            "/root//propn",
            '//verb[@text="called"]/propn',
        ],
    )
    def test_complete_vs_fullscan(self, wiki, path):
        """Index lookups never miss a true match (§4.2.2: complete, may
        over-approximate)."""
        tokens, index = wiki
        steps = pathmatch.parse_path(path)
        got = {tuple(r) for r in dpli.path_bindings(index, steps).select("x", "y").collect()}
        true = {tuple(r) for r in fullscan.var_matches(tokens, steps).select("x", "y").collect()}
        assert true <= got


class TestRun:
    def test_example_21_candidates(self, paper):
        tokens, index = paper
        nq = normalize.normalize(queries.example_21())
        res = dpli.run(index, nq)
        sids = sorted(r.x for r in res.candidate_sids.distinct().collect())
        assert sids == [0, 1]

    def test_bindings_keyed_by_dominant(self, paper):
        _, index = paper
        nq = normalize.normalize(queries.example_21())
        res = dpli.run(index, nq)
        assert set(res.bindings) == {"a", "b", "c"}
        # all three share c's (dominant) binding set
        assert quints(res.bindings["a"]) == quints(res.bindings["c"])

    def test_no_extract_clause_all_sentences(self, paper):
        _, index = paper
        nq = normalize.normalize(queries.cafe(0.5))
        res = dpli.run(index, nq)
        # only entity requirement: both fixture sentences have entities
        assert res.candidate_sids is not None
        assert res.candidate_sids.count() == 2

    def test_chocolate_on_wiki(self, wiki):
        tokens, index = wiki
        nq = normalize.normalize(queries.chocolate())
        res = dpli.run(index, nq)
        cand = {r.x for r in res.candidate_sids.collect()}
        # every sentence with a pobj "chocolate" under a verb is present
        true = {
            r.sid
            for r in tokens.where(
                (F.col("token") == "chocolate") & (F.col("label") == "pobj")
            ).collect()
        }
        assert true <= cand
