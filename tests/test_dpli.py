"""DPLI (Algorithm 1) tests against the paper's worked examples and the
full-scan oracle: lookups must be *complete* (no true binding missed)."""
import random

import pytest
from pyspark.sql import functions as F

from repro.bench import synthetic_tree
from repro.corpus import fixtures, generator
from repro.indexing import koko_index, pathmatch, sidsets
from repro.koko import dpli, fullscan, normalize, queries
from repro.koko.ast import Query
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


@pytest.fixture(scope="module")
def wiki60(spark):
    tokens = generator.wiki_corpus(spark, 60, seed=5).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


class TestWordPathGap:
    """Two or three literal words on one path: the word-path join's depth
    gap (``pathmatch.gap``) must equal the full scan's exactly, for child,
    descendant and wildcard hops between the words."""

    @pytest.mark.parametrize(
        "path,n",
        [
            ('//"born"/"in"', 83),
            ('//"called"//"years"', 2),
            ('//"called"/"years"', 0),
            ('//"called"/*/"years"', 2),
            ('//"is"/"type"/"of"', 1),
        ],
    )
    def test_equals_fullscan(self, wiki60, path, n):
        tokens, index = wiki60
        steps = pathmatch.parse_path(path)
        got = {tuple(r) for r in dpli.path_bindings(index, steps).select("x", "y").collect()}
        true = {tuple(r) for r in fullscan.var_matches(tokens, steps).select("x", "y").collect()}
        assert got == true
        assert len(true) == n


class TestRun:
    def test_example_21_candidates(self, paper):
        tokens, index = paper
        nq = normalize.normalize(queries.example_21())
        cand = dpli.run(index, nq)
        sids = sorted(r.x for r in cand.distinct().collect())
        assert sids == [0, 1]

    def test_no_extract_clause_all_sentences(self, paper):
        _, index = paper
        nq = normalize.normalize(queries.cafe(0.5))
        cand = dpli.run(index, nq)
        # only entity requirement: both fixture sentences have entities
        assert cand is not None
        assert cand.count() == 2

    def test_chocolate_on_wiki(self, wiki):
        tokens, index = wiki
        nq = normalize.normalize(queries.chocolate())
        cand = {r.x for r in dpli.run(index, nq).collect()}
        # every sentence with a pobj "chocolate" under a verb is present
        true = {
            r.sid
            for r in tokens.where(
                (F.col("token") == "chocolate") & (F.col("label") == "pobj")
            ).collect()
        }
        assert true <= cand


ENTITY_VARS = [("e1", "Person"), ("e2", "Date"), ("e3", "Entity")]


def _nway_join(index, nq):
    """DPLI's earlier intersection: one ``distinct`` per sid set, joined
    pairwise on ``x``."""
    dominants = sorted({nq.dominant[v] for v in nq.all_node_vars()})
    sets = [
        dpli.path_bindings(index, nq.all_node_vars()[d]).select("x").distinct()
        for d in dominants
    ]
    for etype in dpli.entity_vars(nq).values():
        e = index.entity if etype == "Entity" else index.entity.where(F.col("etype") == etype)
        sets.append(e.select("x").distinct())
    cand = None
    for s in sets:
        cand = s if cand is None else cand.join(s, "x")
    return cand, len(sets)


def _sids(df):
    return None if df is None else {r.x for r in df.collect()}


@pytest.fixture(scope="module")
def tree_sample(wiki):
    """A seeded sample of SyntheticTree queries, each with 0–3 entity
    variables added, plus entity-only queries and the empty query: 0, 1,
    2 and ≥3 sid sets. → [(name, nq, dpli sids, n-way sids, n_sets)]."""
    tokens, index = wiki
    picked = random.Random(11).sample(synthetic_tree.benchmark(tokens, seed=0), 36)
    qs = [("empty", Query(outputs=[]))]
    qs += [(f"entities{k}", Query(outputs=ENTITY_VARS[:k])) for k in (1, 2, 3)]
    qs += [
        (f"{tq.name}+e{i % 4}", Query(outputs=ENTITY_VARS[: i % 4], node_defs=list(tq.defs)))
        for i, tq in enumerate(picked)
    ]
    out = []
    for name, q in qs:
        nq = normalize.normalize(q)
        old, n_sets = _nway_join(index, nq)
        out.append((name, nq, _sids(dpli.run(index, nq)), _sids(old), n_sets))
    return out


class TestIntersection:
    def test_sample_covers_set_counts(self, tree_sample):
        counts = {min(n, 3) for *_, n in tree_sample}
        assert counts == {0, 1, 2, 3}
        assert len(tree_sample) == 40

    def test_matches_nway_join(self, tree_sample):
        """The one-aggregation intersection equals the pairwise joins."""
        bad = [name for name, _, got, old, _ in tree_sample if got != old]
        assert not bad, bad

    def test_complete_vs_fullscan(self, wiki, tree_sample):
        """Candidates ⊇ the sentences with a consistent node assignment
        and an entity of every required type (§4.2.2)."""
        tokens, _ = wiki
        all_sids = {r.sid for r in tokens.select("sid").distinct().collect()}
        bad = []
        for name, nq, got, _, _ in tree_sample:
            true = _sids(fullscan.true_sids(tokens, nq))
            for etype in dpli.entity_vars(nq).values():
                ents = tokens.where(F.col("etype").isNotNull())
                if etype != "Entity":
                    ents = ents.where(F.col("etype") == etype)
                true &= {r.sid for r in ents.select("sid").distinct().collect()}
            if not true <= (all_sids if got is None else got):
                bad.append(name)
        assert not bad, bad

    def test_many_sets(self, spark):
        """More sets than a 64-bit mask has bits: frames k = [k, k+100)."""
        frames = [spark.range(k, k + 100).toDF("x") for k in range(70)]
        assert _sids(sidsets.intersect(frames)) == set(range(69, 100))
        assert sidsets.intersect([]) is None


@pytest.fixture(scope="module")
def small_wiki(spark):
    tokens = generator.wiki_corpus(spark, 40, seed=9).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


class TestTreeBenchmark:
    def test_complete_vs_fullscan_all_queries(self, small_wiki):
        """Every SyntheticTree query: the candidates ⊇ the sentences with a
        consistent node assignment (§4.2.2). A small corpus keeps the
        whole query set affordable."""
        tokens, index = small_wiki
        qs = synthetic_tree.benchmark(tokens, seed=0)
        assert len(qs) == 360
        bad = []
        for tq in qs:
            nq = normalize.normalize(tq.query())
            missed = fullscan.true_sids(tokens, nq).join(dpli.run(index, nq), "x", "left_anti")
            if missed.take(1):
                bad.append(tq.name)
        assert not bad, bad
