"""Benchmark generator tests (SyntheticTree / SyntheticSpan) + lookup
harness sanity, including a parametrized completeness sweep: every scheme
must return a superset of the true sentences for supported queries."""
import pytest

from repro.bench import lookup, synthetic_span, synthetic_tree
from repro.corpus import generator
from repro.indexing import advinverted, inverted, koko_index, subtree
from repro.koko import evaluate, normalize


@pytest.fixture(scope="module")
def wiki(spark):
    tokens = generator.wiki_corpus(spark, 60, seed=31).cache()
    tokens.count()
    return tokens


@pytest.fixture(scope="module")
def tree_queries(wiki):
    return synthetic_tree.benchmark(wiki, seed=0)


class TestTreeBenchmark:
    def test_count(self, tree_queries):
        # 4 lengths × 4 attr types × 2 wildcard × 2 rooted × 5 + 8 sizes × 5
        paths = [q for q in tree_queries if q.name.startswith("path_")]
        trees = [q for q in tree_queries if q.name.startswith("tree_")]
        assert len(paths) >= 250
        assert len(trees) == 40

    def test_deterministic(self, wiki):
        a = synthetic_tree.benchmark(wiki, seed=0)
        b = synthetic_tree.benchmark(wiki, seed=0)
        assert [q.name for q in a] == [q.name for q in b]
        assert [q.defs for q in a] == [q.defs for q in b]

    def test_settings_covered(self, tree_queries):
        settings = {
            (q.setting.get("length"), q.setting.get("attr"),
             q.setting.get("wildcard"), q.setting.get("rooted"))
            for q in tree_queries if "length" in q.setting
        }
        assert len(settings) == 4 * 4 * 2 * 2

    def test_tree_patterns_have_children(self, tree_queries):
        trees = [q for q in tree_queries if q.name.startswith("tree_")]
        assert all(len(q.defs) >= 2 for q in trees)
        for q in trees:
            bases = {d.base for d in q.defs}
            assert None in bases and "x" in bases

    def test_queries_nonempty_somewhere(self, wiki, tree_queries):
        """The selectivity spread should give many non-empty queries."""
        sample = [q for q in tree_queries if q.name.startswith("path_")][::40]
        nonempty = sum(1 for q in sample if lookup.ground_truth(wiki, q))
        assert nonempty >= len(sample) // 2


class TestSpanBenchmark:
    def test_counts(self, wiki):
        qs = synthetic_span.benchmark(wiki, per_setting=10, seed=0)
        by_atoms = {n: [q for q in qs if q.n_atoms == n] for n in (1, 3, 5)}
        assert all(len(v) == 10 for v in by_atoms.values())

    def test_structure(self, wiki):
        qs = synthetic_span.benchmark(wiki, per_setting=5, seed=0)
        for q in qs:
            kinds = [a.kind for a in q.span.atoms]
            assert kinds.count("elastic") == {1: 0, 3: 1, 5: 2}[q.n_atoms]
            assert kinds[0] != "elastic" and kinds[-1] != "elastic"

    def test_deterministic(self, wiki):
        a = synthetic_span.benchmark(wiki, per_setting=5, seed=0)
        b = synthetic_span.benchmark(wiki, per_setting=5, seed=0)
        assert [q.span for q in a] == [q.span for q in b]

    def test_gsp_matches_nogsp_on_all_queries(self, wiki):
        """GSP and noGSP return the same rows for all 300 queries on every
        sentence; short sentences keep noGSP's cartesian product bounded."""
        sents = [s for s in evaluate.sentences(wiki.toPandas()) if s.t <= 12]
        assert len(sents) >= 300
        with_rows = 0
        for q in synthetic_span.benchmark(wiki, per_setting=100, seed=0):
            nq = normalize.normalize(q.query())
            found = False
            for s in sents:
                gsp = sorted(map(str, evaluate.eval_sentence(s, nq, use_gsp=True)))
                naive = sorted(map(str, evaluate.eval_sentence(s, nq, use_gsp=False)))
                assert gsp == naive, (q.name, s.sid)
                found = found or bool(gsp)
            with_rows += found
        assert with_rows >= 100  # not vacuous


@pytest.fixture(scope="module")
def indices(wiki):
    return {
        "koko": koko_index.build(wiki).cache(),
        "inverted": inverted.build(wiki).cache(),
        "advinverted": advinverted.build(wiki).cache(),
        "subtree": subtree.build(wiki).cache(),
    }


class TestLookupHarness:
    @pytest.mark.parametrize("i", list(range(0, 280, 35)))
    def test_all_schemes_complete(self, wiki, tree_queries, indices, i):
        """No supported scheme may miss a true sentence (completeness)."""
        tq = tree_queries[i]
        true = lookup.ground_truth(wiki, tq)
        for scheme in ("koko", "inverted", "advinverted", "subtree"):
            r = lookup.run_lookup(scheme, indices[scheme], wiki, tq, true)
            if not r.supported:
                continue
            got_ok = r.n_returned >= len(true)
            assert got_ok, f"{scheme} returned {r.n_returned} < {len(true)} true"
            assert r.effectiveness <= 1.0

    def test_koko_effectiveness_high(self, wiki, tree_queries, indices):
        qs = [q for q in tree_queries if q.name.startswith("path_")][::60]
        effs = []
        for tq in qs:
            true = lookup.ground_truth(wiki, tq)
            if not true:
                continue
            r = lookup.run_lookup("koko", indices["koko"], wiki, tq, true)
            effs.append(r.effectiveness)
        assert effs and sum(effs) / len(effs) > 0.8
