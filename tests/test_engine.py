"""End-to-end engine tests: the three §6.3 queries on a wiki-lite corpus,
stage timings and counts, index-pruning consistency (pruned evaluation must
equal full-scan evaluation for every query of ``koko.queries``), execution
invariance across shuffle partition counts, and a zero-candidate query."""
import pytest
from pyspark.sql import functions as F

from repro.corpus import cafes, generator
from repro.indexing import koko_index
from repro.koko import aggregate, engine, evaluate, normalize, queries
from repro.koko.ast import NodeDef, Query, SpanDef, parse_path, tokens_atom

TIMING_KEYS = (
    "Normalize", "DPLI", "LoadArticle", "GSP", "extract", "extract_wall", "satisfying"
)


def _key(df):
    return sorted(map(tuple, df.values.tolist()))


def _unpruned(tokens, q):
    nq = normalize.normalize(q)
    return aggregate.apply_clauses(tokens, evaluate.evaluate_corpus(tokens, nq), nq)


@pytest.fixture(scope="module")
def wiki(spark):
    tokens = generator.wiki_corpus(spark, 120, seed=5).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


class TestChocolate:
    def test_extracts_chocolate_entities(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.chocolate())
        vals = set(res.results.c)
        # Every extraction is a "<Brand> chocolate" entity
        assert vals, "chocolate template should appear in 120 docs"
        assert all(v.endswith("chocolate") for v in vals)

    def test_matches_unpruned_run(self, wiki):
        tokens, index = wiki
        q = queries.chocolate()
        pruned = engine.run(tokens, index, q).results
        assert _key(pruned) == _key(_unpruned(tokens, q))


class TestTitle:
    def test_person_nickname_pairs(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.title())
        assert len(res.results) > 0
        for _, r in res.results.iterrows():
            assert len(r.a.split()) == 2   # First Last
            assert len(r.b.split()) == 1   # nickname subtree

    def test_selectivity_medium(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.title())
        frac = res.results.doc_id.nunique() / 120
        assert 0.02 < frac < 0.35


class TestDateOfBirth:
    def test_person_date_pairs(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        assert len(res.results) > 0
        years = res.results.b.astype(str)
        assert years.str.fullmatch(r"\d{4}").all()

    def test_selectivity_high(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        assert res.results.doc_id.nunique() / 120 > 0.6

    def test_satisfying_filters_nonborn_verbs(self, wiki):
        """Sentences with Person+Date but no born-like verb must not emit."""
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        out_sids = set()
        nq = normalize.normalize(queries.date_of_birth())
        ext = evaluate.evaluate_corpus(tokens, nq).toPandas()
        born_docs = {
            r.doc_id
            for r in tokens.where(F.col("token") == "born").select("doc_id").distinct().collect()
        }
        assert set(res.results.doc_id) <= born_docs


class TestTimings:
    def test_all_stages_present(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.chocolate())
        for k in TIMING_KEYS:
            assert k in res.timings
            assert res.timings[k] >= 0.0

    def test_pass_timers(self, wiki):
        """The per-document pass sums its in-UDF timers: decode, the
        evaluator loop and satisfying all did work for DateOfBirth."""
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        assert set(res.timings) == set(TIMING_KEYS)
        for k in ("LoadArticle", "extract", "satisfying", "extract_wall"):
            assert res.timings[k] > 0.0
        assert res.timings["GSP"] >= 0.0

    def test_candidates_counted(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.chocolate())
        n_sents = tokens.select("sid").distinct().count()
        assert 0 < res.n_candidate_sentences < n_sents

    def test_extraction_counts(self, wiki):
        """Extraction rows are counted before satisfying, and the extracted
        sentences are those among the candidates with at least one row."""
        tokens, index = wiki
        q = queries.date_of_birth()
        res = engine.run(tokens, index, q)
        ext = evaluate.evaluate_corpus(tokens, normalize.normalize(q)).toPandas()
        assert res.n_extraction_rows == len(ext)
        assert res.n_extracted_sentences == ext.sid.nunique()
        assert res.n_extracted_sentences <= res.n_candidate_sentences
        # the satisfying clause drops the non-"born" verbs' rows
        assert len(res.results) < res.n_extraction_rows


@pytest.fixture(scope="module")
def corpora(spark, wiki):
    """Each query family's corpus with its index, built on first use."""
    makers = {
        "wiki": lambda: wiki[0],
        "barista": lambda: cafes.cafe_corpus(spark, 30, style="barista", seed=4).tokens,
        "sprudge": lambda: cafes.cafe_corpus(spark, 30, style="sprudge", seed=4).tokens,
        "facility": lambda: cafes.tweet_corpus(spark, 120, target="facility", seed=6).tokens,
        "team": lambda: cafes.tweet_corpus(spark, 120, target="team", seed=6).tokens,
    }
    built = {"wiki": wiki}

    def get(name):
        if name not in built:
            tokens = makers[name]().cache()
            tokens.count()
            built[name] = (tokens, koko_index.build(tokens).cache())
        return built[name]

    return get


class TestPruningInvariance:
    """DPLI pruning and the single per-document pass change no result:
    ``engine.run`` equals the unpruned ``apply_clauses`` over every sentence
    (Chocolate: ``TestChocolate::test_matches_unpruned_run``)."""

    CASES = [
        ("wiki", "title", queries.title),
        ("wiki", "date_of_birth", queries.date_of_birth),
        ("barista", "cafe", lambda: queries.cafe(0.6)),
        ("sprudge", "cafe", lambda: queries.cafe(0.6)),
        ("facility", "facility", lambda: queries.facility(0.4)),
        ("team", "team", lambda: queries.team(0.5)),
    ]

    @pytest.mark.parametrize(
        "corpus,qf", [(c, qf) for c, _, qf in CASES], ids=[f"{q}-{c}" for c, q, _ in CASES]
    )
    def test_matches_unpruned(self, corpora, corpus, qf):
        tokens, index = corpora(corpus)
        full = _unpruned(tokens, qf())
        assert len(full) > 0
        assert _key(engine.run(tokens, index, qf()).results) == _key(full)


class TestExecutionInvariance:
    @pytest.mark.parametrize(
        "corpus,qf",
        [("wiki", queries.title), ("sprudge", lambda: queries.cafe(0.6))],
        ids=["title", "cafe"],
    )
    def test_shuffle_partitions(self, spark, corpora, corpus, qf):
        tokens, index = corpora(corpus)
        conf = "spark.sql.shuffle.partitions"
        saved = spark.conf.get(conf)
        out = {}
        try:
            for n in (1, 64):
                spark.conf.set(conf, str(n))
                out[n] = _key(engine.run(tokens, index, qf()).results)
        finally:
            spark.conf.set(conf, saved)
        assert out[1] and out[1] == out[64]


class TestZeroCandidates:
    def test_absent_word(self, wiki):
        tokens, index = wiki
        q = Query(
            outputs=[("v", "Str")],
            node_defs=[NodeDef("v", None, parse_path('//"zyzzyva"'))],
        )
        res = engine.run(tokens, index, q)
        assert res.results.empty
        assert list(res.results.columns) == ["doc_id", "v"]
        assert res.n_candidate_sentences == 0
        assert res.n_extraction_rows == 0
        assert set(res.timings) == set(TIMING_KEYS)


class TestNoIndexedVariable:
    def test_every_sentence_is_a_candidate(self, wiki):
        """A query with no node or entity variable gives DPLI nothing to
        look up: every sentence is evaluated, with the unpruned result."""
        tokens, index = wiki
        q = Query(outputs=[("x", "Str")], span_defs=[SpanDef("x", [tokens_atom("born")])])
        res = engine.run(tokens, index, q)
        assert res.n_candidate_sentences == tokens.select("sid").distinct().count()
        assert len(res.results) > 0
        assert _key(res.results) == _key(_unpruned(tokens, q))
