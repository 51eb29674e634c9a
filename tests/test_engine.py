"""End-to-end engine tests: the three §6.3 queries on a wiki-lite corpus,
stage timings and counts, index-pruning consistency (pruned evaluation must
equal full-scan evaluation for every query of ``koko.queries``), execution
invariance across shuffle partition counts and Arrow batch sizes, the
batch function's carry of a document cut by a batch boundary, Spark
against driver-side evaluation, the Spark jobs one query launches, a
zero-candidate query, node variables nothing names, an empty corpus and a
token table that breaks the sid numbering."""
import random

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.bench import synthetic_tree
from repro.corpus import cafes, fixtures, generator
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
        ext = evaluate.evaluate_corpus(tokens, normalize.normalize(q))
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
        "wiki60": lambda: generator.wiki_corpus(spark, 60, seed=9),
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


class TestSparkVsLocal:
    """``engine.run`` equals the same query evaluated on the driver: all
    documents decoded by one ``evaluate.sentences`` call, ``eval_sentence``
    on every sentence, then ``aggregate.apply_doc`` per document."""

    @staticmethod
    def _local(tokens, q):
        nq = normalize.normalize(q)
        out_vars = [v for v, _ in q.outputs]
        by_doc = {}
        for sent in evaluate.sentences(tokens.toPandas()):
            by_doc.setdefault(sent.doc_id, []).append(sent)
        rows = [
            (doc_id, *(r[v] for v in out_vars))
            for doc_id, sents in by_doc.items()
            for r in aggregate.apply_doc(
                sents, [t for s in sents for t in evaluate.eval_sentence(s, nq)], nq
            )
        ]
        return pd.DataFrame(rows, columns=["doc_id", *out_vars]).drop_duplicates()

    @pytest.mark.parametrize(
        "corpus,qf",
        [(c, qf) for c, _, qf in TestPruningInvariance.CASES],
        ids=[f"{q}-{c}" for c, q, _ in TestPruningInvariance.CASES],
    )
    def test_matches_driver_evaluation(self, corpora, corpus, qf):
        tokens, index = corpora(corpus)
        local = self._local(tokens, qf())
        assert len(local) > 0
        assert _key(engine.run(tokens, index, qf()).results) == _key(local)


class TestExecutionInvariance:
    @pytest.mark.parametrize(
        "corpus,qf",
        [
            ("wiki", queries.title),
            ("sprudge", lambda: queries.cafe(0.6)),
            ("wiki", queries.date_of_birth),
            ("facility", lambda: queries.facility(0.4)),
        ],
        ids=["title", "cafe", "date_of_birth", "facility"],
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


class TestBatchBoundary:
    """The pass sees each partition as Arrow batches of
    ``maxRecordsPerBatch`` rows; with 7-row batches most documents, and
    many sentences, span a batch boundary, and the result is unchanged."""

    @pytest.mark.parametrize(
        "corpus,qf",
        [("wiki", queries.title), ("sprudge", lambda: queries.cafe(0.6))],
        ids=["title", "cafe"],
    )
    def test_small_batches_match_unpruned(self, spark, corpora, corpus, qf):
        tokens, index = corpora(corpus)
        conf = "spark.sql.execution.arrow.maxRecordsPerBatch"
        saved = spark.conf.get(conf)
        try:
            spark.conf.set(conf, "7")
            res = engine.run(tokens, index, qf())
        finally:
            spark.conf.set(conf, saved)
        full = _unpruned(tokens, qf())
        assert len(full) > 0
        assert _key(res.results) == _key(full)


class TestBatchCarry:
    """The batch function on the driver: the same sorted rows cut into
    batches at any row offsets, mid-sentence included (offset 0 makes an
    empty first batch), give the same per-document rows as one batch."""

    CASES = [
        (fixtures.paper_rows, queries.example_21),            # one document
        (fixtures.ex22_rows, lambda: queries.example_22("city")),  # two
    ]

    @staticmethod
    def _docs(nq, batches):
        out = pd.concat(list(engine._batch_pass(nq)(iter(batches))), ignore_index=True)
        assert out.decode_s.sum() > 0
        return out.drop(columns=list(engine._TIMERS.values())).to_dict("records")

    @pytest.mark.parametrize("rows,qf", CASES, ids=["example_21", "example_22"])
    def test_any_cut_gives_one_batch_rows(self, rows, qf):
        nq = normalize.normalize(qf())
        pdf = (
            rows().sort_values(["doc_id", "sid", "tid"]).reset_index(drop=True)
            .assign(is_cand=True)[[*evaluate.DECODE_COLS, "is_cand"]]
        )
        whole = self._docs(nq, [pdf])
        assert any(d["tuples"] for d in whole)
        n = len(pdf)
        cuts = [[i] for i in range(n)] + [[1, n // 2, n - 1], list(range(1, n))]
        for cut in cuts:
            bounds = [0, *cut, n]
            batches = [pdf.iloc[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            assert self._docs(nq, batches) == whole, cut


class TestJobCount:
    """A warm query launches at most six Spark jobs: the broadcast
    joins keep DPLI, LoadArticle and the per-document pass from adding
    shuffle jobs."""

    @pytest.mark.parametrize(
        "corpus,qf",
        [("wiki", queries.title), ("sprudge", lambda: queries.cafe(0.6))],
        ids=["title", "cafe"],
    )
    def test_at_most_six_jobs(self, spark, corpora, corpus, qf):
        tokens, index = corpora(corpus)
        engine.run(tokens, index, qf())  # warm: the driver's node-table copies
        sc = spark.sparkContext
        group = f"test-job-count-{corpus}"
        sc.setJobGroup(group, "engine.run job count")
        try:
            engine.run(tokens, index, qf())
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        jobs = sc.statusTracker().getJobIdsForGroup(group)
        assert 0 < len(jobs) <= 6


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


class TestEveryNodeVariableBinds:
    """The extract clause is conjunctive: every node variable it defines
    must bind, named by an output, a constraint or nothing. DPLI prunes by
    that reading, so the unpruned reference must apply it too."""

    @pytest.mark.parametrize(
        "y,rows",
        [('//"zzzabsent"', False), ("//appos", False), ('//"born"', True)],
        ids=["absent-word", "absent-label", "present-word"],
    )
    def test_unnamed_root_variable(self, corpora, y, rows):
        tokens, index = corpora("wiki60")
        q = Query(
            outputs=[("x", "Str")],
            node_defs=[NodeDef("x", None, parse_path("//verb")), NodeDef("y", None, parse_path(y))],
        )
        full = _unpruned(tokens, q)
        assert (len(full) > 0) == rows
        assert _key(engine.run(tokens, index, q).results) == _key(full)

    def test_synthetic_tree_sample(self, corpora):
        """SyntheticTree queries have no outputs: a document is a result
        exactly when one of its sentences binds the query's variables."""
        tokens, index = corpora("wiki60")
        picked = random.Random(9).sample(synthetic_tree.benchmark(tokens, seed=0), 8)
        sizes = []
        for tq in picked:
            full = _unpruned(tokens, tq.query())
            sizes.append(len(full))
            assert _key(engine.run(tokens, index, tq.query()).results) == _key(full), tq.name
        assert sum(0 < n < 60 for n in sizes) >= 6  # not all or none of the documents


class TestEmptyCorpus:
    @pytest.mark.parametrize(
        "q",
        [
            queries.example_21(),
            Query(outputs=[("x", "Str")], span_defs=[SpanDef("x", [tokens_atom("born")])]),
        ],
        ids=["indexed", "unindexed"],
    )
    def test_no_rows(self, spark, q):
        """With or without variables for DPLI to look up, an empty token
        table gives no rows and the output columns."""
        tokens = spark.createDataFrame([], schema=generator.TOKEN_SCHEMA)
        res = engine.run(tokens, koko_index.build(tokens), q)
        assert res.results.empty
        assert list(res.results.columns) == ["doc_id", *(v for v, _ in q.outputs)]
        assert res.n_candidate_sentences == 0


class TestSidNumbering:
    def test_sid_outside_its_document_raises(self, spark):
        """The pass finds a candidate's document as ``sid // SENTS_PER_DOC``;
        a token table numbered otherwise must fail, not lose candidates."""
        pdf = fixtures.paper_rows()
        pdf.loc[pdf.sid == 1, "sid"] = 1001
        tokens = spark.createDataFrame(pdf, schema=generator.TOKEN_SCHEMA)
        with pytest.raises(ValueError, match="SENTS_PER_DOC"):
            engine.run(tokens, koko_index.build(tokens), queries.example_21())
