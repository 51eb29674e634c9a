"""Per-sentence evaluation tests: Example 2.1 end-to-end, span assembly
with skip plans, GSP/noGSP equivalence, constraint validation, and the
token-row decoder."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.corpus import fixtures, generator
from repro.corpus.templates import TITLE
from repro.koko import evaluate, normalize, queries
from repro.koko.ast import (
    Constraint, NodeDef, Query, SpanDef, elastic, parse_path, subtree,
    tokens_atom, var_atom,
)


def sent_of(template, doc_id=0, idx=0):
    rows = generator.resolve_template(template, np.random.default_rng(0), doc_id, idx)
    return evaluate.Sentence.from_pandas(pd.DataFrame(rows))


@pytest.fixture(scope="module")
def fig1():
    return sent_of(fixtures.FIG1)


@pytest.fixture(scope="module")
def ex31():
    return sent_of(fixtures.EX31, 0, 1)


class TestNodeBindings:
    def test_example_21_bindings_fig1(self, fig1):
        nq = normalize.normalize(queries.example_21())
        nb = evaluate.node_bindings(fig1, nq)
        assert nb["a"] == [1, 8, 13]  # ate, was, ate (all VERB)
        assert nb["b"] == [5, 15]     # cream, pie
        assert nb["c"] == [9]         # delicious under a verb/dobj

    def test_example_21_bindings_ex31(self, ex31):
        nq = normalize.normalize(queries.example_21())
        nb = evaluate.node_bindings(ex31, nq)
        assert nb["b"] == [4, 5]      # cheesecake; "that" (dobj of bought)
        assert nb["c"] == [3]

    def test_etype_condition(self, fig1):
        q = Query(
            outputs=[("n", "Str")],
            node_defs=[NodeDef("n", None, parse_path('//noun[etype="Entity"]'))],
        )
        nb = evaluate.node_bindings(fig1, normalize.normalize(q))
        assert nb["n"] == [3, 4, 5]   # chocolate, ice, cream — inside entity


class TestExample21:
    def test_fig1_result(self, fig1):
        nq = normalize.normalize(queries.example_21())
        rows = evaluate.eval_sentence(fig1, nq)
        assert rows == [
            {
                "doc_id": 0,
                "sid": 0,
                "e": "chocolate ice cream",
                "d": "a chocolate ice cream , which was delicious",
            }
        ]

    def test_ex31_result(self, ex31):
        nq = normalize.normalize(queries.example_21())
        rows = evaluate.eval_sentence(ex31, nq)
        assert rows == [
            {
                "doc_id": 0,
                "sid": 1,
                "e": "cheesecake",
                "d": "some delicious cheesecake that she bought at a grocery store",
            }
        ]

    def test_nogsp_same_result(self, fig1):
        nq = normalize.normalize(queries.example_21())
        assert evaluate.eval_sentence(fig1, nq, use_gsp=False) == evaluate.eval_sentence(
            fig1, nq, use_gsp=True
        )


class TestTitleQuery:
    def test_title_extraction(self):
        sent = sent_of(TITLE)
        nq = normalize.normalize(queries.title())
        rows = evaluate.eval_sentence(sent, nq)
        assert len(rows) == 1
        r = rows[0]
        # a = "<First> <Last>" Person entity; b = nickname subtree
        assert len(r["a"].split()) == 2
        assert r["b"] in sent.tokens

    def test_title_nogsp_equivalent(self):
        sent = sent_of(TITLE)
        nq = normalize.normalize(queries.title())
        gsp_rows = evaluate.eval_sentence(sent, nq, use_gsp=True)
        naive_rows = evaluate.eval_sentence(sent, nq, use_gsp=False)
        assert sorted(map(str, gsp_rows)) == sorted(map(str, naive_rows))

    def test_no_called_no_result(self, fig1):
        nq = normalize.normalize(queries.title())
        assert evaluate.eval_sentence(fig1, nq) == []


class TestSpanAssembly:
    def test_tokens_atom(self, fig1):
        q = Query(
            outputs=[("x", "Str")],
            node_defs=[NodeDef("n", None, parse_path("//noun"))],
            span_defs=[SpanDef("x", [tokens_atom("also"), var_atom("n2")]),],
        )
        # n2 undefined → error
        with pytest.raises(KeyError):
            evaluate.eval_sentence(fig1, normalize.normalize(q))

    def test_adjacent_tokens_and_var(self, fig1):
        q = Query(
            outputs=[("x", "Str")],
            node_defs=[NodeDef("n", None, parse_path("//dobj"))],
            span_defs=[SpanDef("x", [tokens_atom("a"), var_atom("n")])],
        )
        rows = evaluate.eval_sentence(fig1, normalize.normalize(q))
        assert {r["x"] for r in rows} == {"a pie"}  # "a cream" not adjacent

    def test_elastic_between(self, fig1):
        q = Query(
            outputs=[("x", "Str")],
            node_defs=[
                NodeDef("v", None, parse_path('//"ate"')),
                NodeDef("n", None, parse_path('//"pie"')),
            ],
            span_defs=[SpanDef("x", [var_atom("v"), elastic(), var_atom("n")])],
        )
        rows = evaluate.eval_sentence(fig1, normalize.normalize(q))
        texts = {r["x"] for r in rows}
        assert "ate a pie" in texts            # ate(13) ^="a" pie
        assert any(t.startswith("ate a chocolate") for t in texts)  # ate(1) … pie

    def test_elastic_max_len(self, fig1):
        q = Query(
            outputs=[("x", "Str")],
            node_defs=[
                NodeDef("v", None, parse_path('//"ate"')),
                NodeDef("n", None, parse_path('//"pie"')),
            ],
            span_defs=[
                SpanDef("x", [var_atom("v"), elastic(max_len=1), var_atom("n")])
            ],
        )
        rows = evaluate.eval_sentence(fig1, normalize.normalize(q))
        assert {r["x"] for r in rows} == {"ate a pie"}

    @pytest.mark.parametrize(
        "atoms",
        [
            [var_atom("v"), elastic(), var_atom("n")],
            [tokens_atom("a"), var_atom("x"), elastic(max_len=1)],
            [var_atom("n"), tokens_atom(".")],
            [elastic(max_len=2), var_atom("n")],
            [var_atom("v"), elastic(max_len=2)],
        ],
        ids=["middle", "token-var-trailing", "var-token", "leading", "trailing"],
    )
    def test_gsp_naive_equivalence_on_elastic(self, fig1, atoms):
        paths = {"v": "//verb", "n": "//dobj", "x": "//*"}
        vs = [a.var for a in atoms if a.kind == "var"]
        q = Query(
            outputs=[("s", "Str")] + [(v, "Str") for v in vs],
            node_defs=[NodeDef(v, None, parse_path(paths[v])) for v in vs],
            span_defs=[SpanDef("s", atoms)],
        )
        nq = normalize.normalize(q)
        a = sorted(str(r) for r in evaluate.eval_sentence(fig1, nq, use_gsp=True))
        b = sorted(str(r) for r in evaluate.eval_sentence(fig1, nq, use_gsp=False))
        assert a and a == b


class TestConstraints:
    def test_in_constraint(self, fig1):
        nq = normalize.normalize(queries.example_21())
        # b=cream(5) is inside entity (3,5) ✓ — covered by Example 2.1 test;
        # here check a query where "in" fails: pie not in any entity.
        q = Query(
            outputs=[("e", "Entity")],
            node_defs=[NodeDef("n", None, parse_path('//"pie"'))],
            constraints=[Constraint("in", "n", "e")],
        )
        assert evaluate.eval_sentence(fig1, normalize.normalize(q)) == []

    def test_parent_of(self, fig1):
        q = Query(
            outputs=[("b", "Str")],
            node_defs=[
                NodeDef("a", None, parse_path('//"cream"')),
                NodeDef("b", "a", parse_path("/nn")),
            ],
        )
        rows = evaluate.eval_sentence(fig1, normalize.normalize(q))
        assert {r["b"] for r in rows} == {"chocolate", "ice"}

    def test_eq_constraint(self, fig1):
        q = Query(
            outputs=[("x", "Str")],
            node_defs=[
                NodeDef("n", None, parse_path("//dobj")),
            ],
            span_defs=[SpanDef("x", [subtree("n")])],
            constraints=[Constraint("eq", "x", "e")],
        )
        # e: entity var — subtree of cream is (2,9), entity is (3,5): no eq
        q = Query(
            outputs=[("x", "Str"), ("e", "Entity")],
            node_defs=q.node_defs,
            span_defs=q.span_defs,
            constraints=q.constraints,
        )
        assert evaluate.eval_sentence(fig1, normalize.normalize(q)) == []


class TestCorpusEvaluation:
    def test_distributed_matches_local(self, spark):
        tokens = fixtures.paper_tokens(spark)
        nq = normalize.normalize(queries.example_21())
        df = evaluate.evaluate_corpus(tokens, nq)
        assert len(df) == 2
        assert set(df.e) == {"chocolate ice cream", "cheesecake"}


class TestDecoder:
    # multi-token entities (FIG1, EX31), two entities (EX31), none (plain)
    TEMPLATES = [
        fixtures.FIG1,
        fixtures.EX31,
        dataclasses.replace(fixtures.FIG1, name="plain", entities=()),
    ]

    @pytest.fixture
    def doc(self):
        """One document's rows, shuffled, with the entity columns null
        outside entities and ``ent_lo``/``ent_hi`` as float NaN, as Arrow
        delivers nullable ints."""
        rows = [
            r
            for i, tpl in enumerate(self.TEMPLATES)
            for r in generator.resolve_template(tpl, np.random.default_rng(0), 4, i)
        ]
        pdf = pd.DataFrame(rows).sample(frac=1, random_state=1)
        pdf[["ent_lo", "ent_hi"]] = pdf[["ent_lo", "ent_hi"]].astype("float64")
        assert pdf.ent_lo.isna().any()
        return pdf

    @pytest.mark.parametrize("null", [None, np.nan], ids=["None", "NaN"])
    def test_matches_per_sid_from_pandas(self, doc, null):
        doc["etype"] = [e if isinstance(e, str) else null for e in doc.etype]
        sents = evaluate.sentences(doc)
        assert [s.sid for s in sents] == [4000, 4001, 4002]
        assert sents == [
            evaluate.Sentence.from_pandas(doc[doc.sid == sid]) for sid in (4000, 4001, 4002)
        ]
        for sent, tpl in zip(sents, self.TEMPLATES):
            assert sent.doc_id == 4
            assert sent.tokens == [t.word for t in tpl.tokens]
            assert sent.heads == [t.head for t in tpl.tokens]
            assert sent.entities == [
                (lo, hi, et, sent.text((lo, hi))) for lo, hi, et in tpl.entities
            ]
        assert sents[0].entities == [(3, 5, "Entity", "chocolate ice cream")]
        assert all(type(v) is int for e in sents[1].entities for v in e[:2])

    def test_decode_cols_suffice(self, doc):
        """The engine ships only ``DECODE_COLS`` into its pass; dropping
        the other token columns leaves the decoded sentences unchanged."""
        dropped = set(doc.columns) - set(evaluate.DECODE_COLS)
        assert {"pos", "depth", "pl_path", "pos_path"} <= dropped
        sents = evaluate.sentences(doc)
        assert len(sents) == 3 and all(s.entities for s in sents[:2])
        assert evaluate.sentences(doc[evaluate.DECODE_COLS]) == sents

    def test_from_pandas_rejects_two_sentences(self, doc):
        with pytest.raises(ValueError):
            evaluate.Sentence.from_pandas(doc[doc.sid < 4002])

    def test_empty_frame(self):
        assert evaluate.sentences(pd.DataFrame(columns=evaluate.DECODE_COLS)) == []

    def test_entityless_rows_from_arrow(self, spark):
        """A sentence without entities, through Spark's Arrow ``toPandas``:
        every entity column is null and ``ent_lo`` comes back as float NaN."""
        pdf = pd.DataFrame(
            generator.resolve_template(self.TEMPLATES[2], np.random.default_rng(0), 4, 0)
        )
        pdf = spark.createDataFrame(pdf, schema=generator.TOKEN_SCHEMA).toPandas()
        assert pdf.ent_lo.dtype.kind == "f" and pdf.ent_lo.isna().all()
        assert pdf.etype.isna().all()
        (sent,) = evaluate.sentences(pdf)
        assert sent.entities == []
        assert sent.tokens == [t.word for t in self.TEMPLATES[2].tokens]
