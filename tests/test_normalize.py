"""Normalization (§4.1): absolutization, derived constraints, dominance,
elastic naming (Example 4.1)."""
import pytest

from repro.koko import normalize, queries
from repro.koko.ast import (
    Constraint, NodeDef, Query, SpanAtom, SpanDef, Step, elastic, parse_path,
    subtree, var_atom,
)


class TestAbsolutize:
    def test_example_21(self):
        nq = normalize.normalize(queries.example_21())
        paths = {v: "".join(s.axis + s.label for s in st) for v, st in nq.abs_paths.items()}
        assert paths["a"] == "//verb"
        assert paths["b"] == "//verb/dobj"
        assert paths["c"] == "//verb/dobj//delicious"

    def test_derived_constraints(self):
        nq = normalize.normalize(queries.example_21())
        kinds = {(c.kind, c.a, c.b) for c in nq.constraints}
        assert ("parentOf", "a", "b") in kinds
        assert ("ancestorOf", "b", "c") in kinds

    def test_out_of_order_defs(self):
        q = Query(
            outputs=[("b", "Str")],
            node_defs=[
                NodeDef("b", "a", parse_path("/dobj")),
                NodeDef("a", None, parse_path("//verb")),
            ],
        )
        nq = normalize.normalize(q)
        assert len(nq.abs_paths["b"]) == 2

    def test_circular_raises(self):
        q = Query(
            outputs=[],
            node_defs=[
                NodeDef("a", "b", parse_path("/dobj")),
                NodeDef("b", "a", parse_path("/nsubj")),
            ],
        )
        with pytest.raises(ValueError, match="circular"):
            normalize.normalize(q)


class TestStepConditions:
    """Steps built in code pass the same check as parsed ones."""

    PERSON_CC = [Step("//", "propn", "pos", (("etype", "Person"),)), Step("/", "cc", "parse")]
    LEMMA = [Step("//", "verb", "pos", (("lemma", "run"),))]

    @pytest.mark.parametrize(
        "node_defs,span_defs",
        [
            ([NodeDef("n", None, PERSON_CC)], []),
            ([NodeDef("n", None, LEMMA)], []),
            ([], [SpanDef("x", [SpanAtom("path", steps=tuple(PERSON_CC))])]),
        ],
        ids=["inner-etype", "unknown-key", "path-atom"],
    )
    def test_unenforced_condition_raises(self, node_defs, span_defs):
        q = Query(outputs=[("x", "Str")], node_defs=node_defs, span_defs=span_defs)
        with pytest.raises(ValueError):
            normalize.normalize(q)

    def test_etype_on_base_variable(self):
        """An etype on the last step of a base variable's own path is
        enforced on that variable, so a child extending it is accepted."""
        q = Query(
            outputs=[("c", "Str")],
            node_defs=[
                NodeDef("p", None, parse_path('//propn[etype="Person"]')),
                NodeDef("c", "p", parse_path("/cc")),
            ],
        )
        assert len(normalize.normalize(q).abs_paths["c"]) == 2


class TestDominance:
    def test_example_21_dominant_is_c(self):
        nq = normalize.normalize(queries.example_21())
        assert nq.dominant == {"a": "c", "b": "c", "c": "c"}

    def test_unrelated_paths_self_dominant(self):
        q = Query(
            outputs=[],
            node_defs=[
                NodeDef("a", None, parse_path("//verb")),
                NodeDef("b", None, parse_path("//noun")),
            ],
        )
        nq = normalize.normalize(q)
        assert nq.dominant == {"a": "a", "b": "b"}

    def test_condition_mismatch_blocks_dominance(self):
        q = Query(
            outputs=[],
            node_defs=[
                NodeDef("a", None, parse_path("//verb")),
                NodeDef("b", None, parse_path('//verb[@text="ate"]/dobj')),
            ],
        )
        nq = normalize.normalize(q)
        # a (//verb, no conds) is NOT a prefix of b's first step with conds
        assert nq.dominant["a"] == "a"


class TestElasticNaming:
    def test_title_query(self):
        nq = normalize.normalize(queries.title())
        assert set(nq.elastic_vars) == {"v_1", "v_2"}
        kinds = [(c.kind, c.a, c.b) for c in nq.constraints if c.kind == "leftOf"]
        assert ("leftOf", "a", "v_1") in kinds
        assert ("leftOf", "v_1", "v") in kinds
        assert ("leftOf", "v", "v_2") in kinds
        assert ("leftOf", "v_2", "b") in kinds

    def test_path_atom_gets_anon_var(self):
        q = Query(
            outputs=[("x", "Str")],
            span_defs=[
                SpanDef("x", [var_atom("a"), elastic()]),
            ],
            node_defs=[NodeDef("a", None, parse_path("//verb"))],
        )
        nq = normalize.normalize(q)
        assert "v_1" in nq.elastic_vars
