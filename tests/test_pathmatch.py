"""Path parsing and decomposition (Examples 4.1/4.2)."""
import re

import pytest

from repro.indexing import pathmatch as pm


class TestParsePath:
    def test_simple(self):
        steps = pm.parse_path("//verb/dobj")
        assert [(s.axis, s.label, s.kind) for s in steps] == [
            ("//", "verb", "pos"), ("/", "dobj", "parse"),
        ]

    def test_quoted_word(self):
        steps = pm.parse_path('//verb/dobj//"delicious"')
        assert steps[-1].kind == "word"
        assert steps[-1].label == "delicious"

    def test_conditions(self):
        steps = pm.parse_path('//verb[@text="ate"]/dobj')
        assert steps[0].cond("text") == "ate"

    def test_multiple_conditions(self):
        steps = pm.parse_path('//*[@pos="noun", etype="Person"]')
        assert steps[0].cond("pos") == "noun"
        assert steps[0].cond("etype") == "Person"

    def test_wildcard(self):
        assert pm.parse_path("//*")[0].kind == "wildcard"

    def test_root_label(self):
        assert pm.parse_path("/root/dobj")[0].kind == "parse"

    def test_bad_path_raises(self):
        with pytest.raises(ValueError):
            pm.parse_path("verb/dobj")

    @pytest.mark.parametrize(
        "path,match",
        [
            ("//propn[etype=Person]", "bad conditions"),            # unquoted value
            ('//verb[@text="ate" @pos="verb"]', "bad conditions"),  # no comma
            ('//verb[@lemma="run"]', "unknown condition"),          # nothing reads it
            ('//propn[etype="Person"]/cc', "etype on step"),        # not the last step
        ],
    )
    def test_unenforced_condition_raises(self, path, match):
        """A condition no matcher would enforce fails loudly instead of
        being dropped or ignored."""
        with pytest.raises(ValueError, match=match):
            pm.parse_path(path)


class TestDecomposition:
    """Example 4.2: d = //verb[text="ate"]/dobj//"delicious"."""

    STEPS = pm.parse_path('//verb[@text="ate"]/dobj//"delicious"')

    def test_parse_label_path(self):
        rx = pm.label_path_regex(self.STEPS, "parse")
        assert re.match(rx, "/root/dobj/rcmod/acomp")
        assert re.match(rx, "/root/dobj/amod")
        assert not re.match(rx, "/root/dobj")        # too short
        assert not re.match(rx, "/root/nsubj/det")   # no dobj

    def test_pos_path(self):
        rx = pm.label_path_regex(self.STEPS, "pos")
        assert re.match(rx, "/VERB/NOUN/ADJ")
        assert re.match(rx, "/VERB/NOUN/VERB/ADJ")
        assert not re.match(rx, "/NOUN/NOUN/ADJ")

    def test_word_path(self):
        assert pm.word_path_words(self.STEPS) == [(0, "ate"), (2, "delicious")]

    def test_gap(self):
        # between "ate" (step 0) and "delicious" (step 2): ≥ 2 levels
        assert pm.gap(self.STEPS, 0, 2) == (2, False)
        assert pm.gap(self.STEPS, 0, 1) == (1, True)

    def test_pure_wildcard_path_is_uninformative(self):
        steps = pm.parse_path("//*")
        assert pm.label_path_regex(steps, "parse") is None
        assert pm.label_path_regex(steps, "pos") is None

    def test_child_axis_wildcard_is_informative(self):
        # /*/* constrains depth even with no labels
        steps = pm.parse_path("/*/*")
        rx = pm.label_path_regex(steps, "parse")
        assert rx is not None
        assert re.match(rx, "/root/dobj")
        assert not re.match(rx, "/root")
        assert not re.match(rx, "/root/dobj/nn")


class TestTripleRegex:
    def test_pos_and_word_combined(self):
        steps = pm.parse_path('//verb[@text="ate"]/dobj')
        rx = pm.triple_path_regex(steps)
        assert re.match(rx, "/root|VERB|ate/dobj|NOUN|cream")
        assert not re.match(rx, "/root|VERB|saw/dobj|NOUN|cream")
        assert not re.match(rx, "/root|NOUN|ate/dobj|NOUN|cream")

    def test_descendant_skips(self):
        steps = pm.parse_path('//verb//"delicious"')
        rx = pm.triple_path_regex(steps)
        assert re.match(rx, "/root|VERB|ate/dobj|NOUN|cream/rcmod|VERB|was/acomp|ADJ|delicious")

    def test_root_anchor(self):
        steps = pm.parse_path("/root/nsubj")
        rx = pm.triple_path_regex(steps)
        assert re.match(rx, "/root|VERB|ate/nsubj|PRON|I")
        assert not re.match(rx, "/root|VERB|ate/dobj|NOUN|cream/nsubj|PRON|which")
