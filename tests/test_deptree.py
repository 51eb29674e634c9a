"""Unit tests for dependency-tree metadata derivation."""
import re

import pytest

from repro.nlp import deptree


# "The cat sat ." — 0:det->1, 1:nsubj->2, 2:root, 3:punct->2
HEADS = [1, 2, -1, 2]
LABELS = ["det", "nsubj", "root", "punct"]
POS = ["DET", "NOUN", "VERB", "PUNCT"]
TOKS = ["The", "cat", "sat", "."]


class TestDepths:
    def test_simple(self):
        assert deptree.depths(HEADS) == [2, 1, 0, 1]

    def test_single_root(self):
        assert deptree.depths([-1]) == [0]

    def test_chain(self):
        assert deptree.depths([-1, 0, 1, 2]) == [0, 1, 2, 3]

    def test_cycle_raises(self):
        with pytest.raises(ValueError, match="cycle"):
            deptree.depths([1, 0])


class TestSubtreeSpans:
    def test_simple(self):
        assert deptree.subtree_spans(HEADS) == [(0, 0), (0, 1), (0, 3), (3, 3)]

    def test_root_covers_sentence(self):
        spans = deptree.subtree_spans(HEADS)
        root = HEADS.index(-1)
        assert spans[root] == (0, len(HEADS) - 1)

    def test_leaf_is_self(self):
        assert deptree.subtree_spans([-1, 0])[1] == (1, 1)

    def test_chain(self):
        assert deptree.subtree_spans([-1, 0, 1]) == [(0, 2), (1, 2), (2, 2)]


class TestPaths:
    def test_label_paths(self):
        assert deptree.label_paths(HEADS, LABELS) == [
            "/root/nsubj/det",
            "/root/nsubj",
            "/root",
            "/root/punct",
        ]

    def test_pos_paths(self):
        assert deptree.label_paths(HEADS, POS) == [
            "/VERB/NOUN/DET",
            "/VERB/NOUN",
            "/VERB",
            "/VERB/PUNCT",
        ]

    def test_triple_paths(self):
        tp = deptree.triple_paths(HEADS, LABELS, POS, TOKS)
        assert tp[2] == "/root|VERB|sat"
        assert tp[0] == "/root|VERB|sat/nsubj|NOUN|cat/det|DET|The"

    def test_triple_paths_rejects_separators(self):
        toks = ["The", "cat", "and/or", "."]
        with pytest.raises(ValueError, match=re.escape("'and/or'")):
            deptree.triple_paths(HEADS, LABELS, POS, toks)
        with pytest.raises(ValueError, match=re.escape("'a|b'")):
            deptree.triple_paths(HEADS, ["det", "nsubj", "a|b", "punct"], POS, TOKS)

    def test_parents_validates_root(self):
        with pytest.raises(ValueError, match="root"):
            deptree.parents([0, -1, -1])
        assert deptree.parents(HEADS) == HEADS
