"""Path steps and their translation into index lookups.

A ``Step`` reads, once, which token attributes it constrains: its
``parse`` label, ``pos`` tag and ``word`` (each None when the step leaves
that attribute free). Every matcher reads those projections: DPLI's
decomposition into a parse-label path, a POS path and a word path
(§4.2.1, Example 4.2), the exact triple-path matcher, and the INVERTED,
ADVINVERTED and SUBTREE baselines' label lookups.

Hierarchy-index nodes are identified by their root-to-node path string
(``/root/dobj/nn``); a KOKO path expression with ``/`` (child), ``//``
(descendant) and ``*`` (any label) becomes an anchored regex over those
strings. The same machinery compiles *combined* patterns over
``label|POS|token`` triple paths for the full-scan reference matcher and
the per-sentence validation step.

Note ``//X`` from the root matches the root itself (the paper's
``a = //verb`` binds the root token "ate"), i.e. "zero or more
intervening elements".
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..corpus.vocab import classify_label


@dataclass(frozen=True)
class Step:
    """One axis+label step of a path expression.

    ``kind`` is ``parse`` / ``pos`` / ``word`` / ``wildcard`` —
    pre-classified by the AST layer (quoted labels are words).
    ``conds`` holds the bracketed conditions: ``pos``, ``text``,
    ``etype``, ``regex``.
    """
    axis: str  # '/' or '//'
    label: str
    kind: str
    conds: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def cond(self, key: str) -> str | None:
        for k, v in self.conds:
            if k == key:
                return v
        return None

    @property
    def parse(self) -> str | None:
        """The parse label this step requires."""
        return self.label if self.kind == "parse" else None

    @property
    def pos(self) -> str | None:
        """The POS tag this step requires (its label or ``@pos``),
        upper-cased as the corpus stores it."""
        tag = self.label if self.kind == "pos" else self.cond("pos")
        return tag.upper() if tag else None

    @property
    def word(self) -> str | None:
        """The token this step requires (a quoted label or ``@text``)."""
        return self.label if self.kind == "word" else self.cond("text") or None

    def labels(self) -> list[str]:
        """Every label this step requires: parse label, word, POS tag."""
        return [lab for lab in (self.parse, self.word, self.pos) if lab is not None]


# The step conditions some matcher reads (``etype`` on a last step only).
_COND_KEYS = frozenset({"pos", "text", "regex", "etype"})


def check_steps(steps: list[Step]) -> None:
    """Raise ``ValueError`` on a condition no matcher would enforce: an
    unknown key, or an ``etype`` on any step but the last."""
    for i, s in enumerate(steps):
        keys = {k for k, _ in s.conds}
        if keys - _COND_KEYS:
            raise ValueError(f"unknown condition {sorted(keys - _COND_KEYS)} on step {s.label!r}")
        if "etype" in keys and i != len(steps) - 1:
            raise ValueError(f"etype on step {s.label!r}: only a path's last step may carry one")


def parse_path(path: str) -> list[Step]:
    """Parse the paper's path syntax: ``//verb[@text="ate"]/dobj//"delicious"``.

    Bracket conditions accept ``@pos=…``, ``@text=…``, ``@regex=…``,
    ``etype=…`` (comma-separated, values quoted); anything else in the
    brackets, or a condition ``check_steps`` rejects, raises ``ValueError``.
    """
    steps: list[Step] = []
    i = 0
    token_re = re.compile(r'("([^"]*)"|\*|[A-Za-z_][A-Za-z0-9_]*)')
    cond = r'\s*@?(\w+)\s*=\s*"([^"]*)"\s*'
    cond_re, conds_re = re.compile(cond), re.compile(f"{cond}(?:,{cond})*")
    while i < len(path):
        if path.startswith("//", i):
            axis, i = "//", i + 2
        elif path.startswith("/", i):
            axis, i = "/", i + 1
        else:
            raise ValueError(f"expected axis at {path[i:]!r}")
        m = token_re.match(path, i)
        if not m:
            raise ValueError(f"expected label at {path[i:]!r}")
        raw = m.group(1)
        i = m.end()
        if raw.startswith('"'):
            label, kind = m.group(2), "word"
        else:
            label, kind = raw, classify_label(raw)
        conds: list[tuple[str, str]] = []
        if i < len(path) and path[i] == "[":
            j = path.index("]", i)
            if not conds_re.fullmatch(path, i + 1, j):
                raise ValueError(f"bad conditions {path[i : j + 1]!r}")
            conds = cond_re.findall(path, i + 1, j)
            i = j + 1
        steps.append(Step(axis, label, kind, tuple(conds)))
    check_steps(steps)
    return steps


def _elem(pattern: str, axis: str) -> str:
    return ("(?:/[^/]+)*/" if axis == "//" else "/") + pattern


def label_path_regex(steps: list[Step], attr: str) -> str | None:
    """Anchored regex for a PL (``attr='parse'``) or POS (``attr='pos'``)
    path string, per §4.2.1: every step whose label is not of this
    attribute becomes ``*``. Returns None when the pattern carries **no**
    constraint at all (pure ``//*`` chain) — callers skip that lookup.
    """
    out, informative = "^", False
    for s in steps:
        lab = s.parse if attr == "parse" else s.pos
        if lab is None:
            pat = "[^/]+"
        else:
            pat = re.escape(lab)
            informative = True
        if s.axis == "/":
            informative = True  # child axis constrains depth even via *
        out += _elem(pat, s.axis)
    return out + "$" if informative else None


def word_path_words(steps: list[Step]) -> list[tuple[int, str]]:
    """(step index, word) for every step that constrains the token text —
    quoted labels and ``@text`` conditions (Example 4.2)."""
    return [(i, s.word) for i, s in enumerate(steps) if s.word is not None]


def gap(steps: list[Step], i: int, j: int) -> tuple[int, bool]:
    """(min depth gap, exact?) between step i and step j (i < j): each
    step is ≥1 level; exact iff no ``//`` axis in between."""
    seg = steps[i + 1 : j + 1]
    return len(seg), all(s.axis == "/" for s in seg)


def triple_path_regex(steps: list[Step]) -> str:
    """Anchored regex over ``label|POS|token`` triple paths enforcing every
    step's full condition set simultaneously (exact matching)."""
    out = "^"
    for s in steps:
        word = _field(s.word)
        if s.word is None and s.cond("regex"):
            word = f"(?:{s.cond('regex')})"
        out += _elem(f"{_field(s.parse)}\\|{_field(s.pos)}\\|{word}", s.axis)
    return out + "$"


def _field(value: str | None) -> str:
    """One field of a triple-path step: the value, or any value."""
    return r"[^/|]*" if value is None else re.escape(value)
