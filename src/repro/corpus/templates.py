"""Sentence templates: hand-built dependency trees with fillable slots.

The paper parses real text with spaCy; we generate parsed sentences
directly. Each template fixes the tree shape (head pointers, parse labels,
POS tags) and draws words from pools in ``vocab``. The wiki-like template
mixture is calibrated so the three §6.3 scalability queries land in the
paper's selectivity bands: Chocolate < 1%, Title ≈ 10%, DateOfBirth > 70%
of articles.

A slot is a ``$pool`` reference resolved by the generator's RNG; anything
else is a literal token.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import vocab


@dataclass(frozen=True)
class Tok:
    word: str  # literal token or "$pool" slot
    pos: str
    label: str
    head: int  # index within the template; -1 = root


@dataclass(frozen=True)
class Template:
    name: str
    tokens: tuple[Tok, ...]
    # (first token idx, last token idx, entity type) — inclusive span
    entities: tuple[tuple[int, int, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        roots = [i for i, t in enumerate(self.tokens) if t.head == -1]
        if len(roots) != 1:
            raise ValueError(f"{self.name}: need exactly one root, got {roots}")
        for i, t in enumerate(self.tokens):
            if t.head != -1 and not (0 <= t.head < len(self.tokens)):
                raise ValueError(f"{self.name}: token {i} head out of range")


POOLS: dict[str, list[str]] = {
    "$first": vocab.FIRST_NAMES,
    "$last": vocab.LAST_NAMES,
    "$city": vocab.CITIES,
    "$country": vocab.COUNTRIES,
    "$org": vocab.ORGS,
    "$food": vocab.FOODS,
    "$adj": vocab.ADJS,
    "$noun": vocab.PLAIN_NOUNS,
    "$verb": vocab.PLAIN_VERBS,
    "$chocbrand": vocab.CHOC_BRANDS,
    "$nick": vocab.NICKNAMES,
    "$year": vocab.YEARS,
    "$happyobj": vocab.HAPPY_OBJECTS,
}


def _t(word: str, pos: str, label: str, head: int) -> Tok:
    return Tok(word, pos, label, head)


# ---------------------------------------------------------------- wiki-like

# "<Brand> chocolate is a type of chocolate ."  — Chocolate query target:
# v=//verb, o=v/pobj[text="chocolate"], s=v/nsubj, (s) in (c:Entity),
# satisfying v similarTo "is".
CHOCOLATE = Template(
    "chocolate",
    (
        _t("$chocbrand", "PROPN", "nn", 1),
        _t("chocolate", "NOUN", "nsubj", 2),
        _t("is", "VERB", "root", -1),
        _t("a", "DET", "det", 4),
        _t("type", "NOUN", "attr", 2),
        _t("of", "ADP", "prep", 4),
        _t("chocolate", "NOUN", "pobj", 2),
        _t(".", "PUNCT", "punct", 2),
    ),
    entities=((0, 1, "Entity"),),
)

# "<First> <Last> had been called <Nick> for years ."  — Title query target:
# a:Person, v=//"called", p=v/propn, b=p.subtree, c = a + ^ + v + ^ + b.
TITLE = Template(
    "title",
    (
        _t("$first", "PROPN", "nn", 1),
        _t("$last", "PROPN", "nsubj", 4),
        _t("had", "VERB", "aux", 4),
        _t("been", "VERB", "aux", 4),
        _t("called", "VERB", "root", -1),
        _t("$nick", "PROPN", "oprd", 4),
        _t("for", "ADP", "prep", 4),
        _t("years", "NOUN", "pobj", 6),
        _t(".", "PUNCT", "punct", 4),
    ),
    entities=((0, 1, "Person"), (5, 5, "Person")),
)

# "<First> <Last> was born in <Year> ."  — DateOfBirth query target:
# a:Person, b:Date, v=verb, satisfying v similarTo "born".
DOB = Template(
    "dob",
    (
        _t("$first", "PROPN", "nn", 1),
        _t("$last", "PROPN", "nsubj", 3),
        _t("was", "VERB", "aux", 3),
        _t("born", "VERB", "root", -1),
        _t("in", "ADP", "prep", 3),
        _t("$year", "NUM", "pobj", 4),
        _t(".", "PUNCT", "punct", 3),
    ),
    entities=((0, 1, "Person"), (5, 5, "Date")),
)

# Figure-1-like: "I ate a <adj> <food> , which was <adj> , and also ate a
# <food> ."  — exercises //verb/dobj//"…adj…" with the adjective inside the
# dobj subtree but not adjacent to the noun.
EAT_RELCL = Template(
    "eat_relcl",
    (
        _t("I", "PRON", "nsubj", 1),
        _t("ate", "VERB", "root", -1),
        _t("a", "DET", "det", 4),
        _t("$food", "NOUN", "nn", 4),
        _t("$food", "NOUN", "dobj", 1),
        _t(",", "PUNCT", "punct", 4),
        _t("which", "PRON", "nsubj", 8),
        _t("was", "VERB", "aux", 8),
        _t("$adj", "ADJ", "rcmod", 4),
        _t(",", "PUNCT", "punct", 1),
        _t("and", "CCONJ", "cc", 1),
        _t("also", "ADV", "advmod", 12),
        _t("ate", "VERB", "conj", 1),
        _t("a", "DET", "det", 14),
        _t("$food", "NOUN", "dobj", 12),
        _t(".", "PUNCT", "punct", 1),
    ),
    entities=((3, 4, "Entity"),),
)

# "Anna ate some <adj> <food> that she bought at a grocery store ."
EAT_SIMPLE = Template(
    "eat_simple",
    (
        _t("$first", "PROPN", "nsubj", 1),
        _t("ate", "VERB", "root", -1),
        _t("some", "DET", "det", 4),
        _t("$adj", "ADJ", "amod", 4),
        _t("$food", "NOUN", "dobj", 1),
        _t(".", "PUNCT", "punct", 1),
    ),
    entities=((0, 0, "Person"), (4, 4, "Entity")),
)

# "cities in asian countries such as <GPE> and <GPE> ." (Ex. 2.2 shape)
SUCH_AS = Template(
    "such_as",
    (
        _t("cities", "NOUN", "root", -1),
        _t("in", "ADP", "prep", 0),
        _t("asian", "ADJ", "amod", 3),
        _t("countries", "NOUN", "pobj", 1),
        _t("such", "ADJ", "amod", 5),
        _t("as", "ADP", "prep", 3),
        _t("$country", "PROPN", "pobj", 5),
        _t("and", "CCONJ", "cc", 6),
        _t("$country", "PROPN", "conj", 6),
        _t(".", "PUNCT", "punct", 0),
    ),
    entities=((6, 6, "GPE"), (8, 8, "GPE")),
)

# "The <noun> <verb> the <adj> <noun> ." — plain filler, no entities.
SVO = Template(
    "svo",
    (
        _t("The", "DET", "det", 1),
        _t("$noun", "NOUN", "nsubj", 2),
        _t("$verb", "VERB", "root", -1),
        _t("the", "DET", "det", 5),
        _t("$adj", "ADJ", "amod", 5),
        _t("$noun", "NOUN", "dobj", 2),
        _t(".", "PUNCT", "punct", 2),
    ),
)

# "<First> visited <City> in <Year> ." — Person + GPE + Date filler.
VISIT = Template(
    "visit",
    (
        _t("$first", "PROPN", "nsubj", 1),
        _t("visited", "VERB", "root", -1),
        _t("$city", "PROPN", "dobj", 1),
        _t("in", "ADP", "prep", 1),
        _t("$year", "NUM", "pobj", 3),
        _t(".", "PUNCT", "punct", 1),
    ),
    entities=((0, 0, "Person"), (2, 2, "GPE"), (4, 4, "Date")),
)

# "<Org> praised the <adj> <noun> loudly ." — Org filler with advmod.
ORG_SVO = Template(
    "org_svo",
    (
        _t("$org", "PROPN", "nsubj", 1),
        _t("praised", "VERB", "root", -1),
        _t("the", "DET", "det", 4),
        _t("$adj", "ADJ", "amod", 4),
        _t("$noun", "NOUN", "dobj", 1),
        _t("loudly", "ADV", "advmod", 1),
        _t(".", "PUNCT", "punct", 1),
    ),
    entities=((0, 0, "Org"),),
)

# "The <noun> <verb> the <adj> <noun> , and … , but … ." — a long
# three-clause sentence (23 tokens). Real Wikipedia sentences are this
# long; the noGSP nested loop's t(t+1)/2-per-elastic cost (Table 1)
# needs them to show its blow-up.
LONG_CONJ = Template(
    "long_conj",
    (
        _t("The", "DET", "det", 1),
        _t("$noun", "NOUN", "nsubj", 2),
        _t("$verb", "VERB", "root", -1),
        _t("the", "DET", "det", 5),
        _t("$adj", "ADJ", "amod", 5),
        _t("$noun", "NOUN", "dobj", 2),
        _t(",", "PUNCT", "punct", 2),
        _t("and", "CCONJ", "cc", 2),
        _t("the", "DET", "det", 9),
        _t("$noun", "NOUN", "nsubj", 10),
        _t("$verb", "VERB", "conj", 2),
        _t("the", "DET", "det", 13),
        _t("$adj", "ADJ", "amod", 13),
        _t("$noun", "NOUN", "dobj", 10),
        _t(",", "PUNCT", "punct", 2),
        _t("but", "CCONJ", "cc", 2),
        _t("the", "DET", "det", 17),
        _t("$noun", "NOUN", "nsubj", 18),
        _t("$verb", "VERB", "conj", 2),
        _t("the", "DET", "det", 21),
        _t("$adj", "ADJ", "amod", 21),
        _t("$noun", "NOUN", "dobj", 18),
        _t(".", "PUNCT", "punct", 2),
    ),
)

# (template, per-sentence probability). Remaining mass goes to fillers.
WIKI_MIXTURE: list[tuple[Template, float]] = [
    (CHOCOLATE, 0.0012),
    (TITLE, 0.016),
    (DOB, 0.20),
    (EAT_RELCL, 0.08),
    (EAT_SIMPLE, 0.10),
    (SUCH_AS, 0.06),
    (VISIT, 0.12),
    (ORG_SVO, 0.12),
    (LONG_CONJ, 0.06),
    (SVO, 0.2428),
]

# ---------------------------------------------------------------- HappyDB

HAPPY_SIMPLE = Template(
    "happy_simple",
    (
        _t("I", "PRON", "nsubj", 1),
        _t("felt", "VERB", "root", -1),
        _t("happy", "ADJ", "oprd", 1),
        _t("about", "ADP", "prep", 1),
        _t("the", "DET", "det", 5),
        _t("$happyobj", "NOUN", "pobj", 3),
        _t(".", "PUNCT", "punct", 1),
    ),
)

HAPPY_XCOMP = Template(
    "happy_xcomp",
    (
        _t("I", "PRON", "nsubj", 1),
        _t("was", "VERB", "root", -1),
        _t("happy", "ADJ", "oprd", 1),
        _t("to", "ADP", "aux", 4),
        _t("get", "VERB", "xcomp", 1),
        _t("a", "DET", "det", 6),
        _t("$happyobj", "NOUN", "dobj", 4),
        _t(".", "PUNCT", "punct", 1),
    ),
)

HAPPY_GIFT = Template(
    "happy_gift",
    (
        _t("$first", "PROPN", "nsubj", 1),
        _t("gave", "VERB", "root", -1),
        _t("me", "PRON", "dobj", 1),
        _t("a", "DET", "det", 5),
        _t("$adj", "ADJ", "amod", 5),
        _t("$happyobj", "NOUN", "dobj", 1),
        _t("yesterday", "ADV", "advmod", 1),
        _t(".", "PUNCT", "punct", 1),
    ),
    entities=((0, 0, "Person"),),
)

HAPPY_MIXTURE: list[tuple[Template, float]] = [
    (HAPPY_SIMPLE, 0.4),
    (HAPPY_XCOMP, 0.3),
    (HAPPY_GIFT, 0.3),
]
