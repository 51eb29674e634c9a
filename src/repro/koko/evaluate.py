"""Per-sentence extract-clause evaluation (§4.3): align variables along
horizontal conditions using GSP skip plans, validate all path expressions
and constraints, and emit output tuples.

Two modes reproduce Table 1:

- ``use_gsp=True``: skipped variables are *derived* from the bindings of
  their neighbours (Example 4.7) — the assembly walks atoms left-to-right
  under one gap rule: a skipped atom binds exactly the span from the end
  of its left neighbour to the start of its right one, either end free at
  the span's edge; with no skipped atom between two concrete ones, that
  gap must be empty (the atoms are adjacent).
- ``use_gsp=False`` (KOKO&noGSP): the naive nested loop — full cartesian
  product over every variable's global binding set (an unconstrained
  elastic contributes all t(t+1)/2 spans), with adjacency checked last.

Sentence-level evaluation is pure Python (sentences are tiny and already
pruned by DPLI). The engine's pass runs it inside one ``mapInPandas``
over Arrow batches of doc-partitioned candidate articles; the unpruned
reference ``evaluate_corpus`` runs it on the driver. ``sentences`` is the
one decoder from token rows to the in-memory ``Sentence``: it serves
both, the satisfying-clause scan in ``aggregate`` and the driver-side
IKE, NELL and CRF baselines alike. A span ``(s, e)`` is inclusive; empty
spans are ``(s, s-1)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from time import perf_counter

import pandas as pd
from pyspark.sql import DataFrame

from ..indexing import pathmatch
from . import gsp
from .ast import var_atom
from .dpli import entity_vars
from .normalize import NormQuery

Span = tuple[int, int]
Env = dict[str, Span]


@dataclass
class Sentence:
    doc_id: int
    sid: int
    tokens: list[str]
    labels: list[str]
    heads: list[int]
    sub_lo: list[int]
    sub_hi: list[int]
    triple: list[str]
    entities: list[tuple[int, int, str, str]]  # (lo, hi, etype, text)

    @property
    def t(self) -> int:
        return len(self.tokens)

    def text(self, span: Span) -> str:
        s, e = span
        return " ".join(self.tokens[s : e + 1])

    @staticmethod
    def from_pandas(pdf: pd.DataFrame) -> "Sentence":
        """One sentence's token rows, in any order (see ``sentences``)."""
        sents = sentences(pdf)
        if len(sents) != 1:
            raise ValueError(f"expected the rows of one sentence, got {len(sents)} sids")
        return sents[0]


_LIST_COLS = {
    "tokens": "token", "labels": "label", "heads": "head",
    "sub_lo": "sub_lo", "sub_hi": "sub_hi", "triple": "triple_path",
}
# The token columns ``sentences`` reads; no other column needs to reach it.
DECODE_COLS = [
    "doc_id", "sid", "tid", *_LIST_COLS.values(), "etype", "ent_lo", "ent_hi", "ent_text",
]


def sentences(pdf: pd.DataFrame) -> list[Sentence]:
    """Decode the token rows of any set of documents (an Arrow batch's in
    the engine's pass, a whole corpus in the reference and the baselines),
    in any order, into their sentences in sid order: one sort by
    ``(sid, tid)``, one list per column, cut at sid boundaries. Entities
    are the rows where an entity starts; the null test accepts both
    ``None`` and Arrow's ``NaN``."""
    pdf = pdf.sort_values(["sid", "tid"])
    cols = {f: pdf[c].tolist() for f, c in _LIST_COLS.items()}
    sids, doc_ids = pdf["sid"].tolist(), pdf["doc_id"].tolist()
    is_ent = (pdf.etype.notna() & (pdf.tid == pdf.ent_lo)).tolist()
    ent_lo, ent_hi = pdf["ent_lo"].tolist(), pdf["ent_hi"].tolist()
    etype, ent_text = pdf["etype"].tolist(), pdf["ent_text"].tolist()
    firsts = [i for i in range(len(sids)) if i == 0 or sids[i] != sids[i - 1]]
    return [
        Sentence(
            doc_id=int(doc_ids[lo]),
            sid=int(sids[lo]),
            entities=[
                (int(ent_lo[i]), int(ent_hi[i]), etype[i], ent_text[i])
                for i in range(lo, hi)
                if is_ent[i]
            ],
            **{f: vals[lo:hi] for f, vals in cols.items()},
        )
        for lo, hi in zip(firsts, firsts[1:] + [len(sids)])
    ]


def _entity_spans(sent: Sentence, etype: str) -> list[Span]:
    return [
        (lo, hi)
        for lo, hi, et, _ in sent.entities
        if etype == "Entity" or et == etype
    ]


def node_bindings(sent: Sentence, nq: NormQuery) -> dict[str, list[int]]:
    """Exact per-sentence matches for every node variable (validation —
    DPLI candidates may be over-approximate, §4.2.2 Discussion)."""
    out: dict[str, list[int]] = {}
    for var, steps in nq.all_node_vars().items():
        rx = re.compile(pathmatch.triple_path_regex(steps))
        tids = [i for i, tp in enumerate(sent.triple) if rx.match(tp)]
        etype = steps[-1].cond("etype") if steps else None
        if etype:
            spans = _entity_spans(sent, etype)
            tids = [i for i in tids if any(lo <= i <= hi for lo, hi in spans)]
        out[var] = tids
    return out


def _token_occurrences(sent: Sentence, words: tuple[str, ...]) -> list[Span]:
    n = len(words)
    return [
        (i, i + n - 1)
        for i in range(sent.t - n + 1)
        if tuple(sent.tokens[i : i + n]) == words
    ]


def _merge(env: Env, extra: Env) -> Env | None:
    """``env`` plus ``extra``, or None where they bind a variable apart.
    Envs are never mutated, so an empty ``extra`` returns ``env`` itself."""
    if not extra:
        return env
    out = dict(env)
    for k, v in extra.items():
        if k in out and out[k] != v:
            return None
        out[k] = v
    return out


def _elastic_ok(sent: Sentence, atom, span: Span) -> bool:
    s, e = span
    length = e - s + 1
    if length < atom.min_len:
        return False
    if atom.max_len is not None and length > atom.max_len:
        return False
    if atom.regex is not None and not re.fullmatch(atom.regex, sent.text(span)):
        return False
    return True


class SentenceEvaluator:
    def __init__(self, sent: Sentence, nq: NormQuery, use_gsp: bool = True):
        self.sent = sent
        self.nq = nq
        self.use_gsp = use_gsp
        self.nb = node_bindings(sent, nq)
        self.evars = entity_vars(nq)
        self.span_results: dict[str, list[tuple[Span, Env]]] = {}
        self.gsp_s = 0.0  # skip-plan generation time (Table 2's GSP column)

    # -- atom candidate enumeration (global, independent of position) ----
    def atom_candidates(self, atom) -> list[tuple[Span, Env]]:
        s = self.sent
        if atom.kind == "var":
            v = atom.var
            if v in self.nb:
                return [((i, i), {v: (i, i)}) for i in self.nb[v]]
            if v in self.span_results:
                return list(self.span_results[v])
            if v in self.evars:
                return [(sp, {v: sp}) for sp in _entity_spans(s, self.evars[v])]
            raise KeyError(f"unbound atom variable {v!r}")
        if atom.kind == "subtree":
            v = atom.var
            return [
                ((s.sub_lo[i], s.sub_hi[i]), {v: (i, i)}) for i in self.nb[v]
            ]
        if atom.kind == "tokens":
            return [(sp, {}) for sp in _token_occurrences(s, atom.tokens)]
        if atom.kind == "elastic":
            if atom.etype is not None:  # ^[etype=…] binds an entity span
                return [
                    (sp, {atom.var: sp}) for sp in _entity_spans(s, atom.etype)
                ]
            # unconstrained elastic: all spans incl. empty at each position
            spans = [
                (i, j) for i in range(s.t) for j in range(i - 1, s.t) if j >= i - 1
            ]
            return [
                (sp, {atom.var: sp}) for sp in spans if _elastic_ok(s, atom, sp)
            ]
        raise ValueError(atom.kind)

    # -- span assembly ---------------------------------------------------
    def _assemble_gsp(self, sd, skipped: set[str]) -> list[tuple[Span, Env]]:
        """Left-to-right assembly; each skipped atom is closed as the gap
        its concrete neighbours leave (Example 4.7)."""
        # (start, end, env) of each partial span; end is None before the
        # first concrete atom, so a leading gap has a free start.
        partials: list[tuple[int | None, int | None, Env]] = [(None, None, {})]
        pending = None  # the skipped atom since the last concrete one
        for atom in sd.atoms:
            if atom.var in skipped:
                if pending is not None:
                    raise ValueError("two adjacent skipped atoms")
                pending = atom
                continue
            cands = self.atom_candidates(atom)
            nxt: list[tuple[int | None, int | None, Env]] = []
            for start, end, env in partials:
                lo = None if end is None else end + 1
                for (cs, ce), aenv in cands:
                    for (gs, _), genv in self._close(pending, lo, cs - 1):
                        m = _merge(env, genv)
                        m = None if m is None else _merge(m, aenv)
                        if m is not None:
                            nxt.append((gs if start is None else start, ce, m))
            partials, pending = nxt, None
            if not partials:
                return []
        out: list[tuple[Span, Env]] = []
        for start, end, env in partials:
            for (_, ge), genv in self._close(pending, end + 1, None):
                m = _merge(env, genv)
                if m is not None:
                    out.append(((start, ge), m))
        return out

    def _close(self, atom, lo: int | None, hi: int | None) -> list[tuple[Span, Env]]:
        """The one gap rule: bindings of the skipped ``atom`` that start at
        ``lo`` (fixed by its left neighbour) and end at ``hi`` (fixed by its
        right neighbour); ``None`` leaves that end free. With no atom
        pending the gap is empty, which holds only between adjacent atoms."""
        if lo is not None and hi is not None and hi < lo - 1:
            return []  # the neighbours overlap
        if atom is None:
            s = hi + 1 if lo is None else lo
            e = lo - 1 if hi is None else hi
            return [((s, e), {})] if e == s - 1 else []
        if atom.kind == "elastic" and atom.etype is None:
            starts = range(hi + 2) if lo is None else (lo,)
            ends = range(lo - 1, self.sent.t) if hi is None else (hi,)
            return [
                ((s, e), {atom.var: (s, e)})
                for s in starts
                for e in ends
                if _elastic_ok(self.sent, atom, (s, e))
            ]
        return [
            ((cs, ce), aenv)
            for (cs, ce), aenv in self.atom_candidates(atom)
            if (lo is None or cs == lo) and (hi is None or ce == hi)
        ]

    def _assemble_naive(self, sd) -> list[tuple[Span, Env]]:
        """noGSP: full cartesian product, adjacency checked afterwards."""
        per_atom = [self.atom_candidates(a) for a in sd.atoms]
        out = []
        for combo in product(*per_atom):
            env: Env = {}
            ok = True
            prev_end = None
            start = combo[0][0][0]
            for (cs, ce), aenv in combo:
                if prev_end is not None and cs != prev_end + 1:
                    ok = False
                    break
                m = _merge(env, aenv)
                if m is None:
                    ok = False
                    break
                env = m
                prev_end = ce
            if ok:
                out.append(((start, prev_end), env))
        return out

    def eval_spans(self) -> None:
        costs = {v: len(b) for v, b in self.nb.items()}
        for v, et in self.evars.items():
            costs[v] = len(_entity_spans(self.sent, et))
        for sd in self.nq.span_defs:
            if self.use_gsp:
                t0 = perf_counter()
                skipped = set(gsp.skip_list(sd, costs, self.sent.t))
                self.gsp_s += perf_counter() - t0
                res = self._assemble_gsp(sd, skipped)
            else:
                res = self._assemble_naive(sd)
            self.span_results[sd.name] = [
                (sp, dict(env, **{sd.name: sp})) for sp, env in res
            ]
            costs[sd.name] = len(res)

    # -- constraints -----------------------------------------------------
    def _check(self, c, env: Env) -> bool:
        if c.a not in env or c.b not in env:
            return True  # constraint over variables absent from this combo
        (as_, ae), (bs, be) = env[c.a], env[c.b]
        s = self.sent
        if c.kind == "in":
            return bs <= as_ and ae <= be
        if c.kind == "eq":
            return env[c.a] == env[c.b]
        if c.kind == "leftOf":
            return ae < bs or (ae == bs - 1)
        if c.kind == "parentOf":
            return s.heads[bs] == as_
        if c.kind == "ancestorOf":
            j = s.heads[bs]
            while j != -1:
                if j == as_:
                    return True
                j = s.heads[j]
            return False
        raise ValueError(c.kind)

    # -- top-level -------------------------------------------------------
    def run(self) -> list[dict]:
        self.eval_spans()
        # Variables that must be jointly bound: every output var, every
        # satisfying-clause var (the aggregator scores their values), any
        # var referenced by a constraint, and every node var the extract
        # clause defines (it is conjunctive; DPLI reads it the same way).
        needed = [v for v, _ in self.nq.query.outputs]
        needed += [s.var for s in self.nq.query.satisfying]
        for c in self.nq.constraints:
            needed += [c.a, c.b]
        needed += list(self.nq.abs_paths)
        needed = list(dict.fromkeys(needed))

        pools: list[list[tuple[Span, Env]]] = []
        covered: set[str] = set()
        for sd in self.nq.span_defs:
            pools.append(self.span_results[sd.name])
            covered.add(sd.name)
            for _, env in self.span_results[sd.name][:1]:
                covered |= set(env)
        for v in needed:
            if v in covered:
                continue
            try:
                pools.append(self.atom_candidates(var_atom(v)))
            except KeyError:
                continue  # e.g. elastic var never materialized
            covered.add(v)

        results = []
        seen = set()
        for combo in product(*pools) if pools else [()]:
            env: Env = {}
            ok = True
            for _, aenv in combo:
                m = _merge(env, aenv)
                if m is None:
                    ok = False
                    break
                env = m
            if not ok:
                continue
            if not all(self._check(c, env) for c in self.nq.constraints):
                continue
            row = self._serialize(env)
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                results.append(row)
        return results

    def _serialize(self, env: Env) -> dict:
        s = self.sent
        row = {"doc_id": s.doc_id, "sid": s.sid}
        for v in emitted_vars(self.nq):
            sp = env.get(v)
            if sp is None:
                row[v] = None
                continue
            if v in self.evars:
                text = next(
                    (txt for lo, hi, _, txt in s.entities if (lo, hi) == sp),
                    s.text(sp),
                )
                row[v] = text
            else:
                row[v] = s.text(sp)
        return row


def emitted_vars(nq: NormQuery) -> list[str]:
    """Output variables plus satisfying-clause variables (deduped) — the
    columns the extraction stage hands to the aggregator."""
    vs = [v for v, _ in nq.query.outputs] + [s.var for s in nq.query.satisfying]
    return list(dict.fromkeys(vs))


def eval_sentence(sent: Sentence, nq: NormQuery, use_gsp: bool = True) -> list[dict]:
    return SentenceEvaluator(sent, nq, use_gsp).run()


def eval_sentence_timed(sent: Sentence, nq: NormQuery) -> tuple[list[dict], float, float]:
    """(rows, gsp_seconds, eval_seconds) with GSP on — eval excludes plan
    generation."""
    ev = SentenceEvaluator(sent, nq)
    t0 = perf_counter()
    rows = ev.run()
    total = perf_counter() - t0
    return rows, ev.gsp_s, max(0.0, total - ev.gsp_s)


def documents(pdf: pd.DataFrame) -> dict[int, list[Sentence]]:
    """``sentences`` of ``pdf``, grouped by document."""
    by_doc: dict[int, list[Sentence]] = {}
    for sent in sentences(pdf):
        by_doc.setdefault(sent.doc_id, []).append(sent)
    return by_doc


def evaluate_corpus(tokens: DataFrame, nq: NormQuery) -> pd.DataFrame:
    """The unpruned reference of the extract clause, on the driver:
    ``eval_sentence`` on every sentence of ``tokens``, decoded by one
    ``sentences`` call. Returns ``(doc_id, sid, *emitted_vars)``."""
    sents = sentences(tokens.select(*DECODE_COLS).toPandas())
    rows = [r for sent in sents for r in eval_sentence(sent, nq)]
    return pd.DataFrame(rows, columns=["doc_id", "sid", *emitted_vars(nq)])
