"""Per-sentence extract-clause evaluation (§4.3): align variables along
horizontal conditions using GSP skip plans, validate all path expressions
and constraints, and emit output tuples.

Two modes reproduce Table 1:

- ``use_gsp=True``: skipped variables are *derived* from the bindings of
  their neighbours (Example 4.7) — the assembly walks atoms left-to-right
  and closes each skipped atom as the gap between its neighbours.
- ``use_gsp=False`` (KOKO&noGSP): the naive nested loop — full cartesian
  product over every variable's global binding set (an unconstrained
  elastic contributes all t(t+1)/2 spans), with adjacency checked last.

Sentence-level evaluation is pure Python (sentences are tiny and already
pruned by DPLI); the engine's per-document pass and the corpus-level
reference ``evaluate_corpus`` both run it inside ``applyInPandas`` grouped
by document. ``sentences`` is the one decoder from token rows to the
in-memory ``Sentence``: it serves them and the satisfying-clause scan in
``aggregate`` alike. A span ``(s, e)`` is inclusive; empty spans
are ``(s, s-1)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from time import perf_counter

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..indexing import pathmatch
from . import gsp
from .dpli import entity_vars
from .normalize import NormQuery

Span = tuple[int, int]
Env = dict[str, Span]


@dataclass
class Sentence:
    doc_id: int
    sid: int
    tokens: list[str]
    pos: list[str]
    labels: list[str]
    heads: list[int]
    depths: list[int]
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
    "tokens": "token", "pos": "pos", "labels": "label", "heads": "head",
    "depths": "depth", "sub_lo": "sub_lo", "sub_hi": "sub_hi",
    "triple": "triple_path",
}


def sentences(pdf: pd.DataFrame) -> list[Sentence]:
    """Decode token rows (one document's, in the UDFs), in any order, into
    their sentences in sid order: one sort by ``(sid, tid)``, one list per
    column, cut at sid boundaries. Entities are the rows where an entity
    starts; the null test accepts both ``None`` and Arrow's ``NaN``."""
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


def _in_entity(sent: Sentence, tid: int, etype: str) -> bool:
    return any(
        lo <= tid <= hi and (etype == "Entity" or et == etype)
        for lo, hi, et, _ in sent.entities
    )


def node_bindings(sent: Sentence, nq: NormQuery) -> dict[str, list[int]]:
    """Exact per-sentence matches for every node variable (validation —
    DPLI candidates may be over-approximate, §4.2.2 Discussion)."""
    out: dict[str, list[int]] = {}
    for var, steps in nq.all_node_vars().items():
        rx = re.compile(pathmatch.triple_path_regex(steps))
        tids = [i for i, tp in enumerate(sent.triple) if rx.match(tp)]
        etype = steps[-1].cond("etype") if steps else None
        if etype:
            tids = [i for i in tids if _in_entity(sent, i, etype)]
        out[var] = tids
    return out


def _entity_spans(sent: Sentence, etype: str) -> list[Span]:
    return [
        (lo, hi)
        for lo, hi, et, _ in sent.entities
        if etype == "Entity" or et == etype
    ]


def _token_occurrences(sent: Sentence, words: tuple[str, ...]) -> list[Span]:
    n = len(words)
    return [
        (i, i + n - 1)
        for i in range(sent.t - n + 1)
        if tuple(sent.tokens[i : i + n]) == words
    ]


def _merge(env: Env, extra: Env) -> Env | None:
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
        """Left-to-right assembly; skipped atoms become gaps closed by the
        next concrete atom (Example 4.7)."""
        partials: list[tuple[int | None, int | None, Env]] = [(None, None, {})]
        pending = None  # at most one skipped atom between concrete atoms
        for atom in sd.atoms:
            if atom.var is not None and atom.var in skipped:
                if pending is not None:
                    raise ValueError("two adjacent skipped atoms")
                pending = atom
                continue
            cands = self.atom_candidates(atom)
            nxt: list[tuple[int | None, int | None, Env]] = []
            for start, end, env in partials:
                for (cs, ce), aenv in cands:
                    if end is None:  # first concrete atom
                        if pending is not None:
                            # leading skipped atom: derive with end == cs-1
                            for genv, gs in self._close_leading(pending, cs):
                                m = _merge(env, aenv)
                                m = m and _merge(m, genv)
                                if m is not None:
                                    nxt.append((gs, ce, m))
                        else:
                            m = _merge(env, aenv)
                            if m is not None:
                                nxt.append((cs, ce, m))
                        continue
                    if pending is not None:
                        gap_span = (end + 1, cs - 1)
                        genv = self._close_gap(pending, gap_span)
                        if genv is None:
                            continue
                        m = _merge(env, genv)
                    else:
                        if cs != end + 1:
                            continue
                        m = env
                    m = m and _merge(m, aenv)
                    if m is not None:
                        nxt.append((start, ce, m))
            partials = nxt
            pending = None
            if not partials:
                return []
        out: list[tuple[Span, Env]] = []
        for start, end, env in partials:
            if end is None:
                continue  # no concrete atom ever bound — nothing derivable
            if pending is not None:  # trailing skipped atom
                for genv, ge in self._close_trailing(pending, end + 1):
                    m = _merge(env, genv)
                    if m is not None:
                        out.append(((start, ge), m))
            else:
                out.append(((start, end), env))
        return out

    def _close_gap(self, atom, span: Span):
        """Bind a skipped atom to an exact gap span, or None."""
        s, e = span
        if e < s - 1:
            return None
        if atom.kind == "elastic" and atom.etype is None:
            return {atom.var: span} if _elastic_ok(self.sent, atom, span) else None
        for (cs, ce), aenv in self.atom_candidates(atom):
            if (cs, ce) == span:
                return aenv
        return None

    def _close_leading(self, atom, next_start: int):
        if atom.kind == "elastic" and atom.etype is None:
            for cs in range(next_start + 1):
                sp = (cs, next_start - 1)
                if _elastic_ok(self.sent, atom, sp):
                    yield {atom.var: sp}, cs
        else:
            for (cs, ce), aenv in self.atom_candidates(atom):
                if ce == next_start - 1:
                    yield aenv, cs

    def _close_trailing(self, atom, start: int):
        if atom.kind == "elastic" and atom.etype is None:
            for ce in range(start - 1, self.sent.t):
                sp = (start, ce)
                if _elastic_ok(self.sent, atom, sp):
                    yield {atom.var: sp}, ce
        else:
            for (cs, ce), aenv in self.atom_candidates(atom):
                if cs == start:
                    yield aenv, ce

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
            for a in sd.atoms:  # subtree/earlier-span atoms share var costs
                if a.kind == "var" and a.var in self.span_results:
                    costs[a.var] = len(self.span_results[a.var])
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
        # satisfying-clause var (the aggregator scores their values), and
        # any var referenced by a constraint.
        needed = [v for v, _ in self.nq.query.outputs]
        needed += [s.var for s in self.nq.query.satisfying]
        for c in self.nq.constraints:
            needed += [c.a, c.b]
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
            if v in self.nb:
                pools.append([((i, i), {v: (i, i)}) for i in self.nb[v]])
            elif v in self.evars:
                pools.append(
                    [(sp, {v: sp}) for sp in _entity_spans(self.sent, self.evars[v])]
                )
            elif v in self.span_results:
                pools.append(self.span_results[v])
            else:
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


def eval_sentence_timed(
    sent: Sentence, nq: NormQuery, use_gsp: bool = True
) -> tuple[list[dict], float, float]:
    """(rows, gsp_seconds, eval_seconds) — eval excludes plan generation."""
    ev = SentenceEvaluator(sent, nq, use_gsp)
    t0 = perf_counter()
    rows = ev.run()
    total = perf_counter() - t0
    return rows, ev.gsp_s, max(0.0, total - ev.gsp_s)


def evaluate_corpus(
    tokens: DataFrame,
    nq: NormQuery,
    candidate_sids: DataFrame | None = None,
    use_gsp: bool = True,
) -> DataFrame:
    """Distributed extract-clause evaluation: per-sentence evaluation via
    ``applyInPandas`` over DPLI's candidate sentences (all sentences when
    ``candidate_sids`` is None) — the unpruned reference the engine's
    single per-document pass is checked against."""
    if candidate_sids is not None:
        tokens = tokens.join(
            candidate_sids.withColumnRenamed("x", "sid"), "sid", "left_semi"
        )
    fields = [
        T.StructField("doc_id", T.LongType()),
        T.StructField("sid", T.LongType()),
    ] + [T.StructField(v, T.StringType()) for v in emitted_vars(nq)]
    schema = T.StructType(fields)
    cols = [f.name for f in fields]

    def eval_group(pdf: pd.DataFrame) -> pd.DataFrame:
        out: list[dict] = []
        for sent in sentences(pdf):
            out.extend(eval_sentence(sent, nq, use_gsp=use_gsp))
        return pd.DataFrame(out, columns=cols)

    # Group by doc (keeps sentences of a doc together; ``sentences`` cuts
    # them apart inside the UDF to bound the number of Spark groups).
    return tokens.groupBy("doc_id").applyInPandas(eval_group, schema=schema)
