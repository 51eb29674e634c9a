"""Table 1 — KOKO&GSP vs KOKO&noGSP, ms/sentence, atoms ∈ {1,3,5}.

Usage: python jobs/table1_gsp.py [--pairs 24]
"""
from __future__ import annotations

import argparse
import sys
from time import perf_counter

sys.path.insert(0, "jobs")
from _common import session  # noqa: E402

from repro.bench import synthetic_span
from repro.corpus import generator
from repro.koko import evaluate, normalize


def matching_pairs(tokens, n_atoms, n_pairs, pool=80):
    sents = evaluate.sentences(tokens.toPandas())[:pool]
    pairs = []
    for q in synthetic_span.benchmark(tokens, per_setting=60, seed=0):
        if q.n_atoms != n_atoms:
            continue
        nq = normalize.normalize(q.query())
        for s in sents:
            ev = evaluate.SentenceEvaluator(s, nq)
            if all(
                a.kind == "elastic" and a.etype is None or ev.atom_candidates(a)
                for sd in nq.span_defs
                for a in sd.atoms
            ):
                pairs.append((nq, s))
            if len(pairs) >= n_pairs:
                return pairs
    return pairs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=24)
    args = ap.parse_args()
    spark = session("table1")
    corpora = {
        "HappyDB": generator.happy_corpus(spark, 300, seed=17),
        "Wikipedia": generator.wiki_corpus(spark, 40, seed=17),
    }
    print(f"{'corpus':<10} {'atoms':>5} {'GSP ms/sent':>12} {'noGSP ms/sent':>14}")
    for cname, tokens in corpora.items():
        tokens.cache().count()
        for n_atoms in (1, 3, 5):
            pairs = matching_pairs(tokens, n_atoms, args.pairs)
            times = {}
            for mode, use_gsp in (("gsp", True), ("nogsp", False)):
                t0 = perf_counter()
                for nq, s in pairs:
                    evaluate.eval_sentence(s, nq, use_gsp=use_gsp)
                times[mode] = (perf_counter() - t0) * 1000 / max(1, len(pairs))
            print(
                f"{cname:<10} {n_atoms:>5} {times['gsp']:>12.3f} {times['nogsp']:>14.3f}"
            )
    spark.stop()


if __name__ == "__main__":
    main()
