"""§6.3 Odin comparison — Odin-sim (index-free full scan) vs KOKO on the
three scalability queries; reports the slowdown factor next to the
sentences each side evaluates (KOKO: DPLI's candidates; Odin: all).

Usage: python jobs/odin_compare.py [--docs 500]
"""
from __future__ import annotations

import argparse
import sys
from time import perf_counter

sys.path.insert(0, "jobs")
from _common import session  # noqa: E402

from repro.baselines import odin
from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import engine, queries


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=500)
    args = ap.parse_args()
    spark = session("odin_compare")
    tokens = generator.wiki_corpus(spark, args.docs, seed=13)
    tokens.cache().count()
    index = koko_index.build(tokens).cache()
    print(f"{'query':<14} {'koko_s':>8} {'odin_s':>8} {'slowdown':>9} "
          f"{'koko_sents':>10} {'odin_sents':>10}")
    for name, qf in (
        ("Chocolate", queries.chocolate),
        ("Title", queries.title),
        ("DateOfBirth", queries.date_of_birth),
    ):
        t0 = perf_counter()
        rr = engine.run(tokens, index, qf())
        koko_s = perf_counter() - t0
        o = odin.run(tokens, qf())
        print(f"{name:<14} {koko_s:>8.2f} {o.seconds:>8.2f} {o.seconds / koko_s:>8.1f}x "
              f"{rr.n_candidate_sentences:>10} {o.n_sentences:>10}")
    spark.stop()


if __name__ == "__main__":
    main()
