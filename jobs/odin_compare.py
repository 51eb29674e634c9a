"""§6.3 Odin comparison — Odin-sim (index-free full scan) vs KOKO on the
three scalability queries; reports the slowdown factor next to the
sentences each side evaluates (KOKO: DPLI's candidates; Odin: all).
Each side runs each query once to warm up, then three times; the times
are the medians of those three warm runs.

Usage: python jobs/odin_compare.py [--docs 500]
"""
from __future__ import annotations

import argparse
import statistics
import sys
from time import perf_counter

sys.path.insert(0, "jobs")
from _common import session  # noqa: E402

from repro.baselines import odin
from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import engine, queries


def _warm_median(run):
    """``run()``'s last result and the median wall time of three calls
    made after one untimed warm-up call."""
    res = run()
    times = []
    for _ in range(3):
        t0 = perf_counter()
        res = run()
        times.append(perf_counter() - t0)
    return res, statistics.median(times)


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
        rr, koko_s = _warm_median(lambda: engine.run(tokens, index, qf()))
        o, odin_s = _warm_median(lambda: odin.run(tokens, qf()))
        print(f"{name:<14} {koko_s:>8.2f} {odin_s:>8.2f} {odin_s / koko_s:>8.1f}x "
              f"{rr.n_candidate_sentences:>10} {o.n_sentences:>10}")
    spark.stop()


if __name__ == "__main__":
    main()
