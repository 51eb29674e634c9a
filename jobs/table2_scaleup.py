"""Table 2 — KOKO per-stage execution times for Chocolate / Title /
DateOfBirth with increasing corpus size (linearity check). The in-UDF
stage columns are followed by ``extract_wall``, the wall time of the
whole per-document pass (LoadArticle through satisfying, Spark jobs
included).

Usage: python jobs/table2_scaleup.py [--sizes 250,1000,4000]
"""
from __future__ import annotations

import argparse
import sys

sys.path.insert(0, "jobs")
from _common import session  # noqa: E402

from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import engine, queries

STAGES = (
    "Normalize", "DPLI", "LoadArticle", "GSP", "extract", "satisfying", "extract_wall"
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="250,1000,4000")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    spark = session("table2")
    qs = {
        "C": queries.chocolate,
        "T": queries.title,
        "D": queries.date_of_birth,
    }
    header = (
        f"{'q':<2} {'docs':>6} " + " ".join(f"{s:>12}" for s in STAGES)
        + f" {'results':>8} {'cand_sents':>10}"
    )
    print(header)
    for n in sizes:
        tokens = generator.wiki_corpus(spark, n, seed=13)
        tokens.cache().count()
        index = koko_index.build(tokens).cache()
        for name, qf in qs.items():
            res = engine.run(tokens, index, qf())
            row = f"{name:<2} {n:>6} " + " ".join(
                f"{res.timings[s]:>12.3f}" for s in STAGES
            ) + f" {len(res.results):>8} {res.n_candidate_sentences:>10}"
            print(row)
        tokens.unpersist()
    spark.stop()


if __name__ == "__main__":
    main()
