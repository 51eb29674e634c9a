"""Table 2 — KOKO per-stage execution time for the three §6.3 queries
(Chocolate / Title / DateOfBirth) with increasing corpus size.

Paper (5K→5M Wikipedia articles, seconds; shape: total time linear in
articles, DPLI share largest for selective queries, extract+satisfying
share largest for unselective ones). We sweep 250→1000 articles here
(larger sweeps via ``jobs/table2_scaleup.py``); stage seconds land in
``extra_info``.
"""
import pytest

from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import engine, queries

SIZES = [500, 2000]
QUERIES = {
    "chocolate": queries.chocolate,
    "title": queries.title,
    "date_of_birth": queries.date_of_birth,
}


@pytest.fixture(scope="module")
def corpora(spark):
    out = {}
    for n in SIZES:
        tokens = generator.wiki_corpus(spark, n, seed=13)
        tokens.cache().count()
        out[n] = (tokens, koko_index.build(tokens).cache())
    return out


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("qname", list(QUERIES))
def test_table2(benchmark, corpora, qname, size):
    tokens, index = corpora[size]
    holder = {}

    def run():
        holder["res"] = engine.run(tokens, index, QUERIES[qname]())

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    res = holder["res"]
    benchmark.extra_info["table"] = "T2"
    benchmark.extra_info["setting"] = f"{qname}/{size}docs"
    for stage in ("Normalize", "DPLI", "LoadArticle", "GSP", "extract", "satisfying"):
        benchmark.extra_info[stage] = round(res.timings[stage], 4)
    benchmark.extra_info["n_results"] = len(res.results)
    benchmark.extra_info["n_candidate_sentences"] = res.n_candidate_sentences
