"""The benchmark's workloads: set-up, reference results, timed loop.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. Inputs come from the
workload seed only; the program sees the generated corpus and queries.

- ``selective``: Title (§6.3) on ``wiki_corpus``. DPLI keeps under 2% of
  the sentences, so time goes to index lookup, LoadArticle and the Spark
  jobs of the query, with almost no UDF Python work.
- ``unselective``: ``queries.cafe(0.6)`` (descriptors on) on
  ``cafe_corpus(style="sprudge")``. About half the sentences are
  candidates and the satisfying clause runs the evidence scan, so time
  goes to the per-document UDFs: decode, Arrow transfer, mention finding
  and descriptor scoring.

One *round* runs each of the workload's queries once. An untimed warm-up
round precedes timing; then rounds are repeated until ``seconds`` have
passed, at least one. With a tracer, untraced and traced rounds
alternate, at least three, so a traced run measures its own overhead.
Every result, warm-up included, is compared with the unpruned reference
``apply_clauses(tokens, evaluate_corpus(tokens, nq), nq)``.
"""
from __future__ import annotations

import json
import math
import traceback
from contextlib import nullcontext
from statistics import median
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.corpus import cafes, generator
from repro.indexing import koko_index, stats
from repro.koko import aggregate, engine, evaluate, normalize, queries
from repro.koko.ast import Query

from .tracing import OpCounts, Tracer

SETUP_REPS = 3     # set-ups per run; setup_s is their median
DECODE_DOCS = 30   # documents decoded in the driver to time Sentence.from_pandas


@dataclass(frozen=True)
class Sizes:
    wiki_docs: int = 200   # selective corpus
    cafe_docs: int = 60    # unselective corpus


FULL = Sizes()
TOY = Sizes(wiki_docs=40, cafe_docs=20)


@dataclass(frozen=True)
class Workload:
    corpus: Callable[[SparkSession, Sizes, int], DataFrame]  # (spark, sizes, seed)
    queries: list[tuple[str, Callable[[], Query]]]


WORKLOADS: dict[str, Workload] = {
    "selective": Workload(
        lambda spark, sizes, seed: generator.wiki_corpus(spark, sizes.wiki_docs, seed=seed),
        [("title", queries.title)],
    ),
    "unselective": Workload(
        lambda spark, sizes, seed: cafes.cafe_corpus(
            spark, sizes.cafe_docs, style="sprudge", seed=seed
        ).tokens,
        [("cafe", lambda: queries.cafe(0.6))],
    ),
}

# Per-query layer metrics, reported as "<metric>.<query>".
QUERY_LAYER_METRICS: dict[str, str] = {
    "engine.run_s": "s",
    "dpli.wall_s": "s",
    "dpli.candidates": "count",
    "dpli.effectiveness": "ratio",
    "load_article.wall_s": "s",
    "load_article.rows": "count",
    "spark.jobs": "count",
    "spark.stages": "count",
    "extract.wall_s": "s",
    "extract.loop_s": "s",
    "extract.rows": "count",
    "gsp.plan_ms_per_sentence": "ms",
    "evaluate.eval_ms_per_sentence": "ms",
    "satisfying.wall_s": "s",
    "satisfying.values_in": "count",
    "satisfying.rows_out": "count",
}
RUN_LAYER_METRICS: dict[str, str] = {
    "spark.floor_s": "s",
    "indexing.build_s": "s",
    "indexing.rows": "count",
    "evaluate.decode_ms_per_sentence": "ms",
    "trace.overhead_pct": "%",
}
END_TO_END_METRICS: dict[str, str] = {
    "latency_ms": "ms",
    "setup_s": "s",
    "index_mb": "MB",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = dict(RUN_LAYER_METRICS)
    for q in [q for w in WORKLOADS.values() for q, _ in w.queries]:
        out.update({f"{m}.{q}": u for m, u in QUERY_LAYER_METRICS.items()})
    return out


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str, str]] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def note(self, name: str, value: float, unit: str, how: str = "") -> None:
        self.report.append((name, value, unit, how))


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def _traced(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _release(tokens: DataFrame, index: koko_index.KokoIndex) -> None:
    for df in index.frames().values():
        df.unpersist()
    tokens.unpersist()


def set_up(
    make_corpus: Callable[[], DataFrame], reps: int, tracer: Tracer | None, res: Result
) -> tuple[DataFrame, koko_index.KokoIndex]:
    """Generate the corpus and build and cache its index ``reps`` times.

    ``setup_s`` is the median wall time of one set-up; the last corpus
    and index are kept for the queries.
    """
    setup_s: list[float] = []
    build_s: list[float] = []
    tokens = index = None
    instrument = tracer.instrument() if tracer is not None else nullcontext()
    with instrument:
        for _ in range(reps):
            if tokens is not None:
                _release(tokens, index)
            with _traced(tracer, "setup"):
                t0 = perf_counter()
                tokens = make_corpus().cache()
                tokens.count()
                t1 = perf_counter()
                with _traced(tracer, "indexing.build+cache"):
                    index = koko_index.build(tokens).cache()
                t2 = perf_counter()
            setup_s.append(t2 - t0)
            build_s.append(t2 - t1)
    res.end_to_end["setup_s"] = median(setup_s)
    res.note("setup_s", median(setup_s), "s", f"median of {reps} set-ups")
    res.layers["indexing.build_s"] = median(build_s)
    if tracer is None:
        index_mb = stats.materialized_bytes(index.frames()) / 1e6
        res.end_to_end["index_mb"] = index_mb
        res.note("index_mb", index_mb, "MB", "Parquet bytes of the four index frames")
    else:
        res.layers["indexing.rows"] = float(
            sum(df.count() for df in index.frames().values())
        )
    return tokens, index


def decode_ms_per_sentence(tokens: DataFrame, n_docs: int) -> float:
    """Wall time of ``Sentence.from_pandas`` per sentence, over the
    sentences of the first ``n_docs`` documents."""
    groups = [g for _, g in tokens.where(F.col("doc_id") < n_docs).toPandas().groupby("sid")]
    t0 = perf_counter()
    for g in groups:
        evaluate.Sentence.from_pandas(g)
    return 1000 * (perf_counter() - t0) / len(groups)


def _result_key(df: pd.DataFrame) -> list[str]:
    return sorted(json.dumps(r, default=str) for r in df.values.tolist())


def reference(tokens: DataFrame, query: Query) -> list[str]:
    """The unpruned result: every sentence evaluated, no DPLI."""
    nq = normalize.normalize(query)
    full = aggregate.apply_clauses(tokens, evaluate.evaluate_corpus(tokens, nq), nq)
    return _result_key(full)


def _layer_record(rr: engine.RunResult, counts: OpCounts, tracer: Tracer) -> dict[str, float]:
    t = rr.timings
    jobs, stages = tracer.jobs_and_stages(counts.op)
    n_cand = rr.n_candidate_sentences
    return {
        "dpli.wall_s": t["DPLI"],
        "dpli.candidates": n_cand,
        "dpli.effectiveness": counts.extracted_sentences / n_cand if n_cand else 0.0,
        "load_article.wall_s": t["LoadArticle"],
        "load_article.rows": counts.load_article_rows,
        "spark.jobs": jobs,
        "spark.stages": stages,
        "extract.wall_s": t["extract_wall"] - counts.probe_s_extract,
        "extract.loop_s": t["extract"],
        "extract.rows": counts.extract_rows,
        "gsp.plan_ms_per_sentence": 1000 * t["GSP"] / n_cand if n_cand else 0.0,
        "evaluate.eval_ms_per_sentence": 1000 * t["extract"] / n_cand if n_cand else 0.0,
        "satisfying.wall_s": t["satisfying"] - counts.probe_s_satisfying,
        "satisfying.values_in": counts.satisfying_values_in,
        "satisfying.rows_out": len(rr.results),
    }


def run_workload(
    spark: SparkSession, name: str, seed: int, seconds: float,
    tracer: Tracer | None, sizes: Sizes, res: Result,
) -> None:
    """Set up, check and time one workload; fill ``res``."""
    phase_t0 = perf_counter()

    def phase(what: str) -> None:
        nonlocal phase_t0
        now = perf_counter()
        res.note(f"phase.{what}_s", now - phase_t0, "s", "wall time of this run phase")
        phase_t0 = now

    workload = WORKLOADS[name]
    qdefs = workload.queries
    tokens, index = set_up(lambda: workload.corpus(spark, sizes, seed), SETUP_REPS, tracer, res)
    if tracer is not None:
        res.layers["evaluate.decode_ms_per_sentence"] = decode_ms_per_sentence(
            tokens, DECODE_DOCS
        )
    phase("setup")
    refs = {q: reference(tokens, qf()) for q, qf in qdefs}
    phase("reference")

    def run_op(q: str, qf: Callable[[], Query], traced: bool) -> float | None:
        t0 = perf_counter()
        try:
            if traced:
                with tracer.query_op(q) as counts:
                    rr = engine.run(tokens, index, qf())
            else:
                rr = engine.run(tokens, index, qf())
        except Exception as e:  # an operation that raises counts as failed
            traceback.print_exc()
            res.check(False, f"{q}: {type(e).__name__}: {e}")
            return None
        wall = perf_counter() - t0
        res.check(_result_key(rr.results) == refs[q],
                  f"{q}: result differs from the unpruned reference")
        candidates[q] = rr.n_candidate_sentences
        if traced:
            rec = _layer_record(rr, counts, tracer)
            layer_recs[q].append(rec)
            tracer.ops.append({"op": counts.op, "query": q, "wall_s": wall,
                               "timings": rr.timings, **rec})
        return wall

    layer_recs: dict[str, list[dict[str, float]]] = {q: [] for q, _ in qdefs}
    candidates: dict[str, int] = {}
    for q, qf in qdefs:  # warm-up round: untimed, but checked
        run_op(q, qf, traced=False)
    phase("warmup")

    # Traced runs alternate untraced, traced, untraced, ... rounds, so that
    # each traced round lies between untraced ones.
    modes = [False, True] if tracer is not None else [False]
    min_rounds = 3 if tracer is not None else 1
    walls: dict[bool, dict[str, list[float]]] = {m: {q: [] for q, _ in qdefs} for m in modes}
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or perf_counter() < deadline:
        traced = modes[rounds % len(modes)]
        for q, qf in qdefs:
            wall = run_op(q, qf, traced)
            if wall is not None:
                walls[traced][q].append(wall)
        rounds += 1
    phase("timed")

    plain = walls[False]
    if any(not plain[q] for q, _ in qdefs):
        raise RuntimeError(f"{name}: a query has no successful timed operation")
    _release(tokens, index)
    for q, _ in qdefs:
        res.note(f"{q}_s", median(plain[q]), "s",
                 f"median of {len(plain[q])} warm engine.run, untraced "
                 f"{[round(x, 3) for x in plain[q]]}; {candidates[q]} candidate sentences")
    res.end_to_end["latency_ms"] = 1000 * geomean([median(plain[q]) for q, _ in qdefs])
    if tracer is None:
        return
    for q, _ in qdefs:
        res.layers[f"engine.run_s.{q}"] = median(plain[q])
        for metric in QUERY_LAYER_METRICS:
            if metric != "engine.run_s" and layer_recs[q]:
                res.layers[f"{metric}.{q}"] = median([r[metric] for r in layer_recs[q]])
    if all(walls[True][q] for q, _ in qdefs):
        traced_s = geomean([median(walls[True][q]) for q, _ in qdefs])
        res.layers["trace.overhead_pct"] = 100 * (
            traced_s / geomean([median(plain[q]) for q, _ in qdefs]) - 1
        )
