"""Spans and Spark job accounting for the traced run.

The tracer lives in the benchmark process only and touches no file under
``src/``: while ``instrument()`` is active it replaces the public functions
``engine.run`` calls (``normalize.normalize``, ``dpli.run``,
``evaluate.evaluate_corpus``, ``aggregate.apply_clauses``,
``aggregate.score_values``) and ``koko_index.build`` with wrappers that
record a span around each call. The engine looks these functions up on
their modules at call time, so the wrappers see every call it makes.

Each query operation runs under its own Spark job group, and its jobs and
stages are read back from ``statusTracker``. Row counts the engine does
not return are taken by *probes*: small count jobs on DataFrames the
engine has already cached, run under a separate job group so that
``spark.jobs`` counts only the engine's own jobs. A probe's wall time is
recorded as a span and subtracted from the stage timer it falls inside.

Spans are kept in memory and written once, by ``dump``, when the run ends.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from pyspark.sql import SparkSession

from repro.indexing import koko_index
from repro.koko import aggregate, dpli, evaluate, normalize


@dataclass
class Span:
    name: str
    op: str | None          # the query operation the span belongs to
    id: int
    parent: int | None
    start: float            # seconds since the tracer was created
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class OpCounts:
    """What the wrappers and probes saw during one query operation."""
    op: str = ""                     # the operation's Spark job group
    load_article_rows: int = 0
    extract_rows: int = 0
    extracted_sentences: int = 0
    satisfying_values_in: int = 0
    probe_s_extract: float = 0.0     # probe time inside the extract timer
    probe_s_satisfying: float = 0.0  # probe time inside the satisfying timer


class Tracer:
    def __init__(self, spark: SparkSession) -> None:
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self.ops: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._counts = OpCounts()
        self._n_ops = 0
        self._t0 = perf_counter()

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        sp = Span(
            name=name,
            op=self._op,
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            start=perf_counter() - self._t0,
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = perf_counter() - self._t0
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, before: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                if before is not None:
                    before(*args)
                return fn(*args, **kwargs)

        return wrapper

    # -- probes ----------------------------------------------------------
    def _probe(self, what: str, count: Callable[[], int]) -> tuple[int, float]:
        group = self.sc.getLocalProperty("spark.jobGroup.id")
        self.sc.setJobGroup(f"{group}.probe", "kokobench probe")
        try:
            with self.span(f"probe.{what}") as sp:
                n = count()
        finally:
            self.sc.setJobGroup(group, "kokobench query")
        return n, sp.end - sp.start

    def _before_evaluate(self, articles, *_):
        n, secs = self._probe("load_article.rows", articles.count)
        self._counts.load_article_rows = n
        self._counts.probe_s_extract += secs

    def _before_apply(self, _tokens, extractions, *_):
        n, s1 = self._probe("extract.rows", extractions.count)
        m, s2 = self._probe(
            "extract.sentences", lambda: extractions.select("sid").distinct().count()
        )
        self._counts.extract_rows = n
        self._counts.extracted_sentences = m
        self._counts.probe_s_satisfying += s1 + s2

    def _before_score(self, _tokens, candidates, *_):
        self._counts.satisfying_values_in += len(candidates)

    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Replace the layer entry points with span-recording wrappers."""
        targets = [
            (normalize, "normalize", None),
            (dpli, "run", None),
            (evaluate, "evaluate_corpus", self._before_evaluate),
            (aggregate, "apply_clauses", self._before_apply),
            (aggregate, "score_values", self._before_score),
            (koko_index, "build", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, before in targets:
                name = f"{mod.__name__.removeprefix('repro.')}.{attr}"
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, before))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- one query operation ---------------------------------------------
    @contextmanager
    def query_op(self, query: str) -> Iterator[OpCounts]:
        """Trace one ``engine.run``: job group, root span, wrappers."""
        self._n_ops += 1
        op = f"{query}#{self._n_ops}"
        self._op = op
        self._counts = OpCounts(op=op)
        self.sc.setJobGroup(op, "kokobench query")
        try:
            with self.instrument(), self.span("engine.run", query=query):
                yield self._counts
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self._op = None

    def jobs_and_stages(self, op: str) -> tuple[int, int]:
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(op)
        stages: set[int] = set()
        for j in jobs:
            info = st.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        return len(jobs), len(stages)

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "ops": self.ops, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc, indent=1))
