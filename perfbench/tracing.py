"""Span and counter recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the public calls
into each layer of ``repro``: every span keeps its name, start, end and
parent, and tags the Spark jobs it triggers with a job group of its own so
that ``SparkContext.statusTracker()`` can count them per span afterwards.
The Spark boundary (``createDataFrame``, ``toPandas``, ``collect``) is not a
span; its time, rows and calls are added to counters keyed by the span that
made the call.

Names are bound at import time (``repro.core.executor`` imports ``run_view``
and ``ViewEdges`` by name), so :meth:`Tracer.instrument` patches the name
the caller looks up, and restores every patched name on exit.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    jobs: int = 0
    jobs_failed: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counters of one traced iteration; keep one per iteration."""

    sc: object  # pyspark SparkContext
    tag: str = "t"
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list[Span] = field(default_factory=list)
    _in_boundary: bool = False

    # ------------------------------------------------------------ spans
    def _group(self, span: Span) -> str:
        return f"{self.tag}-{span.id}"

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, None if parent is None else parent.id, 0.0)
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(self._group(s), name)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)
            else:
                self.sc.setJobGroup(self._group(parent), parent.name)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def collect_jobs(self) -> None:
        """Fill every span's Spark job counts from the status tracker. Call
        after the traced work ends (the tracker keeps the latest jobs only)."""
        tracker = self.sc.statusTracker()
        for s in self.spans:
            ids = tracker.getJobIdsForGroup(self._group(s))
            s.jobs = len(ids)
            for j in ids:
                info = tracker.getJobInfo(j)
                if info is not None and info.status == "FAILED":
                    s.jobs_failed += 1

    # ------------------------------------------------------- aggregates
    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the time their children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return sum(s.seconds - child[s.id] for s in self.spans if s.name == name)

    def jobs(self, name: str | None = None) -> int:
        """Spark jobs run while a ``name`` span was innermost (all if None)."""
        return sum(s.jobs for s in self.spans if name is None or s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "jobs": s.jobs, "jobs_failed": s.jobs_failed}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }

    # -------------------------------------------------------- patching
    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _boundary(self, key: str, fn, rows):
        """Wrap a Spark-boundary call: time, rows and calls, per parent span.
        Nested boundary calls (``toPandas`` may call ``collect``) count once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_boundary:
                return fn(*args, **kwargs)
            tracer._in_boundary = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._in_boundary = False
            dt = time.perf_counter() - t0
            parent = tracer._stack[-1].name if tracer._stack else "-"
            n = rows(args, out)
            for k in (key, f"{key}@{parent}"):
                tracer.count(f"{k}.s", dt)
                tracer.count(f"{k}.rows", n)
                tracer.count(f"{k}.calls", 1)
            return out

        return wrapper

    @contextmanager
    def instrument(self, spark):
        """Patch the layer entry points of ``repro`` and the Spark boundary."""
        import repro.core.collection as coll_mod
        import repro.core.diffstream as ds_mod
        import repro.core.executor as exec_mod
        import repro.core.ordering as ord_mod
        from pyspark.sql.classic.dataframe import DataFrame

        def on_run(res) -> None:
            ex = res.extras
            self.count("engine.spark_rounds", res.spark_jobs)
            self.count("engine.local_rounds", ex.get("local_rounds", 0))
            self.count("engine.iters", res.iters)
            self.count("engine.affected", res.affected_total)
            self.count("engine.changed", sum(ex.get("changed_per_iter", [])))

        def rows_of(name):
            def on(out) -> None:
                self.count(f"{name}.rows", len(out))
            return on

        mc = coll_mod.MaterializedCollection
        session_cls = type(spark)
        patches = [
            (coll_mod, "optimize_order", self._wrap("ordering", coll_mod.optimize_order)),
            (ord_mod, "hamming_matrix", self._wrap("ordering.hamming", ord_mod.hamming_matrix)),
            (ds_mod, "diff_counts", self._wrap("diffstream.counts", ds_mod.diff_counts)),
            (ds_mod, "view_sizes", self._wrap("diffstream.sizes", ds_mod.view_sizes)),
            (mc, "view_edges_pd", self._wrap(
                "collection.view_edges", mc.view_edges_pd, rows_of("collection.view_edges"))),
            (mc, "delta_pd", self._wrap(
                "collection.delta", mc.delta_pd, rows_of("collection.delta"))),
            (exec_mod, "ViewEdges", self._wrap("engine.view_build", exec_mod.ViewEdges)),
            (exec_mod, "run_view", self._wrap("engine.run_view", exec_mod.run_view, on_run)),
            (session_cls, "createDataFrame", self._boundary(
                "spark.to_jvm", session_cls.createDataFrame,
                lambda a, out: len(a[1]) if len(a) > 1 and hasattr(a[1], "__len__") else 0)),
            (DataFrame, "toPandas", self._boundary(
                "spark.to_py", DataFrame.toPandas, lambda a, out: len(out))),
            (DataFrame, "collect", self._boundary(
                "spark.to_py", DataFrame.collect, lambda a, out: len(out))),
        ]
        saved = [(obj, attr, vars(obj).get(attr, _MISSING)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                if old is _MISSING:
                    delattr(obj, attr)  # the name was inherited, not defined here
                else:
                    setattr(obj, attr, old)
