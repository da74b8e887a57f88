"""The benchmark's workloads: inputs from a seed, the calls into ``repro``
that one iteration makes, and the independent reference each is checked
against (see ``gate.py``).

An iteration is one closed-loop batch job: set up (generate the frames,
import them into a ``GraphStore`` and fill its caches) → build the view
collection → run one algorithm over every view. Only the public functions
of ``repro`` are called; the table harnesses are not, because they rewrite
the committed ``results/*.json``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

import gate

#: Scale parameters per workload. ``bench`` is what the benchmark measures;
#: ``tiny`` is for the self-test; ``full`` is the scale of the paper tables
#: this repository reproduces (ROADMAP's baseline, Table 4, Table 2's
#: C_large probe), for one-off checks. ``order-10c5`` measures Table 4's
#: size; the others are smaller so that the acceptance runs fit their time
#: budget (NOTES.md compares their job counts at both scales).
SCALES = {
    "slide-wcc-diff": {
        "tiny": {"n_papers": 300},
        "bench": {"n_papers": 1500},
        "full": {"n_papers": 5000},
    },
    "order-10c5": {
        "tiny": {"n_vertices": 300, "n_edges": 3000, "n_top": 6, "k": 3},
        "bench": {"n_vertices": 3000, "n_edges": 30000, "n_top": 10, "k": 5},
        "full": {"n_vertices": 3000, "n_edges": 30000, "n_top": 10, "k": 5},
    },
    "perturb-pr-scratch": {
        "tiny": {"n_vertices": 300, "n_edges": 1200, "n_views": 3},
        "bench": {"n_vertices": 2500, "n_edges": 10000, "n_views": 3},
        "full": {"n_vertices": 20000, "n_edges": 80000, "n_views": 6},
    },
}


@dataclass
class Outputs:
    """What one iteration produced, copied out of the program after timing.

    ``bits`` (edge rows × views, in EBM column order) and ``keys`` are the
    fetched EBM; they are filled for the last measured iteration only.
    """

    order: list[int]
    view_sizes: list[int]
    diff_counts: list[int]
    hamming: np.ndarray | None
    results: list[pd.Series] | None  # per view: value by vertex id
    keys: pd.DataFrame | None = None
    bits: np.ndarray | None = None


@dataclass
class Workload:
    name: str
    params: dict
    seed: int

    # Subclasses define generate() → inputs, setup(spark, inputs, span) →
    # state, create(spark, state) → collection, analytics(coll) → report
    # (or None) and reference(inputs) → gate.Expected.

    #: Timed iterations a run makes at least, whatever ``--seconds`` says.
    #: One suffices where an iteration takes longer than ``--seconds``; the
    #: spread between runs is larger than that within a run.
    min_timed = 1

    def prepare(self, spark) -> None:
        """Build what the user writes once (view definitions); untimed."""

    def outputs(self, coll, report) -> Outputs:
        return Outputs(
            order=list(coll.order),
            view_sizes=list(coll.view_sizes),
            diff_counts=list(coll.diff_counts),
            hamming=None if coll.hamming is None else np.array(coll.hamming),
            results=None
            if report is None
            else [
                pd.Series(r["val"].to_numpy(dtype="float64"), index=r["vid"].to_numpy())
                for r in report.results
            ],
        )

    def fetch_ebm(self, coll, out: Outputs) -> None:
        ebm = coll.ebm.select("eid", "src", "dst", "weight", "bits").toPandas()
        out.keys = ebm[["eid", "src", "dst", "weight"]]
        out.bits = (
            np.vstack(ebm["bits"].to_numpy()).astype(bool)
            if len(ebm)
            else np.zeros((0, len(coll.order)), dtype=bool)
        )

    def teardown(self, store, coll) -> None:
        if coll is not None:
            coll.unpersist()
        if store is not None:
            store.unpersist()


def _store(spark, nodes, edges, name):
    """Import the frames and fill the store's lazy caches."""
    from repro.storage.store import GraphStore

    store = GraphStore(spark, nodes, edges, name=name)
    store.nodes_sdf.count()
    store.edges_sdf.count()
    return store


class SlideWccDiff(Workload):
    """GVDL C_sl (16 overlapping decade windows, given order) → WCC diff."""

    def n_views(self) -> int:
        return 16

    def generate(self):
        from repro.datasets import citation_graph

        return citation_graph(self.params["n_papers"], 5.0, seed=self.seed)

    def setup(self, spark, inputs, span):
        nodes, edges = inputs
        with span("storage.import"):
            return _store(spark, nodes, edges, "citations")

    def create(self, spark, store):
        from repro.core.collection import collection_from_gvdl
        from repro.experiments.table3 import gvdl_c_sl

        return collection_from_gvdl(store, gvdl_c_sl(), order="given")

    def analytics(self, coll):
        from repro.core.executor import run_collection
        from repro.differential.algorithms import WCC

        return run_collection(coll, WCC(), "diff", keep_results=True)

    def reference(self, inputs):
        from repro.experiments.table3 import gvdl_c_sl

        nodes, edges = inputs
        return gate.gvdl_reference(nodes, edges, gvdl_c_sl(), algo="WCC")


class Order10C5(Workload):
    """Community-removal views C(n_top, k) → ``materialize_collection``
    with the ordering optimizer; no analytics."""

    min_timed = 2

    def n_views(self) -> int:
        return math.comb(self.params["n_top"], self.params["k"])

    def generate(self):
        from repro.datasets import community_graph

        p = self.params
        return community_graph(p["n_vertices"], p["n_edges"], 12, seed=self.seed)

    def prepare(self, spark) -> None:
        from repro.experiments.table4 import removal_views

        self.views = removal_views(self.params["n_top"], self.params["k"])

    def setup(self, spark, inputs, span):
        nodes, edges = inputs
        with span("storage.import"):
            return _store(spark, nodes, edges, "communities")

    def create(self, spark, store):
        from repro.core.collection import materialize_collection

        p = self.params
        return materialize_collection(
            store, f"{p['n_top']}C{p['k']}", self.views, order="optimize"
        )

    def analytics(self, coll):
        return None

    def reference(self, inputs):
        nodes, edges = inputs
        return gate.cmask_reference(nodes, edges, self.params["n_top"], self.params["k"])


class PerturbPrScratch(Workload):
    """Table 2's C_large construction (+20 % / −15 % edges per view) over a
    power-law graph → ``from_edge_sets`` → PageRank(10) from scratch."""

    def n_views(self) -> int:
        return self.params["n_views"]

    def generate(self):
        from repro.datasets import social_graph
        from repro.experiments.table2 import build_perturbed_collection

        p = self.params
        n_e = p["n_edges"]
        nodes, all_edges = social_graph(p["n_vertices"], n_e * 3, seed=self.seed)
        base = all_edges.head(n_e).reset_index(drop=True)
        pool = all_edges.tail(len(all_edges) - n_e).reset_index(drop=True)
        views = build_perturbed_collection(
            base, pool, p["n_views"], int(n_e * 0.20), int(n_e * 0.15), seed=self.seed + 2
        )
        return nodes, views

    def setup(self, spark, inputs, span):
        return inputs  # from_edge_sets takes the frames directly; no GraphStore

    def create(self, spark, state):
        from repro.core.collection import from_edge_sets

        nodes, views = state
        return from_edge_sets(spark, "C_large", views, nodes)

    def analytics(self, coll):
        from repro.core.executor import run_collection
        from repro.differential.algorithms import PageRank

        return run_collection(coll, PageRank(iters=10), "scratch", keep_results=True)

    def reference(self, inputs):
        nodes, views = inputs
        return gate.edge_set_reference(nodes, views, algo="PR", pr_iters=10)

    def teardown(self, state, coll) -> None:
        super().teardown(None, coll)


WORKLOADS = {
    "slide-wcc-diff": SlideWccDiff,
    "order-10c5": Order10C5,
    "perturb-pr-scratch": PerturbPrScratch,
}


def make(name: str, scale: str, seed: int) -> Workload:
    return WORKLOADS[name](name=name, params=dict(SCALES[name][scale]), seed=seed)
