"""View-collection materialization (paper §3.2.1, steps 1–3) and the
materialized-collection handle the Analytics Computation Executor consumes.

``materialize_collection`` runs the three-step pipeline:

1. :func:`repro.core.ebm.compute_ebm` — edge boolean matrix, one Spark
   query whose result :func:`repro.core.ebm.collect_ebm` lands at the driver
   through Arrow as the collection's arrangement (edge columns plus a bool
   matrix), with no cached EBM and no second pass;
2. :func:`repro.core.ordering.optimize_order` — CBMP_1.5 ordering
   (Algorithm 1's Hamming matrix on the driver + Christofides), or a
   user/"given" order;
3. the edge difference stream, sized exactly off the Hamming matrix of
   Algorithm 1: |GV_t| is the distance of view t from the padded zero
   column and |δC_t| the distance between consecutive views. The matrix is
   computed here for every order (the paper's collection creation time,
   CCT, covers exactly these steps).
   :func:`repro.core.diffstream.diff_stream` is the reference
   materialization of the stream itself.

:class:`MaterializedCollection` exposes per-view edge sets and per-
transition difference sets δC_t as column masks over that arrangement, with
no Spark job. Artificial collections built from explicit edge sets (paper
§5's controlled experiment, our Table 2) go through :func:`from_edge_sets`,
which builds the arrangement directly and fabricates the equivalent EBM
frame, so every collection takes the same code path downstream.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession

from repro.core import ordering
from repro.core.ebm import BITS, collect_ebm, compute_ebm
from repro.core.ordering import optimize_order
from repro.gvdl import parse, to_spark_column
from repro.gvdl.parser import ViewCollectionDef
from repro.storage.store import GraphStore


@dataclass
class MaterializedCollection:
    """An ordered view collection backed by a driver-side EBM arrangement.

    ``names``/``order`` are aligned: ``names[t]`` is the view executed at
    timestamp t, which is EBM column ``order[t]``. ``edges`` holds the EBM's
    (src, dst, weight) rows and ``bits`` their (rows × k) bool matrix in EBM
    column order. ``ebm`` is the (uncached) Spark frame they were collected
    from. ``hamming`` is the (k+1)×(k+1) matrix of Algorithm 1 (row/column 0
    is the empty view). ``views`` memoizes the analytics executor's per-view
    edge streams, keyed by ``(t, undirected)``, so every run over the
    collection shares them.
    """

    spark: SparkSession
    name: str
    names: list[str]
    order: list[int]
    ebm: DataFrame
    vertices: pd.DataFrame
    view_sizes: list[int]
    diff_counts: list[int]
    hamming: np.ndarray
    edges: pd.DataFrame = field(repr=False)
    bits: np.ndarray = field(repr=False)
    cct: dict = field(default_factory=dict)
    views: dict = field(default_factory=dict, repr=False)

    @property
    def k(self) -> int:
        return len(self.order)

    def view_edges_pd(self, t: int) -> pd.DataFrame:
        """Edge set (src, dst, weight) of the t-th view in collection order."""
        return self.edges[self.bits[:, self.order[t]]].reset_index(drop=True)

    def delta_pd(self, t: int) -> pd.DataFrame:
        """δC_t as (src, dst, weight, sign ±1); t ≥ 1."""
        if t < 1:
            raise ValueError("δC_0 is the first view itself; use view_edges_pd(0)")
        a, b = self.bits[:, self.order[t - 1]], self.bits[:, self.order[t]]
        flip = a != b
        out = self.edges[flip].reset_index(drop=True)
        out["sign"] = np.where(b[flip], 1, -1).astype("int32")
        return out

    def unpersist(self) -> None:
        """Release the memoized views' Spark frames and the arrangement; the
        collection serves no view or δ afterwards."""
        for view in self.views.values():
            view.unpersist()
        self.views.clear()
        self.edges = self.bits = None


def _finish(
    spark: SparkSession,
    name: str,
    names_by_col: list[str],
    ebm: DataFrame,
    edges: pd.DataFrame,
    bits: np.ndarray,
    vertices: pd.DataFrame,
    order,
    cct: dict,
) -> MaterializedCollection:
    k = len(names_by_col)
    hamming = None
    t0 = time.perf_counter()
    if order == "optimize":
        order, hamming = optimize_order(bits)
    elif order == "given":
        order = list(range(k))
    else:
        order = list(order)
        if sorted(order) != list(range(k)):
            raise ValueError("explicit order must be a permutation of views")
    cct["ordering"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if hamming is None:
        hamming = ordering.hamming_matrix(bits)
    cols = [0] + [c + 1 for c in order]
    sizes = [int(hamming[0, c]) for c in cols[1:]]
    counts = [int(hamming[cols[t], cols[t + 1]]) for t in range(k)]
    cct["diffstream"] = time.perf_counter() - t0
    cct["total"] = sum(cct.values())
    return MaterializedCollection(
        spark=spark,
        name=name,
        names=[names_by_col[c] for c in order],
        order=order,
        ebm=ebm,
        vertices=vertices,
        view_sizes=sizes,
        diff_counts=counts,
        hamming=hamming,
        edges=edges,
        bits=bits,
        cct=cct,
    )


def materialize_collection(
    store: GraphStore,
    name: str,
    views: list[tuple[str, Column]],
    *,
    order: "str | list[int]" = "optimize",
    weight_col: str | None = None,
) -> MaterializedCollection:
    """Run the 3-step pipeline for predicate-defined views.

    ``order`` is ``"optimize"`` (paper's optimizer), ``"given"`` (user
    order, e.g. Listing 3's D1..D34), or an explicit permutation (used for
    the random-order baselines R1–R3 in Table 4).
    """
    cct: dict = {}
    t0 = time.perf_counter()
    ebm = compute_ebm(store, [c for _, c in views], weight_col=weight_col)
    edges, bits = collect_ebm(ebm, len(views))
    cct["ebm"] = time.perf_counter() - t0
    return _finish(
        store.spark,
        name,
        [n for n, _ in views],
        ebm,
        edges,
        bits,
        store.vertices(),
        order,
        cct,
    )


def collection_from_gvdl(
    store: GraphStore,
    text: str,
    *,
    order: "str | list[int]" = "optimize",
    weight_col: str | None = None,
) -> MaterializedCollection:
    """Parse a GVDL ``create view collection`` statement and materialize it."""
    stmt = parse(text)
    if not isinstance(stmt, ViewCollectionDef):
        raise TypeError("expected a 'create view collection' statement")
    views = [(n, to_spark_column(p)) for n, p in stmt.views]
    return materialize_collection(
        store, stmt.name, views, order=order, weight_col=weight_col
    )


def from_edge_sets(
    spark: SparkSession,
    name: str,
    edge_sets: list[pd.DataFrame],
    vertices: pd.DataFrame,
    *,
    names: list[str] | None = None,
) -> MaterializedCollection:
    """Build a collection from explicit per-view edge sets (src, dst[, weight]).

    Fabricates the EBM over the union universe of all edges so artificial
    collections (paper §5's controlled experiment) flow through the same
    executor path as predicate-defined ones. Views keep the given order.
    """
    t0 = time.perf_counter()
    k = len(edge_sets)
    names = names or [f"V{t}" for t in range(k)]
    frames = []
    for t, e in enumerate(edge_sets):
        e = e.copy()
        if "weight" not in e.columns:
            e["weight"] = 1.0
        e["_t"] = t
        frames.append(e[["src", "dst", "weight", "_t"]])
    allp = pd.concat(frames, ignore_index=True)
    # Key on (src, dst, weight): an edge whose weight changes between views
    # becomes a −old/+new difference pair, exactly as in the paper's
    # Table-1 example of cost updates.
    uni = allp.drop_duplicates(["src", "dst", "weight"]).reset_index(drop=True)
    uni["eid"] = np.arange(len(uni), dtype="int64")
    key = uni.set_index(
        pd.MultiIndex.from_arrays([uni.src, uni.dst, uni.weight])
    )["eid"]
    bits = np.zeros((len(uni), k), dtype=bool)
    rows = key.loc[
        pd.MultiIndex.from_arrays([allp.src, allp.dst, allp.weight])
    ].to_numpy()
    bits[rows, allp["_t"].to_numpy()] = True
    ebm_pd = pd.DataFrame(
        {
            "eid": uni.eid.to_numpy(),
            "src": uni.src.to_numpy().astype("int64"),
            "dst": uni.dst.to_numpy().astype("int64"),
            "weight": uni.weight.to_numpy().astype("float64"),
            BITS: bits.tolist(),
        }
    )
    ebm = spark.createDataFrame(
        ebm_pd, schema="eid long, src long, dst long, weight double, bits array<boolean>"
    )
    edges = ebm_pd[["src", "dst", "weight"]]
    cct = {"ebm": time.perf_counter() - t0}
    return _finish(spark, name, names, ebm, edges, bits, vertices, "given", cct)
