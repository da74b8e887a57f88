"""The differential vertex-centric engine — this repo's substitute for
Differential Dataflow (see DESIGN.md §2/§3 for the full rationale).

An algorithm is an :class:`AlgoSpec` with Jacobi-from-init semantics::

    S_0     = init
    S_i(v)  = update(init(v), agg over in-edges (u,v): message(S_{i-1}(u), w, deg(u)))

so ``S_i`` is the *exact* iteration-i trajectory state — DD's state at
timestamp ``<view, i>``. The engine keeps the whole trajectory (history).

Execution modes (both through :func:`run_view`):

- **scratch** (``prev=None``): frontier-based — iteration i only recomputes
  out-neighbours of vertices whose value changed at i−1. This matches the
  paper's observation (§5) that "running from scratch" still shares
  computation *across iterations* because the program stays differential.
- **advance** (``prev`` = the previous view's :class:`RunResult`): replays
  the trajectory against the new view's edges, recomputing only *affected*
  vertices — dst endpoints of the edge diff δ (every iteration) plus
  out-neighbours of vertices whose value diverged from the old trajectory.
  Unaffected vertices inherit the old trajectory value without any work,
  which is DD's "empty input differences ⇒ empty output differences".

State layout: ``vids`` is the sorted int64 vertex-id array and ``Q`` the
spec's key count (1, or the number of MPSP queries). Key ``q`` of vertex
``v`` lives at position ``searchsorted(vids, v)·Q + q`` of every state
array, so keyed and plain specs share one code path.

One round kernel, two backends: the in-edges feeding the affected
positions are gathered from the view's CSR index, and each carries
``message(val, weight, deg)``. Rounds with at most
:data:`LOCAL_AGG_THRESHOLD` messages reduce them at the driver as a NumPy
segment reduce (DD's in-memory arrangements); larger rounds run the same
join + groupBy as a Spark job over the view's cached edge stream. A spec's
``message`` uses arithmetic operators only, so the one method runs on NumPy
arrays and on Spark Columns. ``deg`` (the source's out-degree) is never 0:
a message only travels on an out-edge of its source in the same view.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_AGG_FN = {"min": F.min, "max": F.max, "sum": F.sum}
_REDUCE = {"min": np.minimum, "max": np.maximum, "sum": np.add}

#: shuffle partitions used for engine jobs (reproduction-scale graphs are
#: small; the session default of 64 would be pure scheduler overhead).
ENGINE_SHUFFLE_PARTITIONS = "8"

#: Small-delta fast path: when one dataflow round carries at most this many
#: messages, its aggregate is computed at the driver instead of scheduling
#: a Spark job. This is the PySpark equivalent of DD doing tiny-difference
#: work directly in its in-memory arrangements — without it, fixed per-job
#: scheduling cost would hide the work-proportional-to-differences
#: behaviour the paper measures. Large rounds (scratch runs, saturated
#: affected sets) still execute as Spark dataflow jobs.
LOCAL_AGG_THRESHOLD = 4000

_NO_POS = np.empty(0, dtype="int64")


@contextmanager
def engine_conf(spark: SparkSession):
    """Temporarily lower shuffle partitions for the engine's small jobs."""
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", ENGINE_SHUFFLE_PARTITIONS)
    try:
        yield
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)


class _CSR:
    """Sorted-key adjacency index (DD's indexed arrangement): maps a set of
    keys to the concatenation of their value lists in O(|query| log n)."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.v = values[order]
        self.uk, starts = np.unique(keys[order], return_index=True)
        self.indptr = np.append(starts, len(keys)).astype("int64")

    def gather(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values for every key in ``query``, concatenated in query order,
        and how many each query key contributed (0 for absent keys)."""
        at = np.searchsorted(self.uk, query)
        hit = at < len(self.uk)
        hit[hit] = self.uk[at[hit]] == query[hit]
        starts = np.where(hit, self.indptr[np.where(hit, at, 0)], 0)
        counts = np.where(hit, self.indptr[np.where(hit, at + 1, 0)] - starts, 0)
        ends = np.cumsum(counts)
        take = np.arange(ends[-1] if len(ends) else 0) - np.repeat(
            ends - counts - starts, counts
        )
        return self.v[take], counts


class ViewEdges:
    """One view's edge stream: a driver-side edge list with CSR indices,
    plus a Spark frame created and cached on first use, i.e. only when a
    dataflow round is too large for the driver (:data:`LOCAL_AGG_THRESHOLD`).

    ``undirected=True`` symmetrizes the edge set (WCC propagates both ways).
    """

    def __init__(
        self, spark: SparkSession, edges_pd: pd.DataFrame, *, undirected: bool = False
    ) -> None:
        e = edges_pd[["src", "dst"] + (["weight"] if "weight" in edges_pd else [])]
        e = e.copy()
        if "weight" not in e.columns:
            e["weight"] = 1.0
        if undirected:
            rev = e.rename(columns={"src": "dst", "dst": "src"})
            e = (
                pd.concat([e, rev[["src", "dst", "weight"]]], ignore_index=True)
                .drop_duplicates(["src", "dst"])
                .reset_index(drop=True)
            )
        e["src"] = e["src"].astype("int64")
        e["dst"] = e["dst"].astype("int64")
        e["weight"] = e["weight"].astype("float64")
        self.pd = e.reset_index(drop=True)
        self.src = self.pd["src"].to_numpy()
        self.dst = self.pd["dst"].to_numpy()
        self.weight = self.pd["weight"].to_numpy()
        self.undirected = undirected
        self._spark = spark
        self._sdf: DataFrame | None = None

    @property
    def sdf(self) -> DataFrame:
        """The edge stream as a cached Spark frame (lazy)."""
        if self._sdf is None:
            self._sdf = self._spark.createDataFrame(
                self.pd, schema="src long, dst long, weight double"
            ).coalesce(4).cache()
        return self._sdf

    @property
    def n_edges(self) -> int:
        return len(self.pd)

    @property
    def out_adj(self) -> _CSR:
        """src → dst adjacency index (lazy)."""
        if getattr(self, "_out_adj", None) is None:
            self._out_adj = _CSR(self.src, self.dst)
        return self._out_adj

    @property
    def in_rows(self) -> _CSR:
        """dst → edge-row-position index (lazy)."""
        if getattr(self, "_in_rows", None) is None:
            self._in_rows = _CSR(self.dst, np.arange(len(self.pd), dtype="int64"))
        return self._in_rows

    def out_degree(self, vids: np.ndarray) -> np.ndarray:
        """Out-degree aligned to ``vids`` (float64, zeros for absent)."""
        counts = self.pd.groupby("src").size()
        return counts.reindex(vids, fill_value=0).to_numpy(dtype="float64")

    def unpersist(self) -> None:
        if self._sdf is not None:
            self._sdf.unpersist()
            self._sdf = None


class AlgoSpec:
    """Base class for engine algorithms. Subclasses set the class attrs and
    implement :meth:`init_values`, :meth:`message`, :meth:`update`.

    State is laid out over the sorted vertex ids ``vids`` with ``n_keys``
    keys per vertex (see the module docstring)."""

    name: str = "algo"
    agg: str = "min"  # min | max | sum
    fixed_iters: int | None = None  # run exactly this many iterations (PR)
    uses_degree: bool = False  # message reads src out-degree (PR)
    undirected: bool = False  # symmetrize edges (WCC)
    n_keys: int = 1  # state keys per vertex, Q (MPSP: one per query)
    supports_advance: bool = True  # False → executor falls back to scratch
    tol: float = 0.0  # change-detection tolerance

    # ---- to implement -------------------------------------------------
    def init_values(self, vids: np.ndarray) -> np.ndarray:
        """Trajectory state at iteration 0 (float64, ``len(vids)·n_keys``)."""
        raise NotImplementedError

    def message(self, val, weight, deg):
        """The message an edge carries, from the source's state ``val``, the
        edge ``weight`` and the source's out-degree ``deg`` (≥ 1, since a
        message travels on an out-edge of its source). Written with
        arithmetic operators only, so it runs unchanged on NumPy arrays
        (driver rounds) and on Spark Columns (Spark rounds)."""
        raise NotImplementedError

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        """Combine init with the (NaN-where-absent) aggregate."""
        raise NotImplementedError

    def no_fixpoint(self, limit: int) -> Exception:
        """The error raised when a run finds no fixpoint within ``limit``
        iterations."""
        return RuntimeError(f"{self.name}: no fixpoint within {limit} iterations")

    # ---- defaults ------------------------------------------------------
    @property
    def filters_identity(self) -> bool:
        """Whether ±inf states are aggregation identities whose messages can
        be skipped (true for min/max shortest-path style algorithms)."""
        return self.agg in ("min", "max")


@dataclass
class RunResult:
    """Outcome of running a spec on one view: the full trajectory plus
    run metrics. ``history[i]`` is the exact iteration-i state, laid out
    over the sorted vertex ids ``idx`` with ``spec.n_keys`` keys each."""

    spec: AlgoSpec
    view: ViewEdges
    idx: np.ndarray
    history: list[np.ndarray]
    deg: np.ndarray | None
    seconds: float
    iters: int
    affected_total: int
    spark_jobs: int
    mode: str  # "scratch" | "diff"
    extras: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.history[-1]

    def final_pd(self) -> pd.DataFrame:
        """Final state as a tidy frame (vid[, q], val)."""
        Q = self.spec.n_keys
        if Q == 1:
            return pd.DataFrame({"vid": self.idx, "val": self.final()})
        return pd.DataFrame({
            "vid": np.repeat(self.idx, Q),
            "q": np.tile(np.arange(Q, dtype="int64"), len(self.idx)),
            "val": self.final(),
        })


# ----------------------------------------------------------------- helpers
def _locate(vids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of ``keys`` in the sorted ``vids``; every key must be in it."""
    at = np.searchsorted(vids, keys)
    bad = at >= len(vids)
    bad[~bad] = vids[at[~bad]] != keys[~bad]
    if bad.any():
        raise ValueError(f"edge endpoint {keys[bad][0]} is not in the vertex set")
    return at


def _all_keys(vpos: np.ndarray, Q: int) -> np.ndarray:
    """Every state position (each q) of the vertices at ``vpos``, sorted."""
    return np.unique((vpos[:, None] * Q + np.arange(Q)).ravel())


def _expand_out_neighbours(
    vids: np.ndarray, Q: int, view: ViewEdges, changed_pos: np.ndarray
) -> np.ndarray:
    """Positions of out-neighbours (in the new view) of changed keys, each
    under the key ``q`` of the change."""
    dsts, counts = view.out_adj.gather(vids[changed_pos // Q])
    q = np.repeat(changed_pos % Q, counts)
    return np.unique(np.searchsorted(vids, dsts) * Q + q)


def _in_edge_subset(
    vids: np.ndarray, Q: int, view: ViewEdges, aff_pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One message per in-edge of each affected key: the edge rows, the
    destination positions (nondecreasing, as ``aff_pos`` is sorted) and
    the source positions whose state the messages read."""
    rows, counts = view.in_rows.gather(vids[aff_pos // Q])
    dst_pos = np.repeat(aff_pos, counts)
    src_pos = np.searchsorted(vids, view.src[rows]) * Q + dst_pos % Q
    return rows, dst_pos, src_pos


def _segment_reduce(
    spec: AlgoSpec,
    view: ViewEdges,
    Q: int,
    state: np.ndarray,
    deg: np.ndarray | None,
    rows: np.ndarray,
    dst_pos: np.ndarray,
    src_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The driver backend: messages of the gathered in-edges, reduced per
    destination position. ``dst_pos`` is nondecreasing, so each position's
    messages form one contiguous segment. Returns (positions, agg)."""
    val = state[src_pos]
    if spec.filters_identity:
        keep = np.isfinite(val)
        rows, dst_pos, src_pos, val = rows[keep], dst_pos[keep], src_pos[keep], val[keep]
    if len(rows) == 0:
        return _NO_POS, np.empty(0)
    msg = spec.message(
        val, view.weight[rows], None if deg is None else deg[src_pos // Q]
    )
    starts = np.flatnonzero(np.diff(dst_pos, prepend=-1))
    return dst_pos[starts], _REDUCE[spec.agg].reduceat(msg, starts)


def _aggregate(
    spark: SparkSession,
    view: ViewEdges,
    spec: AlgoSpec,
    vids: np.ndarray,
    Q: int,
    state: np.ndarray,
    deg: np.ndarray | None,
    src_pos: np.ndarray,
    aff_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The Spark backend: messages = edges ⋈ state, restricted to affected
    destinations, then groupBy aggregation. Returns (positions, agg)."""
    if spec.filters_identity:
        src_pos = src_pos[np.isfinite(state[src_pos])]
    if len(src_pos) == 0:
        return _NO_POS, np.empty(0)
    st = pd.DataFrame(
        {"vid": vids[src_pos // Q], "q": src_pos % Q, "val": state[src_pos]}
    )
    schema = "vid long, q long, val double"
    if deg is not None:
        st["deg"] = deg[src_pos // Q]
        schema += ", deg double"
    # The state and affected-set frames are small driver-built relations —
    # DD co-locates them with the edge arrangement, so they are broadcast
    # explicitly (the session default disables *automatic* broadcasts). The
    # aggregation below still shuffles, sized by the actual message volume,
    # which is exactly DD's work-proportional-to-differences cost model.
    st_sdf = F.broadcast(spark.createDataFrame(st, schema=schema))
    e = view.sdf
    msgs = e.join(st_sdf, e.src == st_sdf.vid).select(
        e.dst.alias("vid"),
        st_sdf.q,
        spec.message(F.col("val"), F.col("weight"), F.col("deg")).alias("msg"),
    )
    if len(aff_pos) < len(state):  # a round over every key needs no filter
        aff = pd.DataFrame({"vid": vids[aff_pos // Q], "q": aff_pos % Q})
        aff_sdf = spark.createDataFrame(aff, schema="vid long, q long")
        msgs = msgs.join(F.broadcast(aff_sdf), on=["vid", "q"], how="left_semi")
    agg = msgs.groupBy("vid", "q").agg(_AGG_FN[spec.agg]("msg").alias("agg")).toPandas()
    pos = np.searchsorted(vids, agg["vid"].to_numpy()) * Q + agg["q"].to_numpy()
    return pos.astype("int64"), agg["agg"].to_numpy(dtype="float64")


def _effective_delta_dirty(
    spec: AlgoSpec,
    vids: np.ndarray,
    prev_view: ViewEdges,
    new_view: ViewEdges,
    delta_pd: pd.DataFrame | None,
) -> np.ndarray:
    """Positions (every q) affected by the edge diff at *every* iteration:
    dst endpoints of δ. For undirected specs both endpoints of δ are
    marked: an edge of the symmetrized view changes only if u→v or v→u is
    in δ, so this is a safe superset of the symmetrized views' diff (which
    can be smaller, e.g. when one edge of a reciprocal pair leaves).
    Without a fed δ, the diff is recomputed from the two views."""
    if delta_pd is None:
        a = prev_view.pd[["src", "dst", "weight"]]
        b = new_view.pd[["src", "dst", "weight"]]
        m = a.merge(b, on=["src", "dst", "weight"], how="outer", indicator=True)
        dsts = m.loc[m["_merge"] != "both", "dst"]
    elif spec.undirected:
        dsts = pd.concat([delta_pd["src"], delta_pd["dst"]], ignore_index=True)
    else:
        dsts = delta_pd["dst"]
    return _all_keys(_locate(vids, dsts.to_numpy(dtype="int64")), spec.n_keys)


def run_view(
    spark: SparkSession,
    view: ViewEdges,
    spec: AlgoSpec,
    vertices: pd.DataFrame,
    *,
    prev: RunResult | None = None,
    delta_pd: pd.DataFrame | None = None,
    max_iters: int | None = None,
) -> RunResult:
    """Run ``spec`` on ``view`` — from scratch (``prev=None``) or
    differentially against the previous view's trajectory. Every edge
    endpoint must be in ``vertices``."""
    t_start = time.perf_counter()
    if prev is not None and prev.spec is not spec and prev.spec.name != spec.name:
        raise ValueError("advance must reuse the same algorithm spec")
    vids = (
        prev.idx
        if prev is not None
        else np.unique(vertices["vid"].to_numpy(dtype="int64"))
    )
    _locate(vids, view.src)
    _locate(vids, view.dst)
    Q = spec.n_keys
    init = spec.init_values(vids)
    deg = view.out_degree(vids) if spec.uses_degree else None
    # Each key's fixpoint needs at most |V| rounds, plus the round that
    # shows no change.
    limit = max_iters if max_iters is not None else len(vids) + 2
    if spec.fixed_iters is not None:
        limit = spec.fixed_iters

    hist_old = prev.history if prev is not None else None
    horizon = len(hist_old) - 1 if prev is not None else 0

    states: list[np.ndarray] = [init.copy()]
    if prev is None:
        dirty = _NO_POS
        changed = None  # sentinel: "everything" (first scratch round)
    else:
        dirty = _effective_delta_dirty(spec, vids, prev.view, view, delta_pd)
        if spec.uses_degree:
            # A vertex whose out-degree changed emits different messages at
            # *every* iteration (msg = f(val, deg)), so its out-neighbours
            # in the new view are permanently dirty, like δ endpoints.
            deg_changed = _all_keys(np.flatnonzero(deg != prev.deg), Q)
            dirty = np.union1d(
                dirty, _expand_out_neighbours(vids, Q, view, deg_changed)
            )
        changed = _NO_POS

    total_affected = 0
    jobs = 0
    local_rounds = 0
    affected_per_iter: list[int] = []
    changed_per_iter: list[int] = []
    it = 0
    while it < limit:
        it += 1
        # ---- affected set -------------------------------------------------
        if changed is None:
            aff_pos = np.arange(len(init), dtype="int64")
        else:
            nbrs = _expand_out_neighbours(vids, Q, view, changed)
            aff_pos = np.union1d(dirty, nbrs)
        base = states[it - 1] if prev is None else hist_old[min(it, horizon)]
        total_affected += len(aff_pos)
        state_i = base.copy()
        changed = _NO_POS
        if len(aff_pos):
            # ---- one dataflow round -----------------------------------------
            rows, dst_pos, src_pos = _in_edge_subset(vids, Q, view, aff_pos)
            if len(rows) <= LOCAL_AGG_THRESHOLD:
                g_pos, g_agg = _segment_reduce(
                    spec, view, Q, states[it - 1], deg, rows, dst_pos, src_pos
                )
                local_rounds += 1
            else:
                g_pos, g_agg = _aggregate(
                    spark, view, spec, vids, Q, states[it - 1], deg,
                    np.unique(src_pos), aff_pos,
                )
                jobs += 1
            agg_arr = np.full(len(aff_pos), np.nan)
            agg_arr[np.searchsorted(aff_pos, g_pos)] = g_agg
            new_vals = spec.update(init[aff_pos], agg_arr)
            with np.errstate(invalid="ignore"):
                diff = ~np.isclose(
                    new_vals, base[aff_pos], rtol=0.0, atol=spec.tol, equal_nan=True
                )
            changed = aff_pos[diff]
            state_i[aff_pos] = new_vals
        states.append(state_i)
        affected_per_iter.append(int(len(aff_pos)))
        changed_per_iter.append(int(len(changed)))
        if spec.fixed_iters is None:
            # Fixpoint: past the old horizon (histories always end with two
            # equal states, so the base is already frozen at `horizon`) and
            # the new trajectory stopped moving. `changed` (divergence from
            # the *old* trajectory) can stay non-empty forever after a
            # permanent value shift, so it must not gate termination.
            if it >= horizon and np.array_equal(states[it], states[it - 1]):
                break
    else:
        if spec.fixed_iters is None:
            raise spec.no_fixpoint(limit)

    return RunResult(
        spec=spec,
        view=view,
        idx=vids,
        history=states,
        deg=deg,
        seconds=time.perf_counter() - t_start,
        iters=it,
        affected_total=total_affected,
        spark_jobs=jobs,
        mode="scratch" if prev is None else "diff",
        extras={
            "affected_per_iter": affected_per_iter,
            "changed_per_iter": changed_per_iter,
            "local_rounds": local_rounds,
        },
    )
