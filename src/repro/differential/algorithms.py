"""The paper's five analytics computations (§7.1) as engine specs.

- :class:`WCC`  — weakly connected components (min label, undirected).
- :class:`BFS`  — breadth-first search levels from a source.
- :class:`BellmanFord` — single-source shortest paths (weighted); the
  paper's running example and Table-2 algorithm.
- :class:`PageRank` — fixed-iteration PR; the canonical *unstable*
  computation (a changed vertex changes *all* its outgoing messages, §5).
- :class:`MPSP` — multiple-pair shortest paths: SSSP for several sources
  keyed by query id; the (src, dst) pair distances are extracted at the end.

SCC is doubly-iterative and lives in :mod:`repro.differential.scc`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.differential.engine import AlgoSpec, RunResult

_INF = float("inf")


def _source_loc(idx: pd.Index, key, vid: int) -> int:
    """Position of a source vertex's state in ``idx``; a source outside the
    vertex set is rejected before any round runs."""
    try:
        return idx.get_loc(key)
    except KeyError:
        raise ValueError(f"source vertex {vid} is not in the vertex set") from None


class _MinDistanceSpec(AlgoSpec):
    """Shared plumbing for min-aggregate distance/label algorithms."""

    agg = "min"

    def build_index(self, vertices: pd.DataFrame) -> pd.Index:
        return pd.Index(
            np.sort(vertices["vid"].to_numpy(dtype="int64")), name="vid"
        )

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        return np.fmin(init_vals, agg_vals)  # NaN agg → init


class WCC(_MinDistanceSpec):
    """Weakly connected components: component id = min vid reachable over
    undirected edges. ``init(v) = v``, ``msg = val``, ``update = min``."""

    name = "WCC"
    undirected = True

    def init_values(self, idx: pd.Index) -> np.ndarray:
        return idx.to_numpy(dtype="float64")

    def message(self) -> Column:
        return F.col("val")

    def message_np(self, val, weight, deg):
        return val


class BFS(_MinDistanceSpec):
    """BFS levels from ``source``: ``msg = val + 1``."""

    name = "BFS"

    def __init__(self, source: int):
        self.source = int(source)

    def init_values(self, idx: pd.Index) -> np.ndarray:
        v = np.full(len(idx), _INF)
        v[_source_loc(idx, self.source, self.source)] = 0.0
        return v

    def message(self) -> Column:
        return F.col("val") + F.lit(1.0)

    def message_np(self, val, weight, deg):
        return val + 1.0


class BellmanFord(_MinDistanceSpec):
    """Single-source shortest paths: ``msg = val + weight`` (paper §2)."""

    name = "BF"

    def __init__(self, source: int):
        self.source = int(source)

    def init_values(self, idx: pd.Index) -> np.ndarray:
        v = np.full(len(idx), _INF)
        v[_source_loc(idx, self.source, self.source)] = 0.0
        return v

    def message(self) -> Column:
        return F.col("val") + F.col("weight")

    def message_np(self, val, weight, deg):
        return val + weight


class PageRank(AlgoSpec):
    """PageRank with a fixed iteration count (DESIGN.md §6): per-vertex rank
    r_i(v) = (1−d) + d · Σ_{u→v} r_{i−1}(u)/outdeg(u); dangling mass dropped.
    The spec is deliberately *unstable* under edge changes: any diff at u
    perturbs every message u emits (paper §5)."""

    name = "PR"
    agg = "sum"
    uses_degree = True

    def __init__(self, iters: int = 10, damping: float = 0.85):
        self.fixed_iters = int(iters)
        self.damping = float(damping)

    def build_index(self, vertices: pd.DataFrame) -> pd.Index:
        return pd.Index(
            np.sort(vertices["vid"].to_numpy(dtype="int64")), name="vid"
        )

    def init_values(self, idx: pd.Index) -> np.ndarray:
        return np.full(len(idx), 1.0)

    def message(self) -> Column:
        return F.when(F.col("deg") > 0, F.col("val") / F.col("deg")).otherwise(
            F.lit(0.0)
        )

    def message_np(self, val, weight, deg):
        return np.where(deg > 0, val / np.where(deg > 0, deg, 1.0), 0.0)

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * np.nan_to_num(agg_vals)


class MPSP(_MinDistanceSpec):
    """Multiple-pair shortest paths: one SSSP per query, run as a single
    keyed computation over state (vid, q). Paper §7.1: 5 (src, dst) pairs,
    src fixed, dst random."""

    name = "MPSP"
    keyed = True

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = [(int(s), int(d)) for s, d in pairs]

    def build_index(self, vertices: pd.DataFrame) -> pd.Index:
        vids = np.sort(vertices["vid"].to_numpy(dtype="int64"))
        return pd.MultiIndex.from_product(
            [vids, np.arange(len(self.pairs), dtype="int64")], names=["vid", "q"]
        )

    def init_values(self, idx: pd.Index) -> np.ndarray:
        v = np.full(len(idx), _INF)
        for q, (s, _) in enumerate(self.pairs):
            v[_source_loc(idx, (s, q), s)] = 0.0
        return v

    def message(self) -> Column:
        return F.col("val") + F.col("weight")

    def message_np(self, val, weight, deg):
        return val + weight

    def pair_distances(self, result: RunResult) -> list[float]:
        """The (src, dst) distance for each query pair."""
        final = result.final()
        return [
            float(final[result.idx.get_loc((d, q))])
            for q, (_, d) in enumerate(self.pairs)
        ]
