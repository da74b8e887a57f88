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

from repro.differential.engine import AlgoSpec, RunResult

_INF = float("inf")


def _vertex_loc(vids: np.ndarray, vid: int, role: str = "source") -> int:
    """Position of a vertex in the sorted ``vids``; a vertex outside the
    vertex set is rejected before any round runs."""
    at = int(np.searchsorted(vids, vid))
    if at == len(vids) or vids[at] != vid:
        raise ValueError(f"{role} vertex {vid} is not in the vertex set")
    return at


class _MinDistanceSpec(AlgoSpec):
    """Shared plumbing for min-aggregate distance/label algorithms."""

    agg = "min"

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        return np.fmin(init_vals, agg_vals)  # NaN agg → init


class _WeightedPaths(_MinDistanceSpec):
    """Shortest paths over edge weights: ``msg = val + weight``. A weight
    sum that never settles means the weights admit ever shorter walks."""

    def message(self, val, weight, deg):
        return val + weight

    def no_fixpoint(self, limit: int) -> Exception:
        return ValueError(
            f"{self.name}: no fixpoint within {limit} iterations: "
            "a negative cycle is reachable from the source"
        )


class WCC(_MinDistanceSpec):
    """Weakly connected components: component id = min vid reachable over
    undirected edges. ``init(v) = v``, ``msg = val``, ``update = min``."""

    name = "WCC"
    undirected = True

    def init_values(self, vids: np.ndarray) -> np.ndarray:
        return vids.astype("float64")

    def message(self, val, weight, deg):
        return val


class BFS(_MinDistanceSpec):
    """BFS levels from ``source``: ``msg = val + 1``."""

    name = "BFS"

    def __init__(self, source: int):
        self.source = int(source)

    def init_values(self, vids: np.ndarray) -> np.ndarray:
        v = np.full(len(vids), _INF)
        v[_vertex_loc(vids, self.source)] = 0.0
        return v

    def message(self, val, weight, deg):
        return val + 1.0


class BellmanFord(_WeightedPaths):
    """Single-source shortest paths: ``msg = val + weight`` (paper §2)."""

    name = "BF"

    def __init__(self, source: int):
        self.source = int(source)

    def init_values(self, vids: np.ndarray) -> np.ndarray:
        v = np.full(len(vids), _INF)
        v[_vertex_loc(vids, self.source)] = 0.0
        return v


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

    def init_values(self, vids: np.ndarray) -> np.ndarray:
        return np.full(len(vids), 1.0)

    def message(self, val, weight, deg):
        return val / deg  # deg ≥ 1: the message travels on an out-edge

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * np.nan_to_num(agg_vals)


class MPSP(_WeightedPaths):
    """Multiple-pair shortest paths: one SSSP per query, run as a single
    keyed computation with one state key q per pair. Paper §7.1: 5
    (src, dst) pairs, src fixed, dst random."""

    name = "MPSP"

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = [(int(s), int(d)) for s, d in pairs]
        self.n_keys = len(self.pairs)

    def init_values(self, vids: np.ndarray) -> np.ndarray:
        v = np.full(len(vids) * self.n_keys, _INF)
        for q, (s, _) in enumerate(self.pairs):
            v[_vertex_loc(vids, s) * self.n_keys + q] = 0.0
        return v

    def pair_distances(self, result: RunResult) -> list[float]:
        """The (src, dst) distance for each query pair."""
        final = result.final()
        return [
            float(final[_vertex_loc(result.idx, d, "target") * self.n_keys + q])
            for q, (_, d) in enumerate(self.pairs)
        ]
