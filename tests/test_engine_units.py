"""Unit tests for the engine's internal pieces (no SparkSession needed:
the graphs here are small enough that every round runs at the driver)."""
import numpy as np
import pandas as pd
import pytest

from repro.differential.algorithms import BFS, MPSP, BellmanFord, PageRank, WCC
from repro.differential.engine import (
    _CSR,
    RunResult,
    ViewEdges,
    _effective_delta_dirty,
    _expand_out_neighbours,
    _in_edge_subset,
    _segment_reduce,
    run_view,
)

INF = float("inf")


# ------------------------------------------------------------------- _CSR
def test_csr_basic_gather():
    c = _CSR(np.array([1, 1, 2, 5]), np.array([10, 11, 20, 50]))
    vals, counts = c.gather(np.array([1]))
    assert sorted(vals) == [10, 11] and list(counts) == [2]
    vals, counts = c.gather(np.array([2, 5]))
    assert list(vals) == [20, 50] and list(counts) == [1, 1]


def test_csr_absent_keys():
    c = _CSR(np.array([1, 3]), np.array([10, 30]))
    assert list(c.gather(np.array([2]))[0]) == []
    vals, counts = c.gather(np.array([0, 4]))
    assert list(vals) == [] and list(counts) == [0, 0]
    vals, counts = c.gather(np.array([3, 4]))
    assert list(vals) == [30] and list(counts) == [1, 0]


def test_csr_empty_inputs():
    c = _CSR(np.array([], dtype="int64"), np.array([], dtype="int64"))
    vals, counts = c.gather(np.array([1]))
    assert list(vals) == [] and list(counts) == [0]
    c2 = _CSR(np.array([1]), np.array([10]))
    vals, counts = c2.gather(np.array([], dtype="int64"))
    assert list(vals) == [] and list(counts) == []


def test_csr_matches_pandas_merge():
    g = np.random.default_rng(0)
    keys = g.integers(0, 50, 500)
    vals = g.integers(0, 1000, 500)
    c = _CSR(keys, vals)
    df = pd.DataFrame({"k": keys, "v": vals})
    for qseed in range(5):
        # repeated and unsorted query keys: the gather keeps query order
        q = np.random.default_rng(qseed).integers(0, 60, 10)
        got, counts = c.gather(q)
        assert list(counts) == [int((keys == k).sum()) for k in q]
        exp = [v for k in q for v in df[df.k == k].v.tolist()]
        assert list(got) == exp


def test_csr_query_beyond_max_key():
    c = _CSR(np.array([1, 2]), np.array([10, 20]))
    vals, counts = c.gather(np.array([99]))
    assert list(vals) == [] and list(counts) == [0]


# ------------------------------------------- position layout at Q = 3
# vids 10, 20, 30, 40 at vertex positions 0..3; key q of vertex position
# i is state position 3·i + q. Vertex 40 has no edges.
VIDS = np.array([10, 20, 30, 40], dtype="int64")
Q = 3
EDGES = pd.DataFrame(
    {
        "src": [10, 10, 20, 30, 10],
        "dst": [20, 30, 30, 10, 20],
        "weight": [1.0, 2.0, 1.0, 5.0, 3.0],  # rows 0 and 4: parallel edges
    }
)


@pytest.fixture
def keyed_view():
    return ViewEdges(None, EDGES)


def test_keyed_out_neighbour_expansion(keyed_view):
    # (10, q=0) → 20 and 30 under q=0; (20, q=2) → 30 under q=2
    changed = np.array([0 * Q + 0, 1 * Q + 2])
    got = _expand_out_neighbours(VIDS, Q, keyed_view, changed)
    assert list(got) == [1 * Q + 0, 2 * Q + 0, 2 * Q + 2]


def test_keyed_in_edge_subset(keyed_view):
    # (20, q=0), (30, q=2), and (40, q=2) which has no in-edges
    aff = np.array([1 * Q + 0, 2 * Q + 2, 3 * Q + 2])
    rows, dst_pos, src_pos = _in_edge_subset(VIDS, Q, keyed_view, aff)
    assert list(rows) == [0, 4, 1, 2]
    assert list(dst_pos) == [3, 3, 8, 8]
    assert list(src_pos) == [0 * Q + 0, 0 * Q + 0, 0 * Q + 2, 1 * Q + 2]


def test_keyed_segment_reduce(keyed_view):
    spec = MPSP([(10, 20), (10, 30), (20, 30)])
    state = np.full(len(VIDS) * Q, INF)
    state[0 * Q + 0] = 0.0  # (10, q=0)
    state[0 * Q + 2] = 1.0  # (10, q=2); (20, q=2) stays inf: no message
    aff = np.array([1 * Q + 0, 2 * Q + 2, 3 * Q + 2])
    sub = _in_edge_subset(VIDS, Q, keyed_view, aff)
    pos, agg = _segment_reduce(spec, keyed_view, Q, state, None, *sub)
    assert list(pos) == [1 * Q + 0, 2 * Q + 2]
    assert list(agg) == [min(0.0 + 1.0, 0.0 + 3.0), 1.0 + 2.0]


def test_delta_dirty_marks_every_q(keyed_view):
    spec = MPSP([(10, 20), (10, 30), (20, 30)])
    delta = pd.DataFrame({"src": [10, 20], "dst": [30, 30], "weight": 1.0, "sign": [1, -1]})
    got = _effective_delta_dirty(spec, VIDS, keyed_view, keyed_view, delta)
    assert list(got) == [6, 7, 8]
    # No δ fed: the diff of the two views (one dropped edge 10→20, w=3).
    smaller = ViewEdges(None, EDGES.head(4))
    got = _effective_delta_dirty(spec, VIDS, keyed_view, smaller, None)
    assert list(got) == [3, 4, 5]


def test_final_pd_columns(keyed_view):
    spec = MPSP([(10, 20), (10, 30), (20, 30)])
    vals = np.arange(len(VIDS) * Q, dtype="float64")
    res = RunResult(spec, keyed_view, VIDS, [vals], None, 0.0, 0, 0, 0, "scratch")
    out = res.final_pd()
    assert list(out.columns) == ["vid", "q", "val"]
    assert list(out.vid) == [10] * 3 + [20] * 3 + [30] * 3 + [40] * 3
    assert list(out.q) == [0, 1, 2] * 4
    assert list(out.val) == list(vals)
    plain = RunResult(WCC(), keyed_view, VIDS, [VIDS * 1.0], None, 0.0, 0, 0, 0, "scratch")
    assert list(plain.final_pd().columns) == ["vid", "val"]


# ------------------------------------------------- specs (one message)
def test_message_runs_on_numpy():
    val = np.array([1.0, 2.0])
    w = np.array([0.5, 1.5])
    assert list(WCC().message(val, w, None)) == [1.0, 2.0]
    assert list(BFS(0).message(val, w, None)) == [2.0, 3.0]
    assert list(BellmanFord(0).message(val, w, None)) == [1.5, 3.5]
    assert list(MPSP([(0, 1)]).message(val, w, None)) == [1.5, 3.5]
    assert list(PageRank().message(val, w, np.array([2.0, 4.0]))) == [0.5, 0.5]


def test_render_rows():
    from repro.experiments.common import render_rows

    md = render_rows([{"a": 1, "b": 2.567}], ["a", "b"])
    assert md.splitlines()[0] == "| a | b |"
    assert "2.57" in md


# ------------------------------------------------------------ fail fast
@pytest.mark.parametrize(
    "spec",
    [BFS(99), BellmanFord(99), MPSP([(0, 3), (99, 1)])],
    ids=["BFS", "BF", "MPSP"],
)
def test_missing_source_vertex_fails_fast(spec):
    with pytest.raises(ValueError, match="source vertex 99 is not in the vertex set"):
        spec.init_values(np.arange(5, dtype="int64"))


@pytest.mark.parametrize("endpoint", ["src", "dst"])
def test_edge_to_unknown_vertex_fails_fast(endpoint):
    verts = pd.DataFrame({"vid": range(4)})
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": 1.0})
    edges.loc[1, endpoint] = 99
    with pytest.raises(ValueError, match="edge endpoint 99 is not in the vertex set"):
        run_view(None, ViewEdges(None, edges), WCC(), verts)
    ok = run_view(None, ViewEdges(None, edges.head(1)), WCC(), verts)
    with pytest.raises(ValueError, match="edge endpoint 99 is not in the vertex set"):
        run_view(None, ViewEdges(None, edges), WCC(), verts, prev=ok)


NEG_CYCLE = pd.DataFrame(
    # 0 → 1, then the cycle 1 → 2 → 3 → 1 of total weight 1 + 1 − 3 = −1
    {"src": [0, 1, 2, 3], "dst": [1, 2, 3, 1], "weight": [1.0, 1.0, 1.0, -3.0]}
)


@pytest.mark.parametrize(
    "spec_fn",
    [lambda: BellmanFord(0), lambda: MPSP([(0, 3), (2, 1)])],
    ids=["BF", "MPSP"],
)
def test_negative_cycle_fails_fast(spec_fn):
    verts = pd.DataFrame({"vid": range(4)})
    with pytest.raises(ValueError, match="negative cycle is reachable from the source"):
        run_view(None, ViewEdges(None, NEG_CYCLE), spec_fn(), verts)
    # As an advance: the previous view lacks the closing edge 3 → 1.
    prev = run_view(None, ViewEdges(None, NEG_CYCLE.head(3)), spec_fn(), verts)
    with pytest.raises(ValueError, match="negative cycle is reachable from the source"):
        run_view(None, ViewEdges(None, NEG_CYCLE), spec_fn(), verts, prev=prev)
