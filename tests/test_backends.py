"""The two backends of the engine's round kernel return the same aggregate.

For every spec, random rounds over a random multigraph view (self-loops,
parallel edges with different weights, an isolated vertex) and a random
state with ±inf entries where the spec skips them: the driver's
NumPy segment reduce (``_segment_reduce``) and the Spark join + groupBy
(``_aggregate``) must return the same ``(positions, agg)`` — exactly for
min/max, within 1e-12 relative for sums — and both must equal a per-key
Python reference. Benchmark-sized runs rarely reach the Spark backend, so
this test is what pins it.
"""
import numpy as np
import pandas as pd
import pytest

from repro.differential.algorithms import BFS, MPSP, BellmanFord, PageRank, WCC
from repro.differential.engine import (
    ViewEdges,
    _aggregate,
    _in_edge_subset,
    _segment_reduce,
    engine_conf,
)
from repro.differential.scc import _MaxColor, _Reach

INF = float("inf")

SPECS = {
    "WCC": lambda: WCC(),
    "BFS": lambda: BFS(0),
    "BF": lambda: BellmanFord(0),
    "PR": lambda: PageRank(),
    "MPSP": lambda: MPSP([(0, 1), (0, 2), (3, 4)]),
    "SCC-color": lambda: _MaxColor(),
    "SCC-reach": lambda: _Reach(np.array([0])),
}


def random_round(spark, spec, seed, affected):
    """A view, its vertex ids and a state / degree / affected set: a random
    half of the keys, or every key (a full round)."""
    g = np.random.default_rng(seed)
    vids = np.sort(g.choice(1000, size=40, replace=False)).astype("int64")
    lonely = vids[-1]  # in no edge: a key with no in-edges
    ends = vids[:-1]
    e = pd.DataFrame({
        "src": g.choice(ends, 150),
        "dst": g.choice(ends, 150),
        "weight": g.normal(size=150).round(3),
    })
    loops = pd.DataFrame({"src": ends[:5], "dst": ends[:5], "weight": g.normal(size=5)})
    twins = e.head(10).assign(weight=lambda d: d.weight + 1.5)  # parallel edges
    view = ViewEdges(spark, pd.concat([e, loops, twins]), undirected=spec.undirected)
    Q = spec.n_keys
    state = g.normal(size=len(vids) * Q) * 10
    if spec.filters_identity:  # ±inf: identities whose messages are skipped
        state[g.random(len(state)) < 0.2] = INF
        state[g.random(len(state)) < 0.1] = -INF
    else:  # PageRank's ranks are finite
        state = np.abs(state)
    aff = np.arange(len(state))
    if affected == "half":
        aff = g.choice(aff, size=len(state) // 2, replace=False)
    lonely_keys = np.searchsorted(vids, lonely) * Q + np.arange(Q)
    aff = np.unique(np.concatenate([aff, lonely_keys]))
    deg = view.out_degree(vids) if spec.uses_degree else None
    return view, vids, Q, state, deg, aff, lonely_keys


def reference(spec, view, vids, Q, state, deg, aff):
    """Per affected key, the messages of its in-edges reduced one by one."""
    fn = {"min": min, "max": max, "sum": sum}[spec.agg]
    out = {}
    for p in aff:
        v, q = vids[p // Q], p % Q
        msgs = []
        for s, d, w in zip(view.src, view.dst, view.weight):
            sp = np.searchsorted(vids, s) * Q + q
            if d != v or (spec.filters_identity and not np.isfinite(state[sp])):
                continue
            msgs.append(spec.message(state[sp], w, None if deg is None else deg[sp // Q]))
        if msgs:
            out[int(p)] = fn(msgs)
    return out


@pytest.mark.parametrize("seed, affected", [(0, "half"), (1, "half"), (2, "every")])
@pytest.mark.parametrize("name", list(SPECS))
def test_driver_and_spark_backends_agree(spark, name, seed, affected):
    spec = SPECS[name]()
    view, vids, Q, state, deg, aff, lonely_keys = random_round(spark, spec, seed, affected)
    rows, dst_pos, src_pos = _in_edge_subset(vids, Q, view, aff)
    d_pos, d_agg = _segment_reduce(spec, view, Q, state, deg, rows, dst_pos, src_pos)
    with engine_conf(spark):
        s_pos, s_agg = _aggregate(
            spark, view, spec, vids, Q, state, deg, np.unique(src_pos), aff
        )
        view.unpersist()
    order = np.argsort(s_pos)
    s_pos, s_agg = s_pos[order], s_agg[order]

    assert len(d_pos) > 0
    assert np.array_equal(d_pos, s_pos)
    assert not np.isin(lonely_keys, d_pos).any()
    if spec.agg == "sum":
        np.testing.assert_allclose(d_agg, s_agg, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(d_agg, s_agg)
    ref = reference(spec, view, vids, Q, state, deg, aff)
    assert list(d_pos) == sorted(ref)
    np.testing.assert_allclose(d_agg, [ref[p] for p in d_pos], rtol=1e-12, atol=0)
