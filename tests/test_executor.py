"""Analytics Computation Executor tests (paper §3.2.2 + §5)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.collection import from_edge_sets
from repro.core.executor import run_collection
from repro.datasets import social_graph
from repro.differential.algorithms import BFS, BellmanFord, PageRank, WCC
from repro.differential.scc import SCC


@pytest.fixture(scope="module")
def coll(spark):
    nodes, all_edges = social_graph(100, 500, seed=8)
    base = all_edges.head(300).reset_index(drop=True)
    pool = all_edges.tail(200).reset_index(drop=True)
    g = np.random.default_rng(0)
    seq = [base]
    for _ in range(4):
        cur = seq[-1]
        keep = np.ones(len(cur), dtype=bool)
        keep[g.choice(len(cur), size=15, replace=False)] = False
        add = pool.sample(n=15, random_state=int(g.integers(1 << 30)))
        seq.append(
            pd.concat([cur[keep], add], ignore_index=True)
            .drop_duplicates(["src", "dst"])
            .reset_index(drop=True)
        )
    return from_edge_sets(spark, "exec-test", seq, nodes)


@pytest.fixture(scope="module")
def source(coll):
    return int(coll.view_edges_pd(0).src.value_counts().idxmax())


@pytest.mark.parametrize("algo_name", ["WCC", "BFS", "PR"])
def test_strategies_produce_identical_results(coll, source, algo_name):
    mk = {
        "WCC": lambda: WCC(),
        "BFS": lambda: BFS(source),
        "PR": lambda: PageRank(iters=4),
    }[algo_name]
    reps = {
        s: run_collection(coll, mk(), s, ell=2) for s in ("diff", "scratch", "adaptive")
    }
    for t in range(coll.k):
        a = reps["diff"].results[t]["val"].to_numpy()
        b = reps["scratch"].results[t]["val"].to_numpy()
        c = reps["adaptive"].results[t]["val"].to_numpy()
        assert np.allclose(a, b, equal_nan=True, rtol=0, atol=1e-12)
        assert np.allclose(a, c, equal_nan=True, rtol=0, atol=1e-12)


def test_diff_strategy_modes(coll, source):
    rep = run_collection(coll, BFS(source), "diff", keep_results=False)
    assert rep.modes == ["scratch"] + ["diff"] * (coll.k - 1)


def test_scratch_strategy_modes(coll, source):
    rep = run_collection(coll, BFS(source), "scratch", keep_results=False)
    assert rep.modes == ["scratch"] * coll.k


def test_adaptive_bootstrap_modes(coll, source):
    rep = run_collection(coll, BFS(source), "adaptive", ell=2, keep_results=False)
    assert rep.modes[0] == "scratch"
    assert rep.modes[1] == "diff"


def test_scc_falls_back_to_scratch(coll):
    rep = run_collection(coll, SCC(), "diff", keep_results=True)
    assert rep.modes == ["scratch"] * coll.k  # supports_advance=False
    # results still per-view correct vs Tarjan on the last view
    from repro.graph_oracle import ref_scc

    last = rep.results[-1].set_index("vid")["val"].astype("int64").to_dict()
    assert last == ref_scc(coll.view_edges_pd(coll.k - 1), sorted(last))


def test_stats_recorded(coll, source):
    rep = run_collection(coll, BellmanFord(source), "diff", keep_results=False)
    assert len(rep.stats) == coll.k
    s = rep.stats[2]
    assert s.view_size == coll.view_sizes[2]
    assert s.delta_size == coll.diff_counts[2]
    assert s.seconds > 0
    assert rep.total_seconds == pytest.approx(sum(x.seconds for x in rep.stats))


def test_unknown_strategy(coll):
    with pytest.raises(ValueError):
        run_collection(coll, WCC(), "turbo")


def test_views_shared_across_runs(spark, monkeypatch):
    """Views are built once per (view, undirected) and shared by every later
    run over the collection; ``unpersist`` releases them."""
    import repro.core.executor as executor

    nodes = pd.DataFrame({"vid": range(5)})
    seq = [
        pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]}),
        pd.DataFrame({"src": [0, 1, 3], "dst": [1, 2, 4]}),
        pd.DataFrame({"src": [1, 3], "dst": [2, 4]}),
    ]
    c = from_edge_sets(spark, "shared", seq, nodes)
    run_collection(c, WCC(), "diff", keep_results=False)
    run_collection(c, BFS(0), "diff", keep_results=False)
    views = dict(c.views)
    assert set(views) == {(t, u) for t in range(c.k) for u in (False, True)}

    def no_build(*args, **kwargs):
        raise AssertionError("a view was rebuilt")

    monkeypatch.setattr(executor, "ViewEdges", no_build)
    for strategy in ("scratch", "diff", "adaptive"):
        run_collection(c, WCC(), strategy, keep_results=False)
        run_collection(c, BFS(0), strategy, keep_results=False)
    assert c.views == views
    c.unpersist()
    assert c.views == {}
