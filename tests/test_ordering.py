"""Collection ordering tests (paper §4, Algorithm 1)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.ebm import collect_ebm, compute_ebm
from repro.core.ordering import (
    CHUNK_ROWS,
    hamming_matrix,
    optimize_order,
    order_diff_count,
)
from repro.datasets import call_graph, community_graph
from repro.experiments.table4 import removal_views
from repro.gvdl import parse_predicate, to_spark_column
from repro.storage.store import GraphStore


def _bits_matrix(ebm):
    pdf = ebm.select("bits").toPandas()
    return np.vstack(pdf.bits.to_numpy()).astype("int64")


def _brute_hamming(bits):
    padded = np.concatenate([np.zeros((len(bits), 1), dtype=bits.dtype), bits], axis=1)
    kk = padded.shape[1]
    return np.array(
        [[np.sum(padded[:, i] != padded[:, j]) for j in range(kk)] for i in range(kk)]
    )


@pytest.fixture(scope="module")
def inclusion_ebm(spark):
    """Duration-threshold chain — Listing 3's inclusion structure."""
    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = [f"duration <= {d}" for d in (30, 5, 15, 10)]  # shuffled chain
    cols = [to_spark_column(parse_predicate(p)) for p in preds]
    return compute_ebm(store, cols).cache()


@pytest.fixture(scope="module")
def inclusion_bits(inclusion_ebm):
    return collect_ebm(inclusion_ebm, 4)[1]


def test_hamming_matrix_vs_numpy(inclusion_ebm, inclusion_bits):
    d = hamming_matrix(inclusion_bits)
    assert np.array_equal(d, _brute_hamming(_bits_matrix(inclusion_ebm)))


def test_hamming_matrix_symmetric_zero_diag(inclusion_bits):
    d = hamming_matrix(inclusion_bits)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_optimizer_recovers_inclusion_chain(inclusion_bits):
    """For views with inclusion structure D5 ⊂ D10 ⊂ D15 ⊂ D30 the optimal
    order is the monotone chain (paper §4's Listing-3 example)."""
    order, d = optimize_order(inclusion_bits)
    # given predicate order was (30, 5, 15, 10) → chain is [1, 3, 2, 0]
    assert order in ([1, 3, 2, 0], [0, 2, 3, 1])


def test_optimizer_order_is_permutation(spark):
    nodes, edges = community_graph(200, 800, 6, seed=0)
    store = GraphStore(spark, nodes, edges, name="cg")
    views = removal_views(5, 2)  # 10 views
    ebm = compute_ebm(store, [c for _, c in views]).cache()
    order, d = optimize_order(collect_ebm(ebm, len(views))[1])
    assert sorted(order) == list(range(len(views)))


def test_optimizer_beats_random_orders(spark):
    """The optimizer's total diff count beats the average random order."""
    nodes, edges = community_graph(300, 1500, 7, seed=1)
    store = GraphStore(spark, nodes, edges, name="cg")
    views = removal_views(6, 3)  # 20 views
    ebm = compute_ebm(store, [c for _, c in views]).cache()
    order, d = optimize_order(collect_ebm(ebm, len(views))[1])
    opt = order_diff_count(d, order)
    g = np.random.default_rng(0)
    rand = [
        order_diff_count(d, g.permutation(len(views)).tolist()) for _ in range(5)
    ]
    assert opt < np.mean(rand)


def test_order_diff_count_matches_diffstream(spark):
    """order_diff_count (from the Hamming matrix) must equal the actual
    materialized difference-stream size."""
    from repro.core.diffstream import diff_counts

    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = ["duration <= 10", "year = 2019", "src.state = 'CA'"]
    cols = [to_spark_column(parse_predicate(p)) for p in preds]
    ebm = compute_ebm(store, cols).cache()
    order, d = optimize_order(collect_ebm(ebm, 3)[1])
    assert order_diff_count(d, order) == sum(diff_counts(ebm, order))


def test_path_direction_choice(inclusion_bits):
    """The returned path must not be worse than its own reversal."""
    order, d = optimize_order(inclusion_bits)
    assert order_diff_count(d, order) <= order_diff_count(d, order[::-1])


@pytest.mark.parametrize(
    "n,k,false_col",
    [(0, 4, None), (50, 1, None), (200, 65, None), (120, 7, 3), (CHUNK_ROWS * 2 + 37, 5, None)],
    ids=["no-rows", "k1", "k65", "all-false-col", "above-chunk"],
)
def test_hamming_matrix_matches_brute_force(n, k, false_col):
    g = np.random.default_rng(n + k)
    bits = g.random((n, k)) < g.uniform(0.1, 0.9, k)  # per-column densities
    if false_col is not None:
        bits[:, false_col] = False
    d = hamming_matrix(bits)
    assert d.dtype == np.int64
    assert np.array_equal(d, _brute_hamming(bits))
