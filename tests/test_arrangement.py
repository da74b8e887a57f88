"""The collection's driver-side EBM arrangement against the Spark paths it
replaced: view sizes and |δC_t| read off the Hamming matrix must equal the
diff-stream passes, and every view and δ mask read must equal a Spark filter
over the EBM, on random EBMs and random orders."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.collection import from_edge_sets, materialize_collection
from repro.core.diffstream import diff_counts, view_sizes
from repro.core.ebm import BITS
from repro.storage.store import GraphStore

K = 6  # views of the random collection; the last one is empty


def spark_view(coll, t):
    """The t-th view as a Spark filter over the EBM (the oracle)."""
    return (
        coll.ebm.where(F.col(BITS)[coll.order[t]])
        .select("src", "dst", "weight")
        .toPandas()
    )


def spark_delta(coll, t):
    """δC_t with its signs as a Spark filter over the EBM (the oracle)."""
    a, b = coll.order[t - 1], coll.order[t]
    return (
        coll.ebm.where(F.col(BITS)[a] != F.col(BITS)[b])
        .select(
            "src",
            "dst",
            "weight",
            F.when(F.col(BITS)[b], F.lit(1)).otherwise(F.lit(-1)).alias("sign"),
        )
        .toPandas()
    )


def _rows(df):
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def assert_matches_spark(coll):
    assert coll.view_sizes == view_sizes(coll.ebm, coll.order)
    assert coll.diff_counts == diff_counts(coll.ebm, coll.order)
    for t in range(coll.k):
        pd.testing.assert_frame_equal(
            _rows(coll.view_edges_pd(t)), _rows(spark_view(coll, t))
        )
    for t in range(1, coll.k):
        pd.testing.assert_frame_equal(
            _rows(coll.delta_pd(t)), _rows(spark_delta(coll, t))
        )


@pytest.fixture(scope="module")
def store(spark):
    """Random multigraph whose edge property ``p`` holds the view bits."""
    g = np.random.default_rng(17)
    n = 300
    edges = pd.DataFrame(
        {
            "src": g.integers(0, 40, n),
            "dst": g.integers(0, 40, n),
            "weight": g.integers(1, 4, n).astype("float64"),
            "p": g.integers(0, 1 << (K - 1), n),
        }
    )
    return GraphStore(spark, pd.DataFrame({"vid": range(40)}), edges, name="rand")


def _views():
    views = [(f"V{j}", F.col("p").bitwiseAND(1 << j) != 0) for j in range(K - 1)]
    return views + [("empty", F.lit(False))]


@pytest.mark.parametrize(
    "order",
    ["given", "optimize", [K - 1, 2, 0, 4, 1, 3]]
    + [np.random.default_rng(s).permutation(K).tolist() for s in (0, 1)],
    ids=["given", "optimize", "empty-first", "random0", "random1"],
)
def test_collection_paths_match_spark(store, order):
    coll = materialize_collection(store, "rand", _views(), order=order)
    assert_matches_spark(coll)
    t_empty = coll.order.index(K - 1)
    assert coll.view_sizes[t_empty] == 0
    assert len(coll.view_edges_pd(t_empty)) == 0
    coll.unpersist()


def spark_jobs_during(spark, group, fn) -> int:
    """Spark jobs started while ``fn`` runs, counted by job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_view_and_delta_reads_start_no_spark_job(spark, store):
    """The arrangement is collected at creation: after it, every view and δ
    read is a driver-side mask with no Spark job."""
    coll = materialize_collection(store, "rand", _views(), order="optimize")

    def read_all():
        for t in range(coll.k):
            coll.view_edges_pd(t)
        for t in range(1, coll.k):
            coll.delta_pd(t)

    assert spark_jobs_during(spark, "arrangement-reads", read_all) == 0
    assert spark_jobs_during(spark, "arrangement-control", coll.ebm.count) > 0
    coll.unpersist()


def test_edge_sets_with_weight_change_match_spark(spark):
    g = np.random.default_rng(5)
    nodes = pd.DataFrame({"vid": range(30)})

    def rand_edges(n):
        return pd.DataFrame(
            {
                "src": g.integers(0, 30, n),
                "dst": g.integers(0, 30, n),
                "weight": g.integers(1, 4, n).astype("float64"),
            }
        ).drop_duplicates(["src", "dst", "weight"], ignore_index=True)

    v0 = rand_edges(80)
    v1 = pd.concat([v0.iloc[10:], rand_edges(15)], ignore_index=True).drop_duplicates(
        ["src", "dst", "weight"], ignore_index=True
    )
    v1.loc[0, "weight"] += 10.0  # −old/+new pair
    views = [v0, v1, v1.iloc[:0], rand_edges(40)]
    coll = from_edge_sets(spark, "w", views, nodes)
    assert_matches_spark(coll)
    d = coll.delta_pd(1)
    changed = d[(d.src == v1.src[0]) & (d.dst == v1.dst[0])]
    assert sorted(changed.sign) == [-1, 1]
    assert coll.cct["ebm"] > 0
    coll.unpersist()
