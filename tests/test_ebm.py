"""Edge Boolean Matrix tests (paper §3.2.1 step 1), oracle-checked."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import call_graph
from repro.gvdl import parse_predicate, to_spark_column, to_sql
from repro.core.collection import materialize_collection
from repro.core.ebm import collect_ebm, compute_ebm
from repro.oracle import assert_equivalent
from repro.storage.store import GraphStore

PREDS = [
    "duration <= 5 and year <= 2019",
    "duration <= 10 and year <= 2019",
    "duration <= 15",
    "src.state = 'CA' and dst.state = 'CA'",
]


@pytest.fixture(scope="module")
def store(spark):
    nodes, edges = call_graph()
    return GraphStore(spark, nodes, edges, name="Calls")


@pytest.fixture(scope="module")
def ebm(store):
    cols = [to_spark_column(parse_predicate(p)) for p in PREDS]
    return compute_ebm(store, cols, weight_col="duration").cache()


def test_ebm_schema(ebm):
    assert set(ebm.columns) == {"eid", "src", "dst", "weight", "bits"}
    assert ebm.count() == 16


def test_ebm_bits_width(ebm):
    row = ebm.first()
    assert len(row["bits"]) == len(PREDS)


@pytest.mark.parametrize("j", range(len(PREDS)))
def test_ebm_column_matches_duckdb(store, ebm, j):
    """bits[j] must equal the predicate evaluated by DuckDB."""
    got = ebm.select("eid", F.col("bits")[j].alias("sat"))
    sql = f"SELECT eid, ({to_sql(parse_predicate(PREDS[j]))}) AS sat FROM evf"
    assert_equivalent(got, sql, evf=store.edge_view_frame_pd())


def test_ebm_weight_column(store, ebm):
    got = ebm.select("eid", "weight").toPandas().set_index("eid").weight
    exp = store.edges_pd.set_index("eid").duration.astype("float64")
    assert (got.sort_index() == exp.sort_index()).all()


def test_ebm_default_weight(spark):
    """Graphs without a weight property get weight 1.0."""
    nodes, edges = call_graph()
    store2 = GraphStore(spark, nodes, edges[["src", "dst", "year"]], name="g2")
    e = compute_ebm(store2, [F.lit(True)])
    assert set(e.toPandas().weight) == {1.0}


def test_collect_ebm_matches_rows(ebm):
    """The Arrow collect equals a row-wise toPandas of the same frame."""
    edges, bits = collect_ebm(ebm, len(PREDS))
    ref = ebm.select("src", "dst", "weight", "bits").toPandas()
    pd.testing.assert_frame_equal(edges, ref[["src", "dst", "weight"]])
    assert bits.dtype == bool and bits.shape == (len(ref), len(PREDS))
    assert np.array_equal(bits, np.vstack(ref.bits.to_numpy()).astype(bool))


def test_collect_ebm_null_predicate_is_false(store):
    """A NULL predicate value leaves the edge out of the view, as in a
    Spark ``where``."""
    preds = [F.lit(None).cast("boolean"), F.col("duration") <= 10]
    _, bits = collect_ebm(compute_ebm(store, preds), 2)
    assert not bits[:, 0].any()
    assert bits[:, 1].sum() == (store.edges_pd.duration <= 10).sum()


def _plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def test_ebm_plan_broadcasts_node_properties_and_caches_nothing(store):
    """Creation is one broadcast-join query: both node-property lookups are
    broadcast hash joins (no shuffle join), and the collection's EBM is not
    cached — its only in-memory relations are the store's cached inputs."""
    cols = [to_spark_column(parse_predicate(p)) for p in PREDS]
    coll = materialize_collection(
        store, "c", list(zip(PREDS, cols)), order="given"
    )
    plan = _plan(coll.ebm)
    assert plan.count("BroadcastHashJoin") == 2
    assert "SortMergeJoin" not in plan
    store_caches = _plan(store.edge_view_frame()).count("InMemoryRelation")
    assert plan.count("InMemoryRelation") == store_caches
    assert not coll.ebm.storageLevel.useMemory
    assert not coll.ebm.storageLevel.useDisk
