"""Step 1 of view-collection materialization: the Edge Boolean Matrix.

For each edge e and each view predicate p_j, the EBM records whether e
satisfies p_j (paper §3.2.1, Figure 5a). This is embarrassingly parallel:
one Spark pass over the edge-view frame (edges with both endpoints' node
properties, looked up by broadcast) evaluating all k predicates into a
``bits`` array column. :func:`collect_ebm` runs that pass and lands its
result at the driver through Arrow as the collection's arrangement: the
edge columns plus one flat ``(edges × k)`` bool matrix.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.compute as pc
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.storage.store import GraphStore

#: Name of the boolean-vector column in EBM frames.
BITS = "bits"


def compute_ebm(
    store: GraphStore,
    predicates: list[Column],
    *,
    weight_col: str | None = None,
) -> DataFrame:
    """Evaluate all view ``predicates`` over the store's edge-view frame.

    Returns a frame ``(eid, src, dst, weight, bits: array<boolean>)`` where
    ``bits[j]`` is p_j(e). ``weight_col`` names an edge property to carry
    through as ``weight`` (defaults to the edge's ``weight`` property, or a
    constant 1.0 if the graph is unweighted).
    """
    frame = store.edge_view_frame()
    if weight_col is None and "weight" in store.edge_prop_names():
        weight_col = "weight"
    w = (
        F.col(weight_col).cast("double")
        if weight_col is not None
        else F.lit(1.0)
    )
    bits = F.array(*[p.cast("boolean") for p in predicates]).alias(BITS)
    return frame.select(
        F.col("eid"),
        F.col("src"),
        F.col("dst"),
        w.alias("weight"),
        bits,
    )


def collect_ebm(ebm: DataFrame, k: int) -> tuple[pd.DataFrame, np.ndarray]:
    """Run ``ebm`` once and return its ``(src, dst, weight)`` rows and their
    bits as an ``(n, k)`` bool matrix in EBM column order.

    The ``list<bool>`` column arrives through Arrow and its child array is
    reshaped in one piece, never as one Python object per row. A predicate
    that evaluates to NULL counts as False, as in a Spark ``where``.
    """
    tbl = ebm.select("src", "dst", "weight", BITS).toArrow()
    values = pc.fill_null(tbl.column(BITS).combine_chunks().flatten(), False)
    bits = values.to_numpy(zero_copy_only=False).reshape(tbl.num_rows, k)
    return tbl.drop_columns([BITS]).to_pandas(), bits
