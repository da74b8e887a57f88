"""Step 3: the edge difference stream (paper §3.2.1, Figure 5b).

Treat the ordered view collection as an evolving input: δC_t contains edge
e with multiplicity +1 if e enters at view t, −1 if it leaves, 0 otherwise
(with δC_0 = the first view itself, i.e. every edge of GV_0 enters at t=0).
Per-edge contributions are independent — one embarrassingly parallel pass.

These passes are the reference materialization of the stream. Collection
creation (:mod:`repro.core.collection`) reads the same |GV_t| and |δC_t|
exactly off the Hamming matrix of Algorithm 1 instead, and serves each δC_t
as a mask over its driver-side EBM arrangement.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.ebm import BITS

DIFF_SCHEMA = "t int, eid long, src long, dst long, weight double, sign int"


def diff_stream(ebm: DataFrame, order: list[int]) -> DataFrame:
    """Materialize the difference stream ``(t, eid, src, dst, weight, sign)``
    for the views of ``ebm`` taken in ``order``."""
    order_arr = np.asarray(order, dtype="int64")

    def flips(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf) == 0:
                continue
            bits = np.vstack(pdf[BITS].to_numpy())[:, order_arr].astype("int8")
            prev = np.concatenate(
                [np.zeros((len(pdf), 1), dtype="int8"), bits[:, :-1]], axis=1
            )
            delta = bits - prev  # ∈ {-1, 0, +1}
            rows, ts = np.nonzero(delta)
            yield pd.DataFrame(
                {
                    "t": ts.astype("int32"),
                    "eid": pdf["eid"].to_numpy()[rows],
                    "src": pdf["src"].to_numpy()[rows],
                    "dst": pdf["dst"].to_numpy()[rows],
                    "weight": pdf["weight"].to_numpy()[rows],
                    "sign": delta[rows, ts].astype("int32"),
                }
            )

    return ebm.mapInPandas(flips, schema=DIFF_SCHEMA)


def diff_counts(ebm: DataFrame, order: list[int]) -> list[int]:
    """|δC_t| for every t (number of ±1 entries per view transition)."""
    k = len(order)
    counted = (
        diff_stream(ebm, order).groupBy("t").count().collect()
    )
    out = [0] * k
    for row in counted:
        out[row["t"]] = int(row["count"])
    return out


def view_sizes(ebm: DataFrame, order: list[int]) -> list[int]:
    """|GV_t| (edge count of each view) in collection order."""
    order_arr = np.asarray(order, dtype="int64")

    def sizes(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        acc = np.zeros(len(order_arr), dtype="int64")
        for pdf in batches:
            if len(pdf):
                bits = np.vstack(pdf[BITS].to_numpy())[:, order_arr]
                acc += bits.sum(axis=0).astype("int64")
        yield pd.DataFrame({"s": [acc.tolist()]})

    parts = ebm.select(BITS).mapInPandas(sizes, schema="s array<long>").collect()
    total = np.zeros(len(order_arr), dtype="int64")
    for row in parts:
        total += np.asarray(row["s"], dtype="int64")
    return [int(x) for x in total]
