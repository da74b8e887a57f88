"""GraphStore — the paper's Storage Manager + Node Property Store.

Base graphs are imported from driver-side pandas frames (the equivalent of
the paper's csv import) or from csv files. Each node keeps a user-supplied
64-bit ``vid``; each edge gets a dense 64-bit ``eid`` on import. The edge
stream is a cached Spark DataFrame ``(eid, src, dst, <edge props...>)``;
node properties live in a separate cached frame, looked up on demand by
broadcast (the paper's sPtr/dPtr indirection) in :meth:`edge_view_frame`.

``save``/``load`` persist both streams as parquet, mirroring the paper's
"persisted in files".
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


class GraphStore:
    """In-memory (Spark-cached) property graph with persistent import/export."""

    def __init__(
        self,
        spark: SparkSession,
        nodes: pd.DataFrame,
        edges: pd.DataFrame,
        *,
        name: str = "graph",
    ) -> None:
        if "vid" not in nodes.columns:
            raise ValueError("nodes frame must have a 'vid' column")
        for c in ("src", "dst"):
            if c not in edges.columns:
                raise ValueError(f"edges frame must have a {c!r} column")
        self.spark = spark
        self.name = name
        self.nodes_pd = nodes.reset_index(drop=True).copy()
        edges = edges.reset_index(drop=True).copy()
        if "eid" not in edges.columns:
            edges.insert(0, "eid", np.arange(len(edges), dtype="int64"))
        self.edges_pd = edges
        self.nodes_sdf: DataFrame = spark.createDataFrame(self.nodes_pd).cache()
        self.edges_sdf: DataFrame = spark.createDataFrame(self.edges_pd).cache()

    # ------------------------------------------------------------- imports
    @classmethod
    def from_csv(
        cls, spark: SparkSession, nodes_csv: str, edges_csv: str, *, name: str = "graph"
    ) -> "GraphStore":
        """Import a base graph from csv files (paper: "Users import base
        input graphs to Graphsurge through csv files")."""
        return cls(
            spark,
            pd.read_csv(nodes_csv),
            pd.read_csv(edges_csv),
            name=name,
        )

    # ------------------------------------------------------------ accessors
    @property
    def n_nodes(self) -> int:
        return len(self.nodes_pd)

    @property
    def n_edges(self) -> int:
        return len(self.edges_pd)

    def edge_prop_names(self) -> list[str]:
        return [c for c in self.edges_pd.columns if c not in ("eid", "src", "dst")]

    def node_prop_names(self) -> list[str]:
        return [c for c in self.nodes_pd.columns if c != "vid"]

    def edge_view_frame(self) -> DataFrame:
        """Edge stream joined with both endpoints' node properties.

        Output columns: ``eid, src, dst, <edge props>, src_<p>..., dst_<p>...``
        — the frame GVDL predicates are compiled against. This is the
        paper's "binary join to join node IDs with the vertex property
        stream from Node Property Store", where each edge reaches its
        endpoints' properties by pointer (sPtr/dPtr): both node-property
        frames are broadcast, so every edge partition looks its endpoints up
        in a hash table and the edge stream is never shuffled. The node
        property store fits the driver (the documented cap), so it fits a
        broadcast.
        """
        e = self.edges_sdf
        props = self.node_prop_names()
        if not props:
            return e
        s = self.nodes_sdf.select(
            F.col("vid").alias("_svid"),
            *[F.col(p).alias(f"src_{p}") for p in props],
        )
        d = self.nodes_sdf.select(
            F.col("vid").alias("_dvid"),
            *[F.col(p).alias(f"dst_{p}") for p in props],
        )
        return (
            e.join(F.broadcast(s), e.src == s._svid)
            .join(F.broadcast(d), e.dst == d._dvid)
            .drop("_svid", "_dvid")
        )

    def edge_view_frame_pd(self) -> pd.DataFrame:
        """Driver-side equivalent of :meth:`edge_view_frame` — the frame the
        DuckDB oracle evaluates GVDL predicates over."""
        out = self.edges_pd
        props = self.node_prop_names()
        if not props:
            return out.copy()
        np_ = self.nodes_pd.set_index("vid")
        s = np_.loc[out.src].reset_index(drop=True).add_prefix("src_")
        d = np_.loc[out.dst].reset_index(drop=True).add_prefix("dst_")
        return pd.concat([out.reset_index(drop=True), s, d], axis=1)

    def vertices(self) -> pd.DataFrame:
        """All vertex ids (constant across filtered views; see DESIGN.md §6)."""
        return self.nodes_pd[["vid"]].copy()

    # ------------------------------------------------------------- persist
    def save(self, path: str) -> None:
        """Persist node and edge streams as parquet under ``path``."""
        self.nodes_sdf.write.mode("overwrite").parquet(os.path.join(path, "nodes"))
        self.edges_sdf.write.mode("overwrite").parquet(os.path.join(path, "edges"))

    @classmethod
    def load(cls, spark: SparkSession, path: str, *, name: str = "graph") -> "GraphStore":
        """Reload a :meth:`save`'d store."""
        nodes = spark.read.parquet(os.path.join(path, "nodes")).toPandas()
        edges = spark.read.parquet(os.path.join(path, "edges")).toPandas()
        order = ["eid", "src", "dst"] + [
            c for c in edges.columns if c not in ("eid", "src", "dst")
        ]
        return cls(spark, nodes, edges[order], name=name)

    def unpersist(self) -> None:
        self.nodes_sdf.unpersist()
        self.edges_sdf.unpersist()
