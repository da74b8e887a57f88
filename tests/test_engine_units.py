"""Unit tests for the engine's internal pieces (no SparkSession needed)."""
import numpy as np
import pandas as pd
import pytest

from repro.differential.algorithms import BFS, MPSP, BellmanFord
from repro.differential.engine import (
    _CSR,
    _key_frame,
    _positions_of,
    _raw_positions,
    _state_frame,
)


# ------------------------------------------------------------------- _CSR
def test_csr_basic_gather():
    c = _CSR(np.array([1, 1, 2, 5]), np.array([10, 11, 20, 50]))
    assert sorted(c.gather(np.array([1]))) == [10, 11]
    assert list(c.gather(np.array([2, 5]))) == [20, 50]


def test_csr_absent_keys():
    c = _CSR(np.array([1, 3]), np.array([10, 30]))
    assert list(c.gather(np.array([2]))) == []
    assert list(c.gather(np.array([0, 4]))) == []
    assert list(c.gather(np.array([3, 4]))) == [30]


def test_csr_empty_inputs():
    c = _CSR(np.array([], dtype="int64"), np.array([], dtype="int64"))
    assert list(c.gather(np.array([1]))) == []
    c2 = _CSR(np.array([1]), np.array([10]))
    assert list(c2.gather(np.array([], dtype="int64"))) == []


def test_csr_matches_pandas_merge():
    g = np.random.default_rng(0)
    keys = g.integers(0, 50, 500)
    vals = g.integers(0, 1000, 500)
    c = _CSR(keys, vals)
    df = pd.DataFrame({"k": keys, "v": vals})
    for qseed in range(5):
        q = np.unique(np.random.default_rng(qseed).integers(0, 60, 10))
        got = sorted(c.gather(q))
        exp = sorted(df[df.k.isin(q)].v.tolist())
        assert got == exp


def test_csr_query_beyond_max_key():
    c = _CSR(np.array([1, 2]), np.array([10, 20]))
    assert list(c.gather(np.array([99]))) == []


# ------------------------------------------------------------- positions
def test_raw_positions_plain():
    idx = pd.Index([10, 20, 30], name="vid")
    pos = _raw_positions(idx, pd.DataFrame({"vid": [30, 99, 10]}))
    assert list(pos) == [2, -1, 0]


def test_positions_of_drops_unknown():
    idx = pd.Index([10, 20, 30], name="vid")
    pos = _positions_of(idx, pd.DataFrame({"vid": [30, 99, 10]}))
    assert sorted(pos) == [0, 2]


def test_positions_of_multiindex():
    idx = pd.MultiIndex.from_product([[1, 2], [0, 1]], names=["vid", "q"])
    keys = pd.DataFrame({"vid": [2, 1, 7], "q": [1, 0, 0]})
    pos = _positions_of(idx, keys)
    assert sorted(pos) == [0, 3]


# ----------------------------------------------------------- state frames
def test_state_frame_plain():
    idx = pd.Index([5, 6, 7], name="vid")
    vals = np.array([1.0, 2.0, 3.0])
    pdf, schema = _state_frame(idx, vals, np.array([0, 2]), None)
    assert list(pdf.vid) == [5, 7]
    assert list(pdf.val) == [1.0, 3.0]
    assert schema == "vid long, val double"


def test_state_frame_with_degree():
    idx = pd.Index([5, 6], name="vid")
    pdf, schema = _state_frame(
        idx, np.array([1.0, 2.0]), np.array([1]), np.array([3.0, 4.0])
    )
    assert list(pdf.deg) == [4.0]
    assert schema.endswith(", deg double")


def test_state_frame_keyed():
    idx = pd.MultiIndex.from_product([[1, 2], [0, 1]], names=["vid", "q"])
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    pdf, schema = _state_frame(idx, vals, np.array([1, 2]), None)
    assert list(pdf.vid) == [1, 2]
    assert list(pdf.q) == [1, 0]
    assert schema == "vid long, q long, val double"


def test_key_frame_plain_and_keyed():
    idx = pd.Index([5, 6, 7], name="vid")
    pdf, schema = _key_frame(idx, np.array([2]))
    assert list(pdf.vid) == [7] and schema == "vid long"
    mi = pd.MultiIndex.from_product([[1, 2], [0, 1]], names=["vid", "q"])
    pdf2, schema2 = _key_frame(mi, np.array([3]))
    assert list(pdf2.vid) == [2] and list(pdf2.q) == [1]
    assert schema2 == "vid long, q long"


# ------------------------------------------------------------- specs (np)
def test_message_np_mirrors():
    from repro.differential.algorithms import BFS, MPSP, BellmanFord, PageRank, WCC

    val = np.array([1.0, 2.0])
    w = np.array([0.5, 1.5])
    assert list(WCC().message_np(val, w, None)) == [1.0, 2.0]
    assert list(BFS(0).message_np(val, w, None)) == [2.0, 3.0]
    assert list(BellmanFord(0).message_np(val, w, None)) == [1.5, 3.5]
    assert list(MPSP([(0, 1)]).message_np(val, w, None)) == [1.5, 3.5]
    pr = PageRank().message_np(val, w, np.array([2.0, 0.0]))
    assert list(pr) == [0.5, 0.0]  # zero-degree emits nothing


def test_render_rows():
    from repro.experiments.common import render_rows

    md = render_rows([{"a": 1, "b": 2.567}], ["a", "b"])
    assert md.splitlines()[0] == "| a | b |"
    assert "2.57" in md


# ------------------------------------------------- missing source vertex
@pytest.mark.parametrize(
    "spec",
    [BFS(99), BellmanFord(99), MPSP([(0, 3), (99, 1)])],
    ids=["BFS", "BF", "MPSP"],
)
def test_missing_source_vertex_fails_fast(spec):
    idx = spec.build_index(pd.DataFrame({"vid": np.arange(5, dtype="int64")}))
    with pytest.raises(ValueError, match="source vertex 99 is not in the vertex set"):
        spec.init_values(idx)
