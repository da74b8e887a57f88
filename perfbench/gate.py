"""Oracle gate: independent references for every workload, built on the
driver without Spark, and the check of one iteration's outputs against them.

- View edge sets come from DuckDB over a pandas edge-view frame with the
  GVDL predicates compiled by ``gvdl.to_sql`` (``slide-wcc-diff``), from
  pandas ``cmask`` masks (``order-10c5``), or from the explicit edge sets
  (``perturb-pr-scratch``).
- Sizes, diff counts and the Hamming matrix are recomputed from those sets.
- WCC is checked against ``graph_oracle.ref_wcc`` exactly, PageRank against
  ``graph_oracle.ref_pagerank`` within ``PR_RTOL`` (the engine sums messages
  in Spark, in another order than the reference).

A view counts as wrong when its edge set, size, diff count or algorithm
result disagrees; a wrong order or Hamming matrix makes every view wrong.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pandas as pd

#: Relative tolerance for PageRank values (float64 sums in another order).
PR_RTOL = 1e-9


@dataclass
class Expected:
    """Reference for one workload; views in definition (EBM column) order."""

    keys: pd.DataFrame  # one row per edge of the universe
    key_cols: list[str]  # columns that identify an EBM row
    bits: np.ndarray  # universe rows × views
    vids: np.ndarray  # sorted vertex ids the results are aligned to
    results: list[np.ndarray] | None  # per view, aligned to ``vids``
    given_order: bool  # the collection must keep definition order
    rtol: float = 0.0


def _edge_view_frame(nodes: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame:
    """Edges with ``eid`` (import order) and ``src_*``/``dst_*`` node props."""
    ev = edges.reset_index(drop=True).copy()
    ev.insert(0, "eid", np.arange(len(ev), dtype="int64"))
    props = nodes.set_index("vid")
    for side in ("src", "dst"):
        ev = ev.join(props.add_prefix(f"{side}_"), on=side)
    return ev


def _results(keys: pd.DataFrame, bits: np.ndarray, vids: np.ndarray, algo: str,
             pr_iters: int = 10) -> list[np.ndarray]:
    from repro.graph_oracle import ref_pagerank, ref_wcc

    out = []
    vlist = [int(v) for v in vids]
    for j in range(bits.shape[1]):
        e = keys.loc[bits[:, j], ["src", "dst"]]
        ref = ref_wcc(e, vlist) if algo == "WCC" else ref_pagerank(e, vlist, iters=pr_iters)
        out.append(np.array([ref[v] for v in vlist], dtype="float64"))
    return out


def gvdl_reference(nodes, edges, gvdl_text: str, *, algo: str) -> Expected:
    import duckdb

    from repro.gvdl import parse, to_sql

    ev = _edge_view_frame(nodes, edges)
    stmt = parse(gvdl_text)
    bits = np.zeros((len(ev), len(stmt.views)), dtype=bool)
    con = duckdb.connect()
    try:
        con.register("ev", ev)
        for j, (_, pred) in enumerate(stmt.views):
            eids = con.execute(f"SELECT eid FROM ev WHERE {to_sql(pred)}").fetchnumpy()["eid"]
            bits[np.asarray(eids, dtype="int64"), j] = True
    finally:
        con.close()
    vids = np.sort(nodes["vid"].to_numpy(dtype="int64"))
    keys = ev[["eid", "src", "dst"]]
    return Expected(keys, ["eid"], bits, vids, _results(keys, bits, vids, algo), True)


def cmask_reference(nodes, edges, n_top: int, k: int) -> Expected:
    ev = _edge_view_frame(nodes[["vid", "cmask"]], edges)
    cs = ev["src_cmask"].to_numpy(dtype="int64")
    cd = ev["dst_cmask"].to_numpy(dtype="int64")
    masks = [sum(1 << c for c in combo) for combo in combinations(range(n_top), k)]
    bits = np.stack([((cs & m) == 0) & ((cd & m) == 0) for m in masks], axis=1)
    vids = np.sort(nodes["vid"].to_numpy(dtype="int64"))
    return Expected(ev[["eid", "src", "dst"]], ["eid"], bits, vids, None, False)


def edge_set_reference(nodes, views: list[pd.DataFrame], *, algo: str,
                       pr_iters: int = 10) -> Expected:
    cols = ["src", "dst", "weight"]
    tagged = pd.concat(
        [v[cols].assign(_t=t) for t, v in enumerate(views)], ignore_index=True
    )
    keys = tagged[cols].drop_duplicates().reset_index(drop=True)
    row = tagged.merge(keys.reset_index(), on=cols)["index"].to_numpy()
    bits = np.zeros((len(keys), len(views)), dtype=bool)
    bits[row, tagged["_t"].to_numpy()] = True
    vids = np.sort(nodes["vid"].to_numpy(dtype="int64"))
    return Expected(
        keys, cols, bits, vids, _results(keys, bits, vids, algo, pr_iters), True, PR_RTOL
    )


def _align_ebm(exp: Expected, keys: pd.DataFrame, bits: np.ndarray) -> np.ndarray | None:
    """The fetched EBM's bits re-ordered to the reference rows, or None when
    the two row sets differ."""
    if len(keys) != len(exp.keys) or bits.shape[1] != exp.bits.shape[1]:
        return None
    got = keys[exp.key_cols].reset_index().merge(
        exp.keys[exp.key_cols].reset_index(), on=exp.key_cols, suffixes=("_got", "_exp")
    )
    if len(got) != len(exp.keys) or got["index_exp"].duplicated().any():
        return None
    out = np.zeros_like(exp.bits)
    out[got["index_exp"].to_numpy()] = bits[got["index_got"].to_numpy()]
    return out


def check(exp: Expected, out) -> list[bool]:
    """Per view (collection order): True where the output is wrong."""
    from repro.core.ordering import order_diff_count

    k = exp.bits.shape[1]
    order = list(out.order)
    if sorted(order) != list(range(k)) or (exp.given_order and order != list(range(k))):
        return [True] * k
    b = exp.bits[:, order]
    if out.hamming is not None:
        padded = np.concatenate([np.zeros((len(b), 1)), exp.bits], axis=1).astype("float64")
        ones = padded.sum(axis=0)
        ham = ones[:, None] + ones[None, :] - 2 * (padded.T @ padded)
        if not np.array_equal(out.hamming, ham.astype("int64")):
            return [True] * k
        if sum(out.diff_counts) != order_diff_count(out.hamming, order):
            return [True] * k
    sizes = b.sum(axis=0)
    diffs = np.concatenate([[b[:, 0].sum()], (b[:, 1:] != b[:, :-1]).sum(axis=0)])
    wrong = [
        int(out.view_sizes[t]) != int(sizes[t]) or int(out.diff_counts[t]) != int(diffs[t])
        for t in range(k)
    ]
    if out.bits is not None:
        got = _align_ebm(exp, out.keys, out.bits)
        if got is None:
            return [True] * k
        wrong = [w or not np.array_equal(got[:, order[t]], b[:, t]) for t, w in enumerate(wrong)]
    if exp.results is not None:
        for t in range(k):
            want = exp.results[order[t]]
            have = out.results[t] if out.results is not None and t < len(out.results) else None
            ok = (
                have is not None
                and len(have) == len(want)
                and have.index.is_unique
                and np.allclose(
                    have.reindex(exp.vids).to_numpy(), want, rtol=exp.rtol, atol=exp.rtol
                )
            )
            wrong[t] = wrong[t] or not ok
    return wrong
