"""Step 2: collection ordering (paper §4, Algorithm 1).

Given the EBM's bits at the driver, pad a zero column and compute pairwise
Hamming distances between the (k+1) columns. Algorithm 1 has each worker
compute a partial matrix over its rows and sums the partials at worker w₀;
here each partial is the Gram matrix ``XᵀX`` of a chunk of rows, summed at
the driver, and ``D_ij = |c_i| + |c_j| − 2·G_ij``. Christofides then runs on
the resulting clique. The tour is rotated so the padded zero column comes
first; dropping it yields the view ordering, which is a 1.5-approximation to
CBMP and hence a 3-approximation to COP (Theorem 4.1 and the discussion
following it).
"""
from __future__ import annotations

import numpy as np

from repro.core.tsp import christofides, two_opt

#: Rows per Gram partial: a float32 chunk of a few MB at Table 4's 252
#: views, and few enough rows that every partial sum is exact in float32.
CHUNK_ROWS = 4096


def hamming_matrix(bits: np.ndarray) -> np.ndarray:
    """(k+1)×(k+1) Hamming distance matrix of the zero-padded columns of the
    ``(n, k)`` bool matrix ``bits``.

    Row/column 0 is the padded all-zero column (the empty view); column j+1
    is view j.
    """
    n, k = bits.shape
    g = np.zeros((k + 1, k + 1), dtype="int64")
    for lo in range(0, n, CHUNK_ROWS):
        x = bits[lo : lo + CHUNK_ROWS].astype("float32")
        g[1:, 1:] += (x.T @ x).astype("int64")
    sizes = np.diag(g)
    return sizes[:, None] + sizes[None, :] - 2 * g


def optimize_order(bits: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Collection-ordering optimizer: returns ``(order, hamming_matrix)``.

    ``order`` is a permutation of view indices 0..k-1 minimizing (approx.)
    the total number of edge differences, first view nearest the empty set.
    """
    d = hamming_matrix(bits)
    tour = two_opt(d.astype("float64"), christofides(d.astype("float64")))
    zi = tour.index(0)
    rotated = tour[zi:] + tour[:zi]  # zero column first
    order = [v - 1 for v in rotated[1:]]
    # The tour is a cycle; traversing it in either direction is valid.
    # Pick the direction whose *path* (dropping the closing edge back to
    # the zero column) has the smaller total difference count.
    fwd = order
    bwd = order[::-1]

    def path_cost(o: list[int]) -> int:
        cols = [0] + [v + 1 for v in o]
        return int(sum(d[cols[i], cols[i + 1]] for i in range(len(o))))

    return (fwd if path_cost(fwd) <= path_cost(bwd) else bwd), d


def order_diff_count(d: np.ndarray, order: list[int]) -> int:
    """Total number of edge differences Σ_t |δC_t| implied by ``order``
    (including δC_0 = the first view itself), from the Hamming matrix."""
    cols = [0] + [v + 1 for v in order]
    return int(sum(d[cols[i], cols[i + 1]] for i in range(len(order))))
