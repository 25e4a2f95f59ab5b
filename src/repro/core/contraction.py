"""Prefix Selection and Bulk Edge Contraction (§2.4 step 2-3, §4.1).

*Prefix Selection* finds the longest prefix of a randomly permuted edge
sample whose contraction leaves at least ``t`` connected components
(incremental union-find at the root, exactly where the paper computes it).
Besides the Eager Step, the same kernel clamps the random 2-out
contraction (:mod:`repro.core.two_out`): unioning the 2-out sample with
``t = 2`` contracts exactly its components without ever collapsing a
replica to a single vertex.

*Sparse bulk edge contraction* (distributed edge array): relabel locally,
globally sort edges by endpoints, combine parallel edges locally, then fix
the processor boundaries with one all-gather — the paper's observation is
that after the sort every parallel class lies in one processor or adjacent
ones, so one first-edge exchange suffices (Lemma 4.2: O(1) supersteps,
O(m/p) volume).

*Dense bulk edge contraction* (distributed adjacency matrix): combine the
columns locally, transpose the distributed matrix (one alltoall), combine
again, zero the diagonal (Lemma 4.1: O(1) supersteps, O(n^2/p) volume).

The per-edge computation bottoms out in the kernels of :mod:`repro.kernels`
(vectorized relabel/combine; one early-exit union-find for Prefix Selection).
"""

from __future__ import annotations

import numpy as np

from repro.bsp.combine import combine_by_key
from repro.kernels import (
    combine_sorted_run,
    pack_edge_keys,
    prefix_select_labels,
    relabel_edge_arrays,
    unpack_edge_keys,
)

__all__ = [
    "prefix_select",
    "combine_sorted_run",
    "sparse_bulk_contract",
    "row_block",
    "dense_bulk_contract",
]


#: The core layer's name for the kernel: it *is* the paper's root-side loop.
prefix_select = prefix_select_labels


def sparse_bulk_contract(ctx, comm, u, v, w, g_map, n_new):
    """Generator: sparse bulk edge contraction of a distributed edge array.

    ``u, v, w`` is this processor's slice; ``g_map`` maps the current label
    space onto ``0..n_new-1``.  Returns the processor's slice ``(u, v, w)``
    of the contracted graph with all parallel edges combined.
    """
    # (1) Local rename + loop removal; encode endpoint pairs as one key.
    m = u.size
    u, v, w = relabel_edge_arrays(u, v, w, g_map)
    keys = pack_edge_keys(u, v, n_new)
    ctx.charge_scan(m, words_per_elem=3)
    ctx.charge_random(m, working_set=len(g_map))

    # (2-5) Global sort + local combine + boundary fix-up: this is exactly
    # the generic combine-by-key with weight addition (§4.1 remark).
    keys, w = yield from combine_by_key(ctx, comm, keys, w)

    u, v = unpack_edge_keys(keys, n_new)
    return u, v, w


def row_block(rank: int, size: int, n: int) -> tuple[int, int]:
    """Contiguous row range ``[lo, hi)`` owned by ``rank`` of ``size`` procs."""
    lo = rank * n // size
    hi = (rank + 1) * n // size
    return lo, hi


def dense_bulk_contract(ctx, comm, rows, n_old, g_map, n_new):
    """Generator: dense bulk edge contraction of a distributed matrix.

    ``rows`` is this processor's contiguous row block of the symmetric
    ``n_old x n_old`` weight matrix (block given by :func:`row_block`).
    Returns the processor's row block of the contracted ``n_new x n_new``
    matrix with a zero diagonal.
    """
    p = comm.size
    my_rows = rows.shape[0]

    # (1) Combine columns locally: rows x n_old -> rows x n_new.
    half = np.zeros((my_rows, n_new), dtype=np.float64)
    np.add.at(half.T, g_map, rows.T)
    ctx.charge(ops=float(my_rows) * n_old,
               misses=ctx.cache.matrix_scan(my_rows, n_old))

    # (2) Distributed transpose of `half` (n_old x n_new, row blocks) into
    #     (n_new x n_old, row blocks): one alltoall of sub-blocks.
    parcels = []
    for j in range(p):
        jlo, jhi = row_block(j, p, n_new)
        parcels.append(np.ascontiguousarray(half[:, jlo:jhi].T))
    received = yield from comm.alltoall(parcels)
    lo, hi = row_block(comm.rank, p, n_new)
    transposed = np.zeros((hi - lo, n_old), dtype=np.float64)
    col = 0
    for j in range(p):
        block = received[j]
        transposed[:, col:col + block.shape[1]] = block
        col += block.shape[1]
    assert col == n_old
    ctx.charge(ops=float(hi - lo) * n_old,
               misses=ctx.cache.transpose(max(hi - lo, n_old)))

    # (3) Combine the second dimension and zero the diagonal.
    out = np.zeros((hi - lo, n_new), dtype=np.float64)
    np.add.at(out.T, g_map, transposed.T)
    out[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
    ctx.charge(ops=float(hi - lo) * n_old,
               misses=ctx.cache.matrix_scan(hi - lo, n_old))
    return out
