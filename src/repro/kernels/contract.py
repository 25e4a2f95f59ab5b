"""Vectorized bulk edge contraction over packed 64-bit endpoint keys.

Sparse Bulk Edge Contraction (§4.1) and its sequential counterpart both
reduce to: relabel endpoints under a vertex map (gather / ``np.take``), mask
self-loops, canonicalize each edge to ``(lo, hi)``, pack the pair into one
64-bit key ``lo * n_new + hi``, and aggregate parallel classes by key.

Parallel classes are aggregated by a stable sort + ``np.add.reduceat`` over
equal runs: the float sums accumulate in arrival order within each class,
byte-compatible with the pre-kernel implementations, which the BSP counter
baselines rely on (a ``bincount`` would sum in another order — nothing that
feeds a counter may use one).

The kernels charge no costs; callers account for them analytically (see
``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_edge_keys",
    "unpack_edge_keys",
    "combine_packed",
    "combine_sorted_run",
    "relabel_edge_arrays",
    "bulk_contract_edges",
    "stable_sort_with_order",
]


def pack_edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Pack canonicalized endpoint pairs into ``min*n + max`` int64 keys."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return lo * np.int64(n) + hi


def unpack_edge_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_edge_keys`; returns ``(u, v)`` with ``u <= v``."""
    n = np.int64(n)
    return (keys // n).astype(np.int64), (keys % n).astype(np.int64)


def combine_sorted_run(
    keys: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Combine equal *consecutive* keys of a sorted run, summing weights."""
    if keys.size == 0:
        return keys, w
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(w, starts)


def stable_sort_with_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_keys, order)`` under a *stable* sort, fast for packed keys.

    numpy's ``kind="stable"`` argsort is mergesort for 64-bit ints; packing
    the arrival index into the low bits and running the default introsort on
    the composite is ~5x faster and yields the *identical* permutation
    (ties cannot exist, so stability is exact, not emulated).  Falls back to
    ``argsort(kind="stable")`` when the composite would overflow int64.
    """
    m = keys.size
    if m == 0:
        return keys, np.zeros(0, dtype=np.int64)
    bits = max(1, int(m - 1).bit_length())
    if keys.dtype == np.int64 and int(keys.min()) >= 0 \
            and int(keys.max()) < (1 << (63 - bits)):
        comp = np.sort((keys << np.int64(bits))
                       | np.arange(m, dtype=np.int64))
        return comp >> np.int64(bits), comp & np.int64((1 << bits) - 1)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def combine_packed(
    keys: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate parallel classes: distinct sorted keys + summed weights."""
    if keys.size == 0:
        return keys, w
    sorted_keys, order = stable_sort_with_order(keys)
    return combine_sorted_run(sorted_keys, w[order])


def relabel_edge_arrays(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather new endpoint labels and drop the self-loops this creates."""
    u = labels[u]
    v = labels[v]
    keep = u != v
    return u[keep], v[keep], w[keep]


def bulk_contract_edges(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    labels: np.ndarray,
    n_new: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full sequential bulk contraction: relabel, drop loops, combine.

    Returns the contracted multigraph's combined edge arrays ``(u, v, w)``
    with ``u <= v``, ordered by packed key (i.e. lexicographically by
    endpoint pair).
    """
    u, v, w = relabel_edge_arrays(u, v, w, labels)
    if u.size == 0:
        return u, v, w
    keys = pack_edge_keys(u, v, n_new)
    keys, w = combine_packed(keys, w)
    out_u, out_v = unpack_edge_keys(keys, n_new)
    return out_u, out_v, w
