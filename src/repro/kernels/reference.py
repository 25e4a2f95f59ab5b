"""Scalar reference implementations of the hot-path kernels.

These are the original pure-Python loops that the kernels in
:mod:`repro.kernels.unionfind`, :mod:`repro.kernels.contract` and
:mod:`repro.kernels.twosample` replaced.  Nothing in ``src/`` calls them
and no parameter selects them: they are (a) the ground truth the
differential tests call directly and (b) the baseline the perf gate
measures against.

Do not "optimize" these: their value is being obviously correct and
byte-for-byte equal to the pre-vectorization behaviour.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "scalar_cc_roots",
    "scalar_earliest_forest",
    "scalar_prefix_select",
    "scalar_bulk_contract",
    "scalar_two_out_sample",
]


def _find(parent: np.ndarray, x: int) -> int:
    """Path-halving find (mutates ``parent`` along the way)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def scalar_cc_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Union-find roots with the *min-wins* rule: root = min vertex of the
    component.  Deterministic representative, so the vectorized kernel can be
    compared for exact array equality, not just equal partitions.
    """
    parent = np.arange(n, dtype=np.int64)
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
    for x in range(n):
        parent[x] = _find(parent, x)
    return parent


def scalar_earliest_forest(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The edges a min-wins union-find reading ``(u, v)`` front to back
    merges on, in arrival order — the oracle of
    :func:`repro.kernels.unionfind.earliest_forest`."""
    parent = np.arange(n, dtype=np.int64)
    fu, fv = [], []
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        fu.append(a)
        fv.append(b)
    return np.array(fu, dtype=np.int64), np.array(fv, dtype=np.int64)


def scalar_prefix_select(
    n: int, su: np.ndarray, sv: np.ndarray, t: int
) -> tuple[np.ndarray, int]:
    """The original Prefix Selection loop (union by size + path halving).

    Processes the permuted sample edge by edge, stopping as soon as the
    component count would drop below ``t``; labels are the dense renumbering
    of the final union-find roots in sorted-root order.  The production
    kernel (:func:`repro.kernels.unionfind.prefix_select_labels`) reproduces
    this output byte for byte, including the size-based root choice.
    """
    if t < 1:
        raise ValueError(f"target component count must be >= 1, got {t}")
    parent = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    count = n

    for a, b in zip(su.tolist(), sv.tolist()):
        if count <= t:
            break
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        count -= 1

    roots = np.array([_find(parent, x) for x in range(n)], dtype=np.int64)
    uniq, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64), int(uniq.size)


def scalar_bulk_contract(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, labels: np.ndarray, n_new: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-Python bulk edge contraction: relabel, drop loops, combine.

    One dictionary pass per edge — the per-element interpreter work the
    vectorized kernel (:func:`repro.kernels.contract.bulk_contract_edges`)
    exists to avoid.  Output matches the vectorized kernel exactly in the
    edge structure (distinct edges in ascending packed-key order); the
    summed weights agree only up to float associativity, because
    ``np.add.reduceat`` accumulates each run pairwise while this loop folds
    strictly left to right.
    """
    acc: dict[int, float] = {}
    nn = int(n_new)
    for a, b, wt in zip(u.tolist(), v.tolist(), w.tolist()):
        la, lb = int(labels[a]), int(labels[b])
        if la == lb:
            continue
        if la > lb:
            la, lb = lb, la
        key = la * nn + lb
        acc[key] = acc.get(key, 0.0) + wt
    keys = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
    out_w = np.array([acc[k] for k in keys.tolist()], dtype=np.float64)
    out_u = keys // nn if keys.size else keys
    out_v = keys % nn if keys.size else keys
    return out_u.astype(np.int64), out_v.astype(np.int64), out_w


def scalar_two_out_sample(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference loop for :func:`repro.kernels.twosample.two_out_sample`.

    ``draws`` is the flat batch of ``2 n`` uniforms the fast path consumes
    (the caller draws it, so both paths share one RNG contract: slots
    ``2x`` and ``2x + 1`` belong to vertex ``x``).  For each vertex the
    incidence list is walked in the fast path's order — u-side entries in
    edge order, then v-side entries in edge order — a running prefix-sum
    over the incident weights is accumulated in that same order, and each
    draw is resolved by ``bisect_right`` over the prefix-sums, which is
    exactly ``np.searchsorted(..., side="right")``.  Every float operation
    mirrors the vectorized path one for one, so the outputs (and the
    round-off clamp) are byte-identical.
    """
    from bisect import bisect_right

    inc: list[list[int]] = [[] for _ in range(n)]
    for e, a in enumerate(u.tolist()):
        inc[a].append(e)
    for e, b in enumerate(v.tolist()):
        inc[b].append(e)

    # Global prefix-sum over the incidence-ordered weights, accumulated
    # left to right exactly like ``np.cumsum`` does.
    cum: list[float] = []
    starts = [0]
    total = 0.0
    for x in range(n):
        for e in inc[x]:
            total = total + float(w[e])
            cum.append(total)
        starts.append(len(cum))

    e1 = np.full(n, -1, dtype=np.int64)
    e2 = np.full(n, -1, dtype=np.int64)
    for x in range(n):
        lo, hi = starts[x], starts[x + 1]
        if lo == hi:
            continue  # isolated vertex: its two draws are discarded
        base = cum[lo - 1] if lo > 0 else 0.0
        top = cum[hi - 1]
        for slot, out in ((2 * x, e1), (2 * x + 1, e2)):
            target = base + float(draws[slot]) * (top - base)
            idx = bisect_right(cum, target)
            idx = min(max(idx, lo), hi - 1)
            out[x] = inc[x][idx - lo]
    return e1, e2
