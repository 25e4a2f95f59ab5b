"""Connected-components / union-find kernels.

One production path per kernel; the per-edge loops they replaced are the
test oracles in :mod:`repro.kernels.reference`, called by the tests.

:func:`cc_labels` / :func:`cc_roots` run the compiled traversal of
``scipy.sparse.csgraph``.  scipy spends its time building CSR and CSC
around the traversal, so dense inputs (m >= 4n) go through it twice on far
fewer edges: a strided sample of 2n edges, then the edges that sample's
components leave uncontracted (:func:`_cc_labels_scipy`; same bytes out,
table in ``docs/kernels.md``).  Roots are always the minimum vertex of
each component, hence dense labels are in first-appearance order — exactly
what scipy's traversal produces and what
:func:`~repro.kernels.reference.scalar_cc_roots` returns byte for byte.
Ids go in as int32 or int64 and stay so; labels come out int64.

:func:`earliest_forest` finds the edges a union-find reading a stream front
to back merges on — the minimum spanning forest under *arrival-index
weights* (Kruskal with weight = position) — with the compiled MSF routine.
:func:`prefix_select_labels` (Prefix Selection, §2.4 step 2) is a plain
list-based union-find instead: stopping at the ``t``-th component, it beat
an MSF replay at every size measured (table in ``docs/kernels.md``).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.kernels.contract import stable_sort_with_order

__all__ = [
    "cc_labels",
    "cc_roots",
    "earliest_forest",
    "flatten_parents",
    "prefix_select_labels",
]


# Edges of a row's tail (past the head all rows convert at once) turned into
# Python ints at a time: an early stop leaves the rest of the sample as is.
_SAMPLE_BLOCK = 256

# Two-level cc_labels (measured table in docs/kernels.md).  The sample is this
# many edges per vertex: enough to leave one giant component and few
# survivors.  Engaging takes an input of this many samples -- below that the
# pass over the sample costs what the filter saves -- and of this many edges,
# below which a call is all scipy constructor overhead (~0.2 ms) and a second
# call doubles it.
_SAMPLE_EDGES_PER_VERTEX = 2
_ENGAGE_SAMPLES = 2
_ENGAGE_MIN_EDGES = 1 << 14


@functools.cache  # the import, once per process
def _scipy_csgraph():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    return coo_matrix, connected_components, minimum_spanning_tree


def flatten_parents(parent: np.ndarray) -> np.ndarray:
    """Pointer-jump ``parent`` to its fixpoint: every entry names its root.

    Vectorized full path compression: repeatedly ``parent <- parent[parent]``
    (each pass at least halves every path, so O(log depth) passes).  The
    result may alias the input when it is already flat.
    """
    parent = np.asarray(parent, dtype=np.int64)
    for _ in range(max(2, parent.size.bit_length() + 2)):
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand
    raise RuntimeError("parent array does not converge; cycle in forest?")


def cc_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Root (= minimum member vertex) of every vertex's component.

    Self-loops are ignored.
    """
    u, v = _ids(u), _ids(v)
    if u.size == 0:
        return np.arange(n, dtype=np.int64)
    labels, _k = _cc_labels_scipy(n, u, v)
    # scipy labels are in first-appearance order: a component's minimum is
    # where its label first lifts the running maximum, no sort needed.
    first = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
    return first[labels]


def _ids(x: np.ndarray) -> np.ndarray:
    """Vertex ids: int32 or int64 as given (no upcast), else int64."""
    x = np.asarray(x)
    return x if x.dtype in (np.int32, np.int64) else x.astype(np.int64)


def _scipy_pass(n: int, u: np.ndarray, v: np.ndarray):
    """One ``csgraph.connected_components`` call; scipy's own int32 labels.

    The traversal reads adjacency only and labels in vertex order, so a
    matrix declared canonical (no sort, no duplicate sum) moves no label."""
    coo_matrix, connected_components, _mst = _scipy_csgraph()
    adj = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    adj.has_canonical_format = True
    count, labels = connected_components(adj, directed=False)
    return labels, int(count)


def _cc_labels_scipy(n: int, u: np.ndarray, v: np.ndarray):
    """Compiled labels, filtering dense inputs through a sample's components.

    Iterated Sampling (§3.2) one level down: label a strided sample, relabel
    every edge through it in one streaming pass, and give only the surviving
    non-loops to scipy again.  Supervertex ids are ordered by minimum member,
    so the composed labels are in first-appearance order as they stand.
    """
    sample = _SAMPLE_EDGES_PER_VERTEX * n
    if u.size < max(_ENGAGE_SAMPLES * sample, _ENGAGE_MIN_EDGES):
        labels, count = _scipy_pass(n, u, v)
    else:
        # Strided, not a prefix: a (u, v)-sorted input's prefix spans few
        # vertices.  Labels stay int32 until the end: half the bytes to move.
        stride = u.size // sample
        first, k1 = _scipy_pass(n, u[::stride], v[::stride])
        cu = first[u]
        cv = first[v]
        keep = cu != cv
        second, count = _scipy_pass(k1, cu[keep], cv[keep])
        labels = second[first]
    return labels.astype(np.int64), count


def cc_labels(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense component labels ``0..k-1`` (first-appearance order) + count."""
    u, v = _ids(u), _ids(v)
    if u.size == 0:
        return np.arange(n, dtype=np.int64), n
    return _cc_labels_scipy(n, u, v)


def earliest_forest(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The arrival-order spanning forest of the edge stream ``(u, v)``.

    Returns exactly the edges (original orientation, ascending position) that
    a union-find processing the stream front to back would merge on — the
    minimum spanning forest under weight = arrival index, computed by the
    compiled MSF routine instead of a per-edge Python loop
    (:func:`repro.kernels.reference.scalar_earliest_forest`, the oracle).
    Self-loops and repeated parallel edges never merge and are dropped.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    # Only a pair's first arrival can merge: dedupe to the earliest position
    # of every unordered endpoint pair (stable sort keeps ascending index).
    key = lo * np.int64(n) + hi
    ks, order = stable_sort_with_order(key)
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    sel = order[starts]
    coo_matrix, _cc, minimum_spanning_tree = _scipy_csgraph()
    g = coo_matrix(
        ((idx[sel] + 1).astype(np.float64), (lo[sel], hi[sel])), shape=(n, n)
    )
    tree = minimum_spanning_tree(g.tocsr()).tocoo()
    merge_at = np.sort(tree.data.astype(np.int64) - 1)
    return u[merge_at], v[merge_at]


def prefix_select_labels(n: int, su: np.ndarray, sv: np.ndarray, t):
    """Prefix Selection: contract the longest prefix of the randomly permuted
    sample ``(su, sv)`` (labels ``0..n-1``) leaving at least ``t`` components.

    Returns dense labels and their count ``n_new``; ``n_new >= t``, with
    equality whenever the sample suffices to reach ``t``.  One union-find
    over Python lists (union by size, ties to the ``su`` end, path halving)
    that stops at the merge bringing the count to ``t``; merges, root choice
    and labels (each root's rank among the sorted roots) are byte-identical
    to :func:`repro.kernels.reference.scalar_prefix_select`.

    A ``(B, s)`` sample (a Karger–Stein level) is ``B`` selections, ``t``
    one target or one per row: ``(B, n)`` labels and ``B`` counts.  Row
    ``r`` owns ids ``r·n ..`` of one union-find, and one numpy pass ranks
    every row's roots.  A 1-D sample is one row, ranked by a list walk (a
    numpy pass costs ~4x that at k = 9; docs/kernels.md).
    """
    su, sv = np.asarray(su), np.asarray(sv)
    if su.ndim == 1:
        par, (count,) = _union_rows(n, su[None], sv[None], [t])
        # a root's label: its rank among the roots in ascending vertex order
        rank = [0] * n
        for r, x in enumerate([x for x, p in enumerate(par) if p == x]):
            rank[x] = r
        labels = []
        for x in par:
            while par[x] != x:
                x = par[x]
            labels.append(rank[x])
        return np.array(labels, dtype=np.int64), count
    first = np.arange(len(su))[:, None] * n  # row r's first id: r·n
    par, counts = _union_rows(n, su + first, sv + first,
                              np.broadcast_to(t, len(su)).tolist())
    root = flatten_parents(np.fromiter(par, np.int64, len(par)))
    roots_upto = np.cumsum(root == np.arange(root.size))  # flat, all rows
    counts = np.array(counts, dtype=np.int64)
    # a root's rank in its row: the roots up to it, less the earlier rows'
    return (roots_upto[root].reshape(len(su), n)
            - (np.cumsum(counts) - counts + 1)[:, None]), counts


def _union_rows(n: int, su: np.ndarray, sv: np.ndarray, targets: list):
    """Every row's early-exit union-find over flat ids: the parent list
    and each row's count.  The first ``2 (n - min t) + 8`` columns of all
    rows go to Python ints at once (about every other sampled edge merges);
    a row that needs more converts its own tail, ``_SAMPLE_BLOCK`` at a
    time."""
    low = min(targets) if targets else n
    if low < 1:
        raise ValueError(f"target component count must be >= 1, got {low}")
    s = su.shape[1]
    head = min(s, 2 * max(n - low, 0) + 8)
    par = list(range(len(su) * n))
    size = [1] * len(par)
    counts = []
    heads = zip(targets, su[:, :head].tolist(), sv[:, :head].tolist())
    for r, (t, us, vs) in enumerate(heads):
        count, lo = n, head
        while count > t:
            for a, b in zip(us, vs):
                while par[a] != a:
                    par[a] = par[par[a]]
                    a = par[a]
                while par[b] != b:
                    par[b] = par[par[b]]
                    b = par[b]
                if a == b:
                    continue
                if size[a] < size[b]:
                    a, b = b, a
                par[b] = a
                size[a] += size[b]
                count -= 1
                if count == t:
                    break
            if count == t or lo >= s:
                break
            us, vs = (x[r, lo:lo + _SAMPLE_BLOCK].tolist() for x in (su, sv))
            lo += _SAMPLE_BLOCK
        counts.append(count)
    return par, counts
