"""Sequential Karger–Stein recursive contraction on adjacency matrices.

This is the role played in the paper by the cache-oblivious Karger–Stein
implementation of Geissmann & Gianinazzi [13]: the sequential "KS" baseline
of §5.3 *and* the leaf of the parallel Recursive Step (a single processor is
left with a full copy of the contracted matrix, §4.3).

Random contraction to ``t`` vertices is performed by Iterated Sampling on
the matrix: sample a batch of entries proportionally to weight, contract the
longest prefix that leaves at least ``t`` components (union-find), repeat.
Matrix contraction streams rows and columns, giving the O(n^2 log^3 n / B)
cache behaviour of [13] rather than the pointer-chasing of edge-by-edge
contraction.

All routines optionally record their memory behaviour into a
:class:`~repro.cache.traced.MemoryTracker` for the sequential cache studies
(Figs 8a, 9).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cache.traced import MemoryTracker, NullTracker
from repro.core.contraction import prefix_select
from repro.graph.contract import components_from_edges

__all__ = [
    "brute_force_matrix",
    "random_contract_matrix",
    "karger_stein_matrix",
    "canonical_cut_key",
    "keyed_cuts",
    "KS_BASE_SIZE",
]


def canonical_cut_key(side: np.ndarray) -> bytes:
    """Canonical hashable key of a cut: a side and its complement are the
    same cut, so normalize to the side *not* containing vertex 0."""
    side = np.asarray(side, dtype=bool)
    if side[0]:
        side = ~side
    return np.packbits(side).tobytes()


def keyed_cuts(sides, labels=None) -> dict[bytes, np.ndarray]:
    """The collect-mode payload ``{canonical_cut_key(side): side}``; with
    ``labels`` every side is first lifted through that contraction."""
    if labels is not None:
        sides = (side[labels] for side in sides)
    return {canonical_cut_key(side): side for side in sides}


#: Below this size the recursion bottoms out in exhaustive enumeration.
#: The recursion has Theta(n^2) leaves, so the base case is vectorized: one
#: matmul evaluates all 2^(base-1) cuts at once.
KS_BASE_SIZE = 8

#: Batch-size exponent of the matrix iterated sampling: s = k^(1+sigma).
_MATRIX_SIGMA = 0.3

#: Cached enumeration tables: n -> (2^(n-1)-1, n) float matrix of cut sides
#: (vertex 0 fixed outside the cut, empty cut excluded).
_SIDE_TABLES: dict[int, np.ndarray] = {}


def _side_table(n: int) -> np.ndarray:
    table = _SIDE_TABLES.get(n)
    if table is None:
        masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
        bits = (masks[:, None] >> np.arange(n - 1, dtype=np.uint32)) & 1
        table = np.concatenate(
            [np.zeros((masks.size, 1)), bits.astype(np.float64)], axis=1
        )
        _SIDE_TABLES[n] = table
    return table


def brute_force_matrix(a: np.ndarray, collect: bool = False):
    """Exact minimum cut of a small matrix graph by enumeration.

    Returns ``(value, side)``; vertex 0 is fixed outside the cut so each cut
    is enumerated once.  All 2^(n-1) - 1 cut values are evaluated with one
    matrix product (the recursion calls this Theta(n^2) times).

    ``collect`` returns ``(value, [sides])`` with *every* minimum cut — the
    find-all-minimum-cuts mode (Lemma 4.3) needs it, because the single-cut
    answer breaks ties deterministically and would hide tied optima.
    """
    n = a.shape[0]
    if n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if n > 24:
        raise ValueError(f"brute force limited to n <= 24, got {n}")
    sides = _side_table(n)
    values = np.einsum("ki,ij,kj->k", sides, a, 1.0 - sides)
    if collect:
        best = values.min()
        hits = np.flatnonzero(values <= best + 1e-12)
        return float(best), [sides[i].astype(bool) for i in hits]
    best = int(np.argmin(values))
    return float(values[best]), sides[best].astype(bool)


def _contract_matrix(a: np.ndarray, labels: np.ndarray, n_new: int,
                     mem: MemoryTracker) -> np.ndarray:
    """Row/column combine by label, zero diagonal (streaming passes)."""
    n = a.shape[0]
    rows = np.zeros((n_new, n), dtype=np.float64)
    np.add.at(rows, labels, a)
    out = np.zeros((n_new, n_new), dtype=np.float64)
    np.add.at(out.T, labels, rows.T)
    np.fill_diagonal(out, 0.0)
    mem.alloc("ks_matrix", n * n)
    mem.scan("ks_matrix", 0, n * n)
    mem.ops(2 * n * n)
    return out


def random_contract_matrix(
    a: np.ndarray,
    t: int,
    rng: np.random.Generator,
    mem: MemoryTracker | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Iterated-sampling random contraction of ``a`` down to ``t`` vertices.

    Returns ``(contracted_matrix, labels, n_new)``; ``labels`` maps the
    vertices of ``a`` to ``0..n_new-1``.  If the graph disconnects the
    process (no edges remain while more than ``t`` components exist), the
    returned ``n_new`` exceeds ``t`` — callers detect the zero-weight matrix.
    """
    mem = mem or NullTracker()
    n = a.shape[0]
    if t < 2:
        raise ValueError(f"contraction target must be >= 2, got {t}")
    k = n
    cur = a
    total_labels = np.arange(n, dtype=np.int64)
    while k > t:
        flat = cur.ravel()
        total = flat.sum()
        if total <= 0:
            break  # disconnected remainder
        s = min(max(32, math.ceil(k ** (1.0 + _MATRIX_SIGMA))), 4 * k * k)
        # Sample matrix entries proportionally to weight (each edge appears
        # twice with equal weight: proportionality is preserved).
        cdf = np.cumsum(flat)
        picks = np.searchsorted(cdf, rng.random(s) * cdf[-1], side="right")
        su = picks // k
        sv = picks % k
        mem.alloc("ks_matrix", k * k)
        mem.scan("ks_matrix", 0, k * k)
        mem.touch("ks_matrix", picks)
        mem.ops(k * k + s * max(1, int(math.log2(max(k, 2)))))
        labels, k_new = prefix_select(k, su, sv, t)
        mem.ops(3 * s)
        if k_new == k:
            continue  # sample produced no contraction; redraw
        cur = _contract_matrix(cur, labels, k_new, mem)
        total_labels = labels[total_labels]
        k = k_new
    return cur, total_labels, k


def karger_stein_matrix(
    a: np.ndarray,
    rng: np.random.Generator,
    mem: MemoryTracker | None = None,
    collect: bool = False,
):
    """Recursive contraction minimum cut of a matrix graph.

    Returns ``(value, side)`` where ``side`` is a boolean partition of the
    matrix's vertices achieving ``value``.  One invocation succeeds with
    probability Omega(1/log n) (Lemma 2.2); drivers repeat it.

    ``collect`` returns ``(value, {canonical_key: side})`` instead: every
    tied minimum cut the recursion sees.  One invocation preserves a given
    minimum cut with the Lemma 2.2 probability, so repeated calls
    accumulate the full set of minimum cuts w.h.p. (Lemma 4.3).  Both modes
    draw the same random numbers and charge ``mem`` the same; the
    single-cut mode builds no dict and no cut key.
    """
    mem = mem or NullTracker()
    n = a.shape[0]
    if n <= KS_BASE_SIZE:
        val, found = brute_force_matrix(a, collect)
        mem.alloc("ks_matrix", n * n)
        mem.scan("ks_matrix", 0, n * n)
        mem.ops((1 << n) * n)
        return val, (keyed_cuts(found) if collect else found)

    if a.sum() <= 0:  # edgeless: every single vertex forms a zero cut
        return 0.0, (keyed_cuts(np.eye(n, dtype=bool)) if collect
                     else np.arange(n) == 0)

    t = math.ceil(1 + n / math.sqrt(2))
    best_val = math.inf
    best = None
    for _rep in range(2):
        cur, labels, k = random_contract_matrix(a, t, rng, mem)
        if k > t and cur.sum() <= 0:
            # Disconnected: exact zero cuts along the current components.
            iu, iv = np.nonzero(cur)
            comp, ncomp = components_from_edges(k, iu, iv)
            if collect:
                return 0.0, keyed_cuts((comp == c for c in range(ncomp)), labels)
            return 0.0, (comp == comp[0])[labels]
        val, found = karger_stein_matrix(cur, rng, mem, collect)
        if val < best_val:
            best_val = val
            best = (keyed_cuts(found.values(), labels) if collect
                    else found[labels])
        elif collect and val == best_val:
            best.update(keyed_cuts(found.values(), labels))
    return best_val, best
