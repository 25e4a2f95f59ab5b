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


#: At or below this size the recursion bottoms out in exhaustive enumeration:
#: one matmul over the 2^(n-1) side table instead of two contractions and two
#: sub-recursions.  Enumeration wins 1.8x at 12, breaks even at 13 and loses
#: 2.5x at 14 (measured, docs/kernels.md); 12 is the last size with a margin.
KS_BASE_SIZE = 12

#: Largest matrix :func:`brute_force_matrix` enumerates: its side table and
#: the complement are 2 x 4 MB at 16 and double with every further vertex.
_ENUM_LIMIT = 16

#: Batch-size exponent of the matrix iterated sampling: s = k^(1+sigma).
_MATRIX_SIGMA = 0.3

#: Cached enumeration tables: n -> (sides, 1 - sides), each a (2^(n-1)-1, n)
#: float matrix of cut sides (vertex 0 fixed outside, empty cut excluded).
_SIDE_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _side_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    tables = _SIDE_TABLES.get(n)
    if tables is None:
        masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
        sides = np.zeros((masks.size, n))
        sides[:, 1:] = (masks[:, None] >> np.arange(n - 1, dtype=np.uint32)) & 1
        tables = _SIDE_TABLES[n] = (sides, 1.0 - sides)
    return tables


def brute_force_matrix(a: np.ndarray, collect: bool = False):
    """Exact minimum cut of a small matrix graph by enumeration.

    Returns ``(value, side)``; vertex 0 is fixed outside the cut so each cut
    is enumerated once.  All 2^(n-1) - 1 cut values come from one matrix
    product ``sides @ a`` and one row-wise product-sum against the
    complements — exact on integer weights, last-ulp on floats.

    ``collect`` returns ``(value, [sides])`` with *every* minimum cut — the
    find-all-minimum-cuts mode (Lemma 4.3) needs it, because the single-cut
    answer breaks ties deterministically and would hide tied optima.
    """
    n = a.shape[0]
    if n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if n > _ENUM_LIMIT:
        raise ValueError(
            f"brute force limited to n <= {_ENUM_LIMIT} (a few MB of cut "
            f"table), got {n}; use karger_stein_matrix"
        )
    sides, others = _side_tables(n)
    values = np.einsum("kj,kj->k", sides @ a, others)
    if collect:
        best = values.min()
        hits = np.flatnonzero(values <= best + 1e-12)
        return float(best), [sides[i].astype(bool) for i in hits]
    best = int(values.argmin())
    return float(values[best]), sides[best].astype(bool)


def _contract_matrix(a: np.ndarray, labels: np.ndarray, n_new: int) -> np.ndarray:
    """Row/column combine by label as one one-hot product, zero diagonal."""
    n = a.shape[0]
    onehot = np.zeros((n_new, n))
    onehot[labels, np.arange(n)] = 1.0
    out = onehot @ a @ onehot.T
    out.flat[::n_new + 1] = 0.0
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
    mem.alloc("ks_matrix", n * n)  # every later round fits inside it
    while k > t:
        # Sample matrix entries proportionally to weight (each edge appears
        # twice with equal weight: proportionality is preserved).
        cdf = cur.ravel().cumsum()
        if cdf[-1] <= 0:
            break  # disconnected remainder
        s = min(max(32, math.ceil(k ** (1.0 + _MATRIX_SIGMA))), 4 * k * k)
        picks = cdf.searchsorted(rng.random(s) * cdf[-1], side="right")
        su, sv = np.divmod(picks, k)
        mem.scan("ks_matrix", 0, k * k)
        mem.touch("ks_matrix", picks)
        labels, k_new = prefix_select(k, su, sv, t)
        # cdf pass + one binary search per pick + Prefix Selection
        ops = k * k + s * int(math.log2(k)) + 3 * s  # k > t >= 2
        if k_new == k:
            mem.ops(ops)
            continue  # sample produced no contraction; redraw
        cur = _contract_matrix(cur, labels, k_new)
        mem.scan("ks_matrix", 0, k * k)
        mem.ops(ops + 2 * k * k)  # + the row and the column combine
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

    t = math.ceil(1 + n / math.sqrt(2))
    best_val = math.inf
    best = None
    for _rep in range(2):
        cur, labels, k = random_contract_matrix(a, t, rng, mem)
        if k > t and cur.sum() <= 0:
            # Ran out of edges (at once, if ``a`` has none): each remaining
            # vertex is a component, and every component an exact zero cut.
            if collect:
                return 0.0, keyed_cuts(labels == c for c in range(k))
            return 0.0, labels == 0
        val, found = karger_stein_matrix(cur, rng, mem, collect)
        if val < best_val:
            best_val = val
            best = (keyed_cuts(found.values(), labels) if collect
                    else found[labels])
        elif collect and val == best_val:
            best.update(keyed_cuts(found.values(), labels))
    return best_val, best
