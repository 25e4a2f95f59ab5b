"""Sequential Karger–Stein recursive contraction on adjacency matrices.

The cache-oblivious Karger–Stein of Geissmann & Gianinazzi [13]: the "KS"
baseline of §5.3 *and* the leaf of the Recursive Step (§4.3).  Contraction
is Iterated Sampling: sample entries ∝ weight, contract the longest prefix
leaving at least ``t`` components.

Every routine takes a ``(B, k, k)`` stack as readily as one matrix, and the
recursion runs *by levels*: level ``d`` is a stack of ``2^d`` matrices,
contracted twice over by one sampling pass, one Prefix Selection call and
one one-hot product — in chunks of ``_CHUNK_ENTRIES``, depth-first by chunk,
so memory stays bounded.  Draws are keyed by position in the tree
(:func:`_keyed`): under a tracing tracker (``mem.is_tracing``, the LRU
replay of Figs 8a/9) the walk takes chunks of one, the cache-oblivious
order of [13], and returns the same answer, charged the same (DESIGN.md
§4.3).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.cache.traced import MemoryTracker, NullTracker
from repro.core.contraction import prefix_select

__all__ = ["brute_force_matrix", "random_contract_matrix",
           "karger_stein_matrix", "canonical_cut_key", "keyed_cuts",
           "KS_BASE_SIZE"]


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


#: At or below this size the recursion enumerates (read at call time): bases
#: 10-14 measured 6.2 / 4.4 / 4.3 / 4.4 / 8.7 ms on the 81-vertex matrix.
KS_BASE_SIZE = 12

#: Largest matrix enumerated: a 31 MB crossing table, doubling per vertex.
_ENUM_LIMIT = 16

#: Cut values one enumeration pass holds (8 MB), in products of at most 2^18
#: multiply-adds: OpenBLAS keeps those on one thread; threaded ones had
#: seconds-long ~16 ms/call stalls on a 2-vCPU box (docs/kernels.md).
_ENUM_VALUES, _BLAS_SERIAL = 1 << 20, 1 << 18

#: Batch-size exponent of the matrix iterated sampling: s = k^(1+sigma).
_MATRIX_SIGMA = 0.3

#: Input entries one contraction call takes, at most (1 MB; one matrix when
#: a single one is larger): a wider level is walked in chunks, so a call's
#: temporaries stay a few times this or the matrix (docs/kernels.md).
_CHUNK_ENTRIES = 1 << 17

#: n -> the 2^(n-1) - 1 cuts with vertex 0 outside as (cuts, n) bool sides,
#: the vertex pairs ``triu_indices(n, 1)`` and the 0/1 (pairs, cuts) table of
#: which pairs each cut separates.
_SIDE_TABLES: dict[int, tuple] = {}


def _cut_tables(n: int) -> tuple:
    if n not in _SIDE_TABLES:
        masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
        sides = (masks[:, None] << 1 >> np.arange(n, dtype=np.uint32)) & 1 > 0
        iu, ju = np.triu_indices(n, 1)
        crossing = (sides[:, iu] != sides[:, ju]).T.astype(float, order="C")
        _SIDE_TABLES[n] = sides, (iu, ju), crossing
    return _SIDE_TABLES[n]


def brute_force_matrix(a: np.ndarray, collect: bool = False):
    """Exact minimum cut of a small matrix graph by enumeration.

    Returns ``(value, side)``: vertex 0 stays outside, ties go to the first
    cut in table order, all cut values are the upper triangle times the
    crossing table (exact on integer weights, last-ulp on floats).
    ``collect`` returns ``(value, [sides])``, *every* minimum cut (Lemma 4.3).
    A ``(B, n, n)`` stack gives ``B`` values and a list of ``B`` results.
    """
    n = a.shape[-1]
    if n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if n > _ENUM_LIMIT:
        raise ValueError(f"brute force limited to n <= {_ENUM_LIMIT} (tens of "
                         f"MB of cut table), got {n}; use karger_stein_matrix")
    sides, upper, crossing = _cut_tables(n)
    pairs = (a if a.ndim == 3 else a[None])[(slice(None), *upper)]
    fit = max(1, _BLAS_SERIAL // crossing.size)  # matrices a product, at most
    r = math.gcd(len(pairs), 1 << fit.bit_length() - 1)  # and dividing B
    step = r * max(1, _ENUM_VALUES // (r * len(sides)))
    best, found = [], []
    for lo in range(0, len(pairs), step):
        values = (pairs[lo:lo + step].reshape(-1, r, len(crossing))
                  @ crossing).reshape(-1, len(sides))
        best.append(low := values.min(axis=1))
        found += ([list(sides[row <= m + 1e-12])
                   for row, m in zip(values, low)]
                  if collect else list(sides[values.argmin(axis=1)]))
    best = np.concatenate(best)
    return (float(best[0]), found[0]) if a.ndim == 2 else (best, found)


def _weighted_picks(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row ``b`` of uniforms ``u`` picks ∝ the weights summed in ``cdf[b]``:
    searched per row, a pick never leaves its row nor lands on a zero."""
    return np.array([c.searchsorted(x, side="right")
                     for c, x in zip(cdf, u * cdf[:, -1:])])


@functools.cache
def _sample_size(k: int) -> int:
    """Entries one round samples from a ``k``-vertex matrix: k^(1+sigma)."""
    return min(max(32, math.ceil(k ** (1.0 + _MATRIX_SIGMA))), 4 * k * k)


def random_contract_matrix(a: np.ndarray, t: int, rng,
                           mem: MemoryTracker | None = None):
    """Iterated-sampling random contraction of ``a`` down to ``t`` vertices.

    Returns ``(contracted_matrix, labels, n_new)``; ``labels`` maps the
    vertices of ``a`` to ``0..n_new-1``.  If the graph disconnects the
    process (no edges remain while more than ``t`` components exist), the
    returned ``n_new`` exceeds ``t`` — callers detect the zero-weight matrix.

    A ``(B, k, k)`` stack gives ``(B, K, K)``, ``(B, k)`` and ``B``.  Round
    ``r`` draws ``rng.random((B, s(k)))`` or ``rng(r, s(k))``; a matrix now
    at ``kk`` vertices reads the first ``s(kk)`` of its row, sampling ``a``
    with the loops of its contraction so far masked out.
    """
    mem = mem or NullTracker()
    if t < 2:
        raise ValueError(f"contraction target must be >= 2, got {t}")
    stack = a if a.ndim == 3 else a[None]
    B, k = stack.shape[:2]
    draw = rng if callable(rng) else (lambda _r, size: rng.random((B, size)))
    labels = np.tile(np.arange(k), (B, 1))
    sizes = np.full(B, k)
    mem.alloc("ks_matrix", k * k)  # every later round fits inside it
    r = 0
    while (rows := np.flatnonzero(sizes > t)).size:
        lab = labels[rows]
        # each edge appears twice with equal weight: proportionality holds
        w = stack[rows] * (lab[:, :, None] != lab[:, None, :]) if r else stack
        cdf = w.reshape(rows.size, -1).cumsum(axis=1)
        keep = cdf[:, -1] > 0  # else: ran out of edges for good
        if not keep.all():
            rows, lab, cdf = rows[keep], lab[keep], cdf[keep]
            if not rows.size:
                break
        kk = sizes[rows]
        s = np.array([_sample_size(x) for x in kk.tolist()])
        su, sv = divmod(_weighted_picks(
            cdf, draw(r, _sample_size(k))[rows, :s.max()]), k)
        if r:  # as vertices of the contraction so far
            su, sv = (np.take_along_axis(lab, x, 1) for x in (su, sv))
        past = np.arange(s.max()) >= s[:, None]  # loops: unread
        sv[past] = su[past]
        # smaller matrices pad to k with isolated vertices (components too)
        new, count = prefix_select(k, su, sv, t + k - kk)
        # per matrix: cdf pass + one search per pick + Prefix Selection,
        # + the row and the column combine when it contracted (kk > t >= 2)
        moved = count < k
        mem.matrices("ks_matrix", kk, kk * kk * (1 + 2 * moved)
                     + s * (np.log2(kk).astype(np.int64) + 3),
                     picks=su * kk[:, None] + sv, reads=s, moved=moved)
        labels[rows] = np.take_along_axis(new, lab, axis=1) if r else new
        sizes[rows] = count - k + kk
        r += 1
    out = _contract_stack(stack, labels, int(sizes.max()))
    return (out[0], labels[0], int(sizes[0])) if a.ndim == 2 \
        else (out, labels, sizes)


def _contract_stack(stack: np.ndarray, labels: np.ndarray, K: int):
    """(B, k, k) -> (B, K, K): one one-hot product combines by labels."""
    B, k = labels.shape
    onehot = np.zeros((B, K, k))
    onehot[np.arange(B)[:, None], labels, np.arange(k)] = 1.0
    out = onehot @ stack @ onehot.transpose(0, 2, 1)
    out[:, np.arange(K), np.arange(K)] = 0.0
    return out


def _keyed(key: int, d: int, first: int, count: int):
    """Draws of contractions ``first..first+count-1`` of level ``d`` (its
    matrix ``i`` makes children ``2i``, ``2i+1``): round ``r`` is the
    ``r``-th ``(2^(d+1), s(k))`` block of ``Philox(key=[key, d])``."""
    def uniforms(r: int, s: int) -> np.ndarray:
        at = (r * (2 << d) + first) * s
        bits = np.random.Philox(key=np.array([key, d], dtype=np.uint64),
                                counter=at // 4)  # 4 doubles per step
        bits.random_raw(at % 4)
        return np.random.Generator(bits).random((count, s))
    return uniforms


def _walk(stack, d, first, key, mem, labels):
    """Contract matrices ``first..`` of level ``d`` twice each, then walk the
    children on down: ``_CHUNK_ENTRIES`` of input at a time or, tracing, one
    child at a time — depth-first by chunk.  Fills ``labels``, yields the
    leaves in tree order; a chunk that runs out of edges ends its branch."""
    k = stack.shape[-1]
    if k <= KS_BASE_SIZE:
        mem.alloc("ks_matrix", k * k)
        mem.matrices("ks_matrix", np.full(len(stack), k),
                     np.full(len(stack), (1 << k) * k))
        yield stack
        return
    if len(labels) == d:
        labels.append(np.empty((2 << d, k), dtype=np.int32))
    t = math.ceil(1 + k / math.sqrt(2))
    width = 1 if mem.is_tracing else max(1, _CHUNK_ENTRIES // (k * k))
    end = 2 * (first + len(stack))
    for lo in range(2 * first, end, width):
        c = np.arange(lo, min(lo + width, end))
        cur, labels[d][c], n_new = random_contract_matrix(
            stack[c // 2 - first], t, _keyed(key, d, lo, c.size), mem)
        if (n_new <= t).all():
            yield from _walk(cur, d + 1, lo, key, mem, labels)


def _regroup(stacks):
    """The leaves restacked ``_CHUNK_ENTRIES`` at a time: the same groups,
    hence the same products and rounding, however the walk chunked them."""
    pending = []
    for stack in stacks:
        pending += list(stack)
        group = max(1, _CHUNK_ENTRIES // stack[0].size)
        while len(pending) >= group:
            yield np.stack(pending[:group])
            del pending[:group]
    if pending:
        yield np.stack(pending)


def _lift(side: np.ndarray, labels: list, j: int) -> np.ndarray:
    """``side`` of child ``j`` of the last level, over the root's vertices."""
    for lab in reversed(labels):
        side = side[lab[j]]
        j >>= 1
    return side


def karger_stein_matrix(a: np.ndarray, rng: np.random.Generator,
                        mem: MemoryTracker | None = None, collect=False):
    """Recursive contraction minimum cut of a matrix graph.

    Returns ``(value, side)``, ``side`` a boolean partition of the matrix's
    vertices (ties: the first leaf in depth-first order).  One invocation
    succeeds with probability Omega(1/log n) (Lemma 2.2); drivers repeat it.
    Above the base case it draws one 64-bit key from ``rng``.  ``collect``
    returns ``(value, {canonical_key: side})``: every cut of every leaf tied
    at the minimum, lifted along its path, so repeated calls accumulate all
    minimum cuts w.h.p. (Lemma 4.3); both modes draw and charge the same.
    A disconnected matrix runs out of edges at the first level whose target
    is below its component count; each component there is a zero cut.
    """
    mem = mem or NullTracker()
    labels = []
    key = rng.integers(2**64, dtype=np.uint64) if len(a) > KS_BASE_SIZE else 0
    leaves = [brute_force_matrix(group, collect) for group in
              _regroup(_walk(a[None], 0, 0, key, mem, labels))]
    if not leaves:  # each component of the first child is a zero cut
        eye = np.eye(int(labels[-1][0].max()) + 1, dtype=bool)
        values, found = np.zeros(1), [list(eye) if collect else eye[0]]
    else:
        values = np.concatenate([v for v, _ in leaves])
        found = [f for _, chunk in leaves for f in chunk]
    j = int(values.argmin())
    if collect:
        return float(values[j]), keyed_cuts(
            _lift(side, labels, i) for i in np.flatnonzero(values == values[j])
            for side in found[i])
    return float(values[j]), _lift(found[j], labels, j)
