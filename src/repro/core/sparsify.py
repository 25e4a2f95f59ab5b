"""Communication-avoiding sparsification (§3.1, §3.2).

Weighted variant (§3.1, the primitive under Iterated Sampling):

1. every processor computes the total weight ``W_i`` of its edge slice;
   the values are gathered at the root;
2. the root draws, for each of the ``s`` sample slots, the providing
   processor with probability ``W_i / sum_z W_z`` (jointly a multinomial)
   and scatters the per-processor counts;
3. every processor samples that many of its edges, each with probability
   ``w_i(e)/W_i``, and the samples are gathered at the root;
4. the root randomly permutes the gathered sample (the order matters for
   the correctness of Prefix Selection — Lemma 3.1's proof relies on it).

This takes O(1) supersteps, O(s + p) communication volume,
O(s log n + m/p) time and O(s log n + m/(pB)) cache misses (Lemma 3.2).

Unweighted variant (§3.2 refinement, used by connected components): the
root round-trip is skipped — each processor oversamples ``(1+delta) mu_i``
edges locally (Chernoff bound), or contributes *all* its edges when its
expected count is below ``9 ln(n) / delta^2``.  The same whole-slice rule
holds at the top: a processor whose ``ceil((1+delta) mu_i)`` reaches its
slice size ``m_i`` ships the slice as it is — the same volume as ``m_i``
draws with replacement, but every edge instead of ~63 % of them, and no
draw.  Since component finding does not need a random order, no
permutation is applied, and uniform sampling costs O(1) per edge.  The
rule is :func:`draw_count`, which the CC loops also call to skip
relabelling a whole slice: the root's contraction left only loops in it.
"""

from __future__ import annotations

import math
import operator
import weakref

import numpy as np

from repro.rng.sampling import CumulativeWeightSampler, multinomial_split

__all__ = ["cached_sampler", "draw_count", "sparsify_weighted",
           "sparsify_unweighted"]

#: Per-slice sampler cache: ``id(w) -> (weakref(w), sampler)``.  Iterated
#: sampling calls :func:`sparsify_weighted` repeatedly on the *same* weight
#: slice; rebuilding the sampler repeats a full prefix-sum scan each round.
#: Identity is the version key: received payloads are read-only by the BSP
#: contract, and contraction replaces the slice arrays outright, so a cached
#: entry is valid exactly while its weakref still points at the same object
#: (a dead ref also catches ``id`` reuse after the old slice is collected).
_SAMPLER_CACHE: dict[int, tuple] = {}
_SAMPLER_CACHE_MAX = 64


def cached_sampler(w: np.ndarray) -> CumulativeWeightSampler:
    """Memoized :class:`CumulativeWeightSampler` over the array ``w``.

    Shared by weighted sparsification and the 2-out preprocessing (which
    resamples the same incidence-weight array once per replica and
    round); both hit the same identity-keyed cache.
    """
    key = id(w)
    entry = _SAMPLER_CACHE.get(key)
    if entry is not None and entry[0]() is w:
        return entry[1]
    sampler = CumulativeWeightSampler(w)
    if len(_SAMPLER_CACHE) >= _SAMPLER_CACHE_MAX:
        # Drop the oldest entry (insertion order); bounds memory on runs
        # that sparsify many distinct slices.
        _SAMPLER_CACHE.pop(next(iter(_SAMPLER_CACHE)))
    _SAMPLER_CACHE[key] = (weakref.ref(w), sampler)
    return sampler


def sparsify_weighted(ctx, comm, u, v, w, s, *, root=0):
    """Generator: weighted edge sample of size ``s``, gathered at ``root``.

    ``u, v, w`` are this processor's slice of the distributed edge array.
    Returns ``(su, sv, sw)`` at the root — a randomly permuted sample where
    each entry is an i.i.d. edge drawn proportionally to weight (Lemma 3.1)
    — and ``None`` elsewhere.
    """
    if s < 0:
        raise ValueError(f"sample size must be non-negative, got {s}")
    m_local = u.size
    w_local = float(w.sum()) if m_local else 0.0
    ctx.charge_scan(m_local, words_per_elem=3)

    # (1) gather slice weights; (2) root schedules the sample slots.
    weights = yield from comm.gather(w_local, root=root)
    if comm.rank == root:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.sum() <= 0:
            raise ValueError("cannot sparsify a graph with zero total weight")
        counts = multinomial_split(ctx.rng, s, weights)
        ctx.charge(ops=s + comm.size)
        counts = np.asarray(counts, dtype=np.int64)
        ones = np.ones(comm.size, dtype=np.int64)
    else:
        counts = ones = None
    my_count = yield from comm.scatterv(counts, ones, root=root)
    my_count = int(my_count[0][0])

    # (3) local weighted sampling: linear preprocessing, log-time draws.
    if my_count > 0:
        if m_local == 0:
            raise AssertionError(
                "root scheduled samples from an empty slice (weight bookkeeping bug)"
            )
        sampler = cached_sampler(w)
        idx = sampler.sample(ctx.rng, int(my_count))
        part = (u[idx], v[idx], w[idx])
        ctx.charge_random(my_count * max(1.0, math.log2(max(m_local, 2))),
                          working_set=m_local)
    else:
        part = (u[:0], v[:0], w[:0])
    parts = yield from comm.gatherv(*part, root=root)

    # (4) root permutes the sample uniformly at random.
    if comm.rank == root:
        su, sv, sw = parts
        perm = ctx.rng.permutation(su.size)
        ctx.charge(
            ops=su.size * max(1.0, math.log2(max(su.size, 2))),
            misses=ctx.cache.permute(3 * su.size),
        )
        return su[perm], sv[perm], sw[perm]
    return None


def draw_count(m_local, m_total, s, *, n, delta):
    """``ceil((1+delta) mu_i)`` draws from a slice of ``m_local`` of the
    ``m_total`` edges, or None when the slice ships whole: ``mu_i`` under
    the Chernoff floor, or the draws would reach ``m_local``."""
    mu = s * m_local / m_total
    threshold = 9.0 * math.log(max(n, 2)) / (delta * delta)
    k = math.ceil((1.0 + delta) * mu)
    return k if mu >= threshold and k < m_local else None


def sparsify_unweighted(ctx, comm, u, v, s, *, n, delta=0.5, root=0):
    """Generator: unweighted edge sample of ~``s`` edges, gathered at ``root``.

    Local oversampling variant: no root scheduling round-trip, no final
    permutation, O(1) work per drawn edge.  Processors whose expected count
    ``mu_i = s * m_i / m`` is below the Chernoff threshold, or whose
    oversampled count reaches ``m_i``, contribute their whole slice.
    Returns ``(su, sv)`` at the root, ``None`` elsewhere.
    """
    if s < 0:
        raise ValueError(f"sample size must be non-negative, got {s}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m_local = int(u.size)
    # operator.add (not a lambda): reduce ops must pickle for the mp backend.
    m_total = yield from comm.allreduce(m_local, op=operator.add)

    if m_total == 0:
        part = (u[:0], v[:0])
    else:
        k = draw_count(m_local, m_total, s, n=n, delta=delta)
        if k is not None:
            idx = ctx.rng.integers(0, m_local, size=k)
            part = (u[idx], v[idx])
            ctx.charge_random(k, working_set=m_local)
        else:
            part = (u, v)  # include every local edge
            ctx.charge_scan(m_local, words_per_elem=2)
    parts = yield from comm.gatherv(*part, root=root)

    if comm.rank == root:
        su, sv = parts
        ctx.charge_scan(su.size, words_per_elem=2)
        return su, sv
    return None
