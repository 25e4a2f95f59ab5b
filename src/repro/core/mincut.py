"""Exact global minimum cut (§4): Eager Step + Recursive Step trials.

The algorithm performs ``t = Theta((n^2/m) log^2 n)`` independent trials and
returns the best cut found.  Each trial:

1. **Eager Step** — randomly contract the graph to ``ceil(sqrt(m)) + 1``
   vertices with Iterated Sampling over the distributed edge array
   (weighted Sparsification + Prefix Selection + sparse Bulk Edge
   Contraction, §4.2);
2. **Recursive Step** — run Recursive Contraction on the now-dense graph,
   stored as a distributed adjacency matrix.  Each recursion level contracts
   two independent copies to ``ceil(1 + n/sqrt(2))`` vertices (dense
   Iterated Sampling + dense Bulk Edge Contraction) and hands one copy to
   each half of the processor group; a group of one finishes with the
   sequential cache-oblivious Karger–Stein code (§4.3).

Trial scheduling follows §4: with ``p <= t`` the graph is replicated and
trials are distributed round-robin over processors (no communication inside
a trial); with ``p > t`` the processors split into ``t`` groups, each
running one trial in parallel.

All results carry a *witness*: a boolean vertex partition of the original
graph achieving the reported value (recomputing its value on the input is
the library's end-to-end self-check, mirroring the artifact's verification
methodology).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bsp.counters import CountersReport
from repro.bsp.machine import TimeEstimate
from repro.cache.traced import AnalyticTracker, MemoryTracker, NullTracker
from repro.core.contraction import (
    dense_bulk_contract,
    prefix_select,
    row_block,
    sparse_bulk_contract,
)
from repro.core.karger_stein import (
    KS_BASE_SIZE,
    karger_stein_matrix,
    keyed_cuts,
)
from repro.core.sparsify import sparsify_weighted
from repro.core.trials import VARIANTS, num_trials
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.kernels import bulk_contract_edges
from repro.rng.sampling import CumulativeWeightSampler
from repro.runtime.base import Backend, owns_backend
from repro.rng.streams import RngStreams

__all__ = [
    "VARIANTS",
    "minimum_cut",
    "minimum_cuts",
    "minimum_cut_sequential",
    "mincut_program",
    "mincut_trials_program",
    "MinCutResult",
    "MinCutsResult",
]

#: Sampling exponent of the sparse Eager Step: sample size k^(1+sigma).
_EAGER_SIGMA = 0.3

#: Safety bound on Iterated Sampling rounds (O(1) needed w.h.p.).
_MAX_ROUNDS = 80


def _eager_target(n: int, m: int) -> int:
    """Eager Step contraction target: ceil(sqrt(m)) + 1, at least 2."""
    return max(2, min(n, math.ceil(math.sqrt(max(m, 1))) + 1))


# ---------------------------------------------------------------------------
# Sequential trial (the p <= t fast path and the minimum_cut_sequential code)
# ---------------------------------------------------------------------------

def sequential_eager_step(
    u, v, w, n, target, rng,
    mem: MemoryTracker | None = None,
    first_sampler: CumulativeWeightSampler | None = None,
):
    """Iterated Sampling contraction of edge arrays down to ``target``.

    Returns ``(u, v, w, labels, k)``; ``labels`` maps ``0..n-1`` onto the
    ``k`` remaining vertices.  ``first_sampler`` lets callers reuse the
    first round's cumulative-weight table across trials on the same graph.
    """
    mem = mem or NullTracker()
    k = n
    labels_total = np.arange(n, dtype=np.int64)
    mem.alloc("edges", u.size, words_per_elem=3)
    mem.alloc("labels", n)
    for round_idx in range(_MAX_ROUNDS):
        m = u.size
        if k <= target or m == 0:
            break
        s = min(max(32, math.ceil(k ** (1.0 + _EAGER_SIGMA))), 4 * m)
        sampler = first_sampler if (round_idx == 0 and first_sampler is not None) \
            else CumulativeWeightSampler(w)
        idx = sampler.sample(rng, s)
        su, sv = u[idx], v[idx]
        mem.scan("edges", 0, m)
        mem.touch("edges", idx)
        mem.ops(m + s * max(1, int(math.log2(max(m, 2)))))
        labels, k_new = prefix_select(k, su, sv, target)
        mem.touch("labels", su)
        mem.ops(3 * s)
        u, v, w = bulk_contract_edges(u, v, w, labels, k_new)
        mem.scan("edges", 0, m)
        mem.ops(m * max(1, int(math.log2(max(m, 2)))))
        labels_total = labels[labels_total]
        mem.scan("labels")
        mem.ops(n)
        k = k_new
    else:
        raise RuntimeError("eager step did not converge; sampling bug")
    return u, v, w, labels_total, k


def _edges_to_dense(u, v, w, k):
    """Accumulate combined edge arrays into a symmetric k x k matrix."""
    a = np.zeros((k, k), dtype=np.float64)
    np.add.at(a, (u, v), w)
    np.add.at(a, (v, u), w)
    return a


def sequential_trial(
    u, v, w, n, rng,
    mem: MemoryTracker | None = None,
    first_sampler: CumulativeWeightSampler | None = None,
    collect: bool = False,
):
    """One full trial (Eager + Recursive Step) on local edge arrays.

    Returns ``(value, side)`` with ``side`` a boolean partition of the
    original ``n`` vertices — or, with ``collect``, ``(value,
    {canonical_key: side})`` over every tied minimum cut the trial saw.
    """
    mem = mem or NullTracker()
    target = _eager_target(n, u.size)
    u2, v2, w2, labels, k = sequential_eager_step(
        u, v, w, n, target, rng, mem=mem, first_sampler=first_sampler
    )
    a = _edges_to_dense(u2, v2, w2, k)
    mem.alloc("ks_matrix", k * k)
    mem.scan("ks_matrix", 0, k * k)
    mem.ops(k * k)
    val, found = karger_stein_matrix(a, rng, mem, collect)
    if collect:
        return val, keyed_cuts(found.values(), labels)
    return val, found[labels]


def _pick_min(a, b):
    """Deterministic fold: keep the smaller cut value (left wins ties)."""
    return a if a[0] <= b[0] else b


def _merge_cut_sets(a, b):
    """Fold for collect-all runs: ``(value, {key: side})`` pairs."""
    va, cuts_a = a
    vb, cuts_b = b
    if va < vb:
        return a
    if vb < va:
        return b
    merged = dict(cuts_a)
    merged.update(cuts_b)
    return va, merged


def _zero_cut(n, collect=False):
    """The cut every route reports for an edgeless input: vertex 0 alone.

    Collected, it is keyed and oriented the way
    :func:`~repro.core.karger_stein.canonical_cut_key` orients (vertex 0
    outside), so both programs and the ledger hold the same bytes.
    """
    side = np.arange(n) == 0
    return keyed_cuts([~side]) if collect else side


def _component_cut(labels):
    """Zero cut of a disconnected input: vertex 0's component against the
    rest (vertex 0 alone when the labels name a single component)."""
    side = labels == labels[0]
    return _zero_cut(labels.size) if side.all() else side


def _iter_trials(u, v, w, n, trial_ids, trial_seed, mem, collect=False):
    """The per-rank trial loop: yields ``(trial_id, value, payload)``.

    ``u, v, w`` is the whole (replicated) edge array and ``trial_ids`` the
    *global* ids this caller owns.  Trial ``ti`` draws from
    ``RngStreams(trial_seed).aux(ti)``, so its result is a pure function of
    ``(graph, seed, ti)`` — independent of who runs it, in which batch, on
    how many processors.  ``payload`` is the trial's witness side, or with
    ``collect`` its ``{canonical_key: side}`` set; costs go to ``mem``.
    """
    streams = RngStreams(trial_seed)
    first_sampler = CumulativeWeightSampler(w)
    for ti in trial_ids:
        val, payload = sequential_trial(
            u, v, w, n, streams.aux(int(ti)), mem=mem,
            first_sampler=first_sampler, collect=collect,
        )
        yield int(ti), float(val), payload


# ---------------------------------------------------------------------------
# Parallel trial: distributed Eager Step + distributed Recursive Step
# ---------------------------------------------------------------------------

def _select_prefix(ctx, comm, sample, k, target, s, root):
    """Generator: Prefix Selection on the root's ``s``-edge sample, then
    broadcast ``(labels, k_new)`` — the step both Iterated Samplings share."""
    payload = None
    if comm.rank == root:
        su, sv, _sw = sample
        payload = prefix_select(k, su, sv, target)
        ctx.charge(ops=3.0 * s, misses=ctx.cache.random_access(s, k))
    return (yield from comm.bcast(payload, root=root))


def parallel_eager_step(ctx, comm, u, v, w, n, target, *, sigma=_EAGER_SIGMA):
    """Generator: distributed Iterated Sampling down to ``target`` vertices.

    ``u, v, w`` is this processor's slice.  Returns
    ``(u, v, w, labels, k)`` where ``labels`` (known at every member) maps
    the original ``n`` vertices onto the ``k`` remaining ones.
    """
    root = 0
    k = n
    labels_total = np.arange(n, dtype=np.int64)
    for _round in range(_MAX_ROUNDS):
        m_total = yield from comm.allreduce(int(u.size), op=operator.add)
        if k <= target or m_total == 0:
            break
        s = min(max(32, math.ceil(k ** (1.0 + sigma))), 4 * m_total)
        sample = yield from sparsify_weighted(ctx, comm, u, v, w, s, root=root)
        g_map, k_new = yield from _select_prefix(ctx, comm, sample, k, target,
                                                 s, root)
        if k_new == k:
            continue
        u, v, w = yield from sparse_bulk_contract(ctx, comm, u, v, w, g_map, k_new)
        labels_total = g_map[labels_total]
        ctx.charge_scan(n)
        k = k_new
    else:
        raise RuntimeError("parallel eager step did not converge; sampling bug")
    return u, v, w, labels_total, k


def edges_to_distributed_matrix(ctx, comm, u, v, w, k):
    """Generator: route combined edges into row blocks of a dense matrix.

    Returns this processor's contiguous row block of the symmetric ``k x k``
    weight matrix (distribution per :func:`row_block`).
    """
    q = comm.size
    bounds = np.array([row_block(j, q, k)[0] for j in range(q)] + [k],
                      dtype=np.int64)

    def owner(rows):
        return (np.searchsorted(bounds, rows, side="right") - 1).astype(np.int64)

    parcels = []
    ou = owner(u)
    ov = owner(v)
    for j in range(q):
        sel_u = ou == j
        sel_v = ov == j
        rows = np.concatenate([u[sel_u], v[sel_v]])
        cols = np.concatenate([v[sel_u], u[sel_v]])
        ws = np.concatenate([w[sel_u], w[sel_v]])
        parcels.append((rows, cols, ws))
    ctx.charge_scan(u.size, words_per_elem=3)
    received = yield from comm.alltoallv(parcels)
    lo, hi = row_block(comm.rank, q, k)
    block = np.zeros((hi - lo, k), dtype=np.float64)
    # One unbuffered scatter-add over the senders' concatenated triples:
    # np.add.at applies updates in element order, so this accumulates the
    # same floats in the same order as a per-sender loop did.
    rows, cols, ws = received
    np.add.at(block, (rows - lo, cols), ws)
    ctx.charge(ops=float(hi - lo) * k, misses=ctx.cache.matrix_scan(hi - lo, k))
    return block


def dense_iterated_sampling(ctx, comm, rows, n, target, *, sigma=_EAGER_SIGMA):
    """Generator: contract a distributed matrix graph down to ``target``.

    Returns ``(rows, labels, k, disconnected)``; ``labels`` (length ``n``,
    known everywhere) maps onto the ``k`` remaining vertices.
    ``disconnected`` is set when the matrix ran out of edges early.
    """
    root = 0
    k = n
    labels_total = np.arange(n, dtype=np.int64)
    disconnected = False
    for _round in range(_MAX_ROUNDS):
        if k <= target:
            break
        local_w = float(rows.sum())
        total_w = yield from comm.allreduce(local_w, op=operator.add)
        if total_w <= 0:
            disconnected = True
            break
        lo, _hi = row_block(comm.rank, comm.size, k)
        iu, iv = np.nonzero(rows)
        eu = iu.astype(np.int64) + lo
        ev = iv.astype(np.int64)
        ew = rows[iu, iv]
        ctx.charge(ops=rows.size, misses=ctx.cache.matrix_scan(*rows.shape))
        s = min(max(32, math.ceil(k ** (1.0 + sigma))), 4 * k * k)
        sample = yield from sparsify_weighted(ctx, comm, eu, ev, ew, s, root=root)
        g_map, k_new = yield from _select_prefix(ctx, comm, sample, k, target,
                                                 s, root)
        if k_new == k:
            continue
        rows = yield from dense_bulk_contract(ctx, comm, rows, k, g_map, k_new)
        labels_total = g_map[labels_total]
        k = k_new
    else:
        raise RuntimeError("dense iterated sampling did not converge; sampling bug")
    return rows, labels_total, k, disconnected


def _recursion_leaf(ctx, a):
    """One processor holds the whole matrix: sequential Karger–Stein on it
    (a single enumeration at ``KS_BASE_SIZE`` and below), charged to ``ctx``."""
    tracker = AnalyticTracker(ctx.cache)
    val, side = karger_stein_matrix(a, ctx.rng, tracker)
    ctx.charge(ops=tracker.op_count, misses=tracker.miss_count)
    return val, side


def recursive_step(ctx, comm, rows, n):
    """Generator: distributed Recursive Contraction (§4.3).

    ``rows`` is this processor's row block of the current matrix.  Returns
    ``(value, side)`` — known at *every* member of ``comm`` — where ``side``
    partitions the matrix's ``n`` vertices.
    """
    q = comm.size
    if q == 1:
        return _recursion_leaf(ctx, rows)

    total_w = yield from comm.allreduce(float(rows.sum()), op=operator.add)
    if total_w <= 0:
        return 0.0, _zero_cut(n)

    if n <= max(KS_BASE_SIZE, q):
        # Too few rows to split further: assemble the matrix at local rank 0
        # (gatherv's axis-0 concat of 2-D row blocks == vstack), finish the
        # recursion there, broadcast the answer.
        blocks = yield from comm.gatherv(rows, root=0)
        payload = _recursion_leaf(ctx, blocks[0]) if comm.rank == 0 else None
        return (yield from comm.bcast(payload, root=0))

    t = max(2, math.ceil(1 + n / math.sqrt(2)))
    half = q // 2
    color = 0 if comm.rank < half else 1

    copies = []
    for _c in (0, 1):
        crows, clabels, ck, disc = yield from dense_iterated_sampling(
            ctx, comm, rows, n, t
        )
        copies.append((crows, clabels, ck, disc))
    for crows, clabels, ck, disc in copies:
        if disc:
            # A copy ran out of edges above its target: the graph (hence the
            # input) is disconnected — an exact zero cut along a component.
            return 0.0, _component_cut(clabels)

    # Redistribute: copy 0's rows to the first `half` processors, copy 1's
    # to the rest, in one alltoall over the parent group.
    group_sizes = (half, q - half)
    parcels = []
    for j in range(q):
        c = 0 if j < half else 1
        crows, _clabels, ck, _ = copies[c]
        jr = j if c == 0 else j - half
        tlo, thi = row_block(jr, group_sizes[c], ck)
        mylo, myhi = row_block(comm.rank, q, ck)
        lo, hi = max(tlo, mylo), min(thi, myhi)
        if hi > lo:
            parcels.append((lo, crows[lo - mylo:hi - mylo]))
        else:
            parcels.append(None)
    received = yield from comm.alltoall(parcels)

    my_rows_c, my_labels, my_k, _ = copies[color]
    sub = yield from comm.split(color)
    tlo, thi = row_block(sub.rank, group_sizes[color], my_k)
    block = np.zeros((thi - tlo, my_k), dtype=np.float64)
    for part in received:
        if part is None:
            continue
        lo, chunk = part
        block[lo - tlo:lo - tlo + chunk.shape[0]] = chunk
    ctx.charge(ops=float(max(thi - tlo, 0)) * my_k,
               misses=ctx.cache.matrix_scan(max(thi - tlo, 0), my_k))

    val, side_sub = yield from recursive_step(ctx, sub, block, my_k)
    side_n = side_sub[my_labels]
    best = yield from comm.allreduce((val, side_n), op=_pick_min)
    return best


def parallel_trial(ctx, comm, u, v, w, n):
    """Generator: one fully parallel trial over the group ``comm``.

    Returns ``(value, side)`` known at every group member; ``side``
    partitions the original ``n`` vertices.
    """
    m_total = yield from comm.allreduce(int(u.size), op=operator.add)
    target = _eager_target(n, m_total)
    u2, v2, w2, labels, k = yield from parallel_eager_step(
        ctx, comm, u, v, w, n, target
    )
    m_left = yield from comm.allreduce(int(u2.size), op=operator.add)
    if m_left == 0 and k > 1:
        return 0.0, _component_cut(labels)
    rows = yield from edges_to_distributed_matrix(ctx, comm, u2, v2, w2, k)
    val, side_k = yield from recursive_step(ctx, comm, rows, k)
    return val, side_k[labels]


# ---------------------------------------------------------------------------
# Driver program and public API
# ---------------------------------------------------------------------------

def _replicate_edges(ctx, slices):
    """Generator: allgather the distributed edge array at every rank (the
    paper broadcasts the graph when p <= t; each group needs a full copy
    when p > t)."""
    g = slices[ctx.rank]
    fu, fv, fw = yield from ctx.comm.allgatherv(g.u, g.v, g.w)
    ctx.charge_scan(fu.size, words_per_elem=3)
    return fu, fv, fw


def mincut_program(ctx, slices, n, trials, trial_seed, collect_all=False):
    """SPMD program: replicate the graph, run the trials, fold the minimum.

    Returns ``(value, side)`` at every rank — or, with ``collect_all``,
    ``(value, {canonical_key: side})`` carrying every distinct minimum cut
    discovered across the trials (Lemma 4.3: the trial budget finds *all*
    minimum cuts w.h.p.).

    With ``p <= trials`` rank ``r`` runs trials ``r, r + p, ...`` through
    the loop it shares with :func:`mincut_trials_program` and the closing
    ``allreduce`` folds the minimum; with ``p > trials`` the ranks split
    into one group per trial and each group runs the distributed §4 trial.
    """
    comm = ctx.comm
    p = ctx.p
    fold = _merge_cut_sets if collect_all else _pick_min

    fu, fv, fw = yield from _replicate_edges(ctx, slices)
    if fu.size == 0:
        return 0.0, _zero_cut(n, collect_all)

    best = (math.inf, {} if collect_all else None)
    if p <= trials:
        # Trials round-robin over processors; no communication inside.
        tracker = AnalyticTracker(ctx.cache)
        for _ti, val, payload in _iter_trials(
                fu, fv, fw, n, range(ctx.rank, trials, p), trial_seed,
                tracker, collect=collect_all):
            best = fold(best, (val, payload))
        ctx.charge(ops=tracker.op_count, misses=tracker.miss_count)
        best = yield from comm.allreduce(best, op=fold)
        return best

    # p > trials: processor groups, one parallel trial per group.
    color = ctx.rank * trials // p
    sub = yield from comm.split(color)
    local = EdgeList(n, fu, fv, fw, canonical=False, validate=False)
    my_slice = local.slices(sub.size)[sub.rank]
    val, side = yield from parallel_trial(
        ctx, sub, my_slice.u, my_slice.v, my_slice.w, n
    )
    if sub.rank == 0:
        best = (val, keyed_cuts([side]) if collect_all else side)
    best = yield from comm.allreduce(best, op=fold)
    return best


def mincut_trials_program(ctx, slices, n, trial_ids, trial_seed,
                          collect_all=False):
    """SPMD program: run the given trials, gather per-trial results to root.

    The scheduler's wave: where :func:`mincut_program` runs
    ``range(trials)`` and folds inside the backend, this runs an explicit
    set of global trial ids and returns each result, which is what makes
    retry, checkpointing and partial aggregation possible — the ledger
    records every trial and the fold happens outside, in trial-id order.
    Both run the same :func:`_iter_trials` loop, so trial ``ti``'s bits
    are the same under either and for every ``p`` and wave size.

    Trials are owned round-robin by position — position ``j`` belongs to
    rank ``j % p``.  Rank 0 returns the wave's results as a list of
    ``(trial_id, value, side)`` sorted by trial id — or, with
    ``collect_all``, ``(trial_id, value, {canonical_key: side})``
    carrying every tied minimum-cut witness the trial found (Lemma 4.3);
    other ranks return ``None``.

    Two collectives: the graph-replication ``allgatherv`` and the result
    ``gather`` — so fault ``step=0`` fires before any trial work and
    ``step=1`` fires after a rank finished its trials but before the
    results reach the coordinator (the "work lost at the last moment"
    scenario recovery tests want).
    """
    fu, fv, fw = yield from _replicate_edges(ctx, slices)
    my_ids = trial_ids[ctx.rank::ctx.p]
    if fu.size == 0:
        mine = [(int(ti), 0.0, _zero_cut(n, collect_all)) for ti in my_ids]
    else:
        tracker = AnalyticTracker(ctx.cache)
        mine = list(_iter_trials(fu, fv, fw, n, my_ids, trial_seed, tracker,
                                 collect=collect_all))
        ctx.charge(ops=tracker.op_count, misses=tracker.miss_count)
    gathered = yield from ctx.comm.gather(mine, root=0)
    if ctx.rank != 0:
        return None
    return sorted((item for part in gathered for item in part),
                  key=lambda item: item[0])


@dataclass(frozen=True)
class MinCutResult:
    """Result of an exact minimum-cut run."""

    value: float
    side: np.ndarray         # boolean witness partition of the input vertices
    trials: int
    report: CountersReport
    time: TimeEstimate
    #: Per-superstep TraceEvents when the backend traced, else None.
    trace: list | None = None
    #: Scheduled runs: success probability actually achieved by the
    #: trials that completed (>= the requested probability when the full
    #: planned budget finished); None for unscheduled runs.
    achieved_success_prob: float | None = None
    #: Scheduled runs: the per-trial ledger
    #: (:class:`~repro.sched.ledger.TrialLedger`); None otherwise.
    ledger: Any = None
    #: Which trial pipeline produced the result: ``"default"`` or
    #: ``"2out"`` (the GNT random 2-out contraction preprocessing).
    variant: str = "default"
    #: 2-out runs: the preprocessing/budget summary
    #: (:class:`~repro.core.two_out.TwoOutSummary`); None otherwise.
    two_out: Any = None


@owns_backend
def _exact_cut(g, p, collect, *, seed, success_prob, trials, trial_scale,
               backend, scheduler, resume,
               preprocess=False, variant="default"):
    """The one driver behind :func:`minimum_cut` and :func:`minimum_cuts`.

    Validates once, then takes one of three roads: the 2-out pipeline, the
    scheduler's waves, or a single :func:`mincut_program` dispatch.
    ``collect`` selects the all-minimum-cuts result.
    """
    if g.n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}: expected one of "
                         f"{VARIANTS}")
    if resume and scheduler is None:
        raise ValueError("resume=True requires a scheduler")
    if trials is not None and trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if variant == "2out":
        if trials is not None:
            raise ValueError(
                "variant='2out' recomputes the trial budget from the "
                "contracted replicas; a trials override would be ignored")
        if resume:
            raise ValueError(
                "variant='2out' does not support resume: one checkpoint "
                "cannot span the per-replica dispatches")
    lift = None
    if preprocess:
        from repro.core.preprocess import contract_heavy_edges

        h, lift = contract_heavy_edges(g)
        if h.n < 2:
            lift = None
        else:
            g = h
    if variant == "2out":
        from dataclasses import replace

        from repro.core.two_out import two_out_minimum_cut

        res = two_out_minimum_cut(
            g, p, seed=seed, success_prob=success_prob,
            trial_scale=trial_scale, scheduler=scheduler, backend=backend,
        )
        if lift is not None and res.side is not None:
            res = replace(res, side=res.side[lift])
        return res
    if scheduler is not None:
        run = scheduler.run(
            g, p, backend=backend, seed=seed, success_prob=success_prob,
            trials=trials, trial_scale=trial_scale, resume=resume,
            collect_all=collect,
        )
        value, side, sides, trials = run.value, run.side, run.sides, run.trials
        extra = {"achieved_success_prob": run.achieved_success_prob,
                 "ledger": run.ledger}
    else:
        if trials is None:
            trials = num_trials(g.n, max(g.m, 1), success_prob=success_prob,
                                scale=trial_scale)
        run = backend.run(
            mincut_program, p, seed=seed,
            args=(plane_slices(g, p), g.n, trials, seed),  # plane marker
            kwargs={"collect_all": True} if collect else None,
        )
        value, found = run.root_value
        side = None if collect else found
        sides = [found[k] for k in sorted(found)] if collect else None
        extra = {}
    common = dict(value=value, trials=trials, report=run.report,
                  time=run.time, trace=run.trace, **extra)
    if collect:
        return MinCutsResult(sides=sides, **common)
    if lift is not None and side is not None:
        side = side[lift]
    return MinCutResult(side=side, **common)


def minimum_cut(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    success_prob: float = 0.9,
    trials: int | None = None,
    trial_scale: float = 1.0,
    preprocess: bool = False,
    variant: str = "default",
    backend: str | Backend | None = None,
    scheduler: "Any | None" = None,
    resume: bool = False,
) -> MinCutResult:
    """Exact (w.p. >= ``success_prob``) global minimum cut of ``g``.

    ``trials`` overrides the §4 trial count Theta((n^2/m) log^2 n);
    ``trial_scale`` shrinks it proportionally for scaled-down benchmark
    runs.  ``preprocess`` applies the §2.3 heavy-edge contraction first
    (exactness-preserving; shrinks graphs with a wide weight spread).
    Deterministic given ``seed`` (and, for ``p <= trials``, independent of
    ``p``).  ``backend`` selects the runtime (``"sim"``/``"mp"``/
    instance); results are backend-independent for a fixed ``seed``.

    ``variant="2out"`` runs the GNT random 2-out contraction
    preprocessing first (:mod:`repro.core.two_out`) and dispatches the
    much smaller recomputed trial budgets of the contracted replicas —
    same exactness guarantee, with automatic degradation to the default
    pipeline when the preprocessing buys nothing.  It recomputes budgets
    itself, so it rejects a ``trials`` override, ``resume`` and
    checkpointing schedulers.

    ``scheduler`` — a :class:`~repro.sched.scheduler.TrialScheduler` —
    routes the trials through the fault-tolerant dispatch loop (waves of
    :func:`mincut_trials_program`) instead of one :func:`mincut_program`
    dispatch: retries, checkpoint/resume (``resume=True``
    reloads the scheduler's checkpoint), fault injection, and an
    ``achieved_success_prob``/``ledger`` on the result.  The cut value is
    bit-identical to the unscheduled path for the same ``seed``.

    Automatic superstep fusion is configured on the backend
    (``backend=SimBackend(fuse=True)``); results stay bit-identical.
    There is deliberately *no* ``shrink=`` here: the
    exact pipeline cannot release idle ranks without changing results —
    the eager contraction's sort splitters span ``comm.size`` (a smaller
    group redraws the root's multinomial refill), and the recursion's
    group halving decides which Philox stream runs each Karger–Stein
    leaf.  Group-shrink lives in the CC kernel and the approximate cut,
    where bit-parity holds (see ``docs/fusion.md``).
    """
    return _exact_cut(
        g, p, False, seed=seed, success_prob=success_prob, trials=trials,
        trial_scale=trial_scale, preprocess=preprocess, variant=variant,
        backend=backend, scheduler=scheduler, resume=resume,
    )


@dataclass(frozen=True)
class MinCutsResult:
    """All distinct minimum cuts discovered across the trials."""

    value: float
    sides: list[np.ndarray]   # one boolean witness per distinct cut
    trials: int
    report: CountersReport
    time: TimeEstimate
    #: Per-superstep TraceEvents when the backend traced, else None.
    trace: list | None = None
    #: Scheduled runs: achieved success probability / trial ledger, as
    #: in :class:`MinCutResult`; None for unscheduled runs.
    achieved_success_prob: float | None = None
    ledger: Any = None


def minimum_cuts(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    success_prob: float = 0.9,
    trials: int | None = None,
    trial_scale: float = 1.0,
    backend: str | Backend | None = None,
    scheduler: "Any | None" = None,
    resume: bool = False,
) -> MinCutsResult:
    """All global minimum cuts of ``g`` (w.h.p. given enough trials).

    Lemma 4.3: the §4 trial budget preserves and finds *every* minimum cut
    with high probability; this driver collects the distinct witnesses
    discovered across trials (a side and its complement count once).
    ``backend`` selects the runtime and ``scheduler`` routes the trials
    through the fault-tolerant dispatch loop, as in :func:`minimum_cut`.
    """
    return _exact_cut(
        g, p, True, seed=seed, success_prob=success_prob, trials=trials,
        trial_scale=trial_scale, backend=backend, scheduler=scheduler,
        resume=resume,
    )


def minimum_cut_sequential(
    g: EdgeList,
    *,
    seed: int = 0,
    success_prob: float = 0.9,
    trials: int | None = None,
    trial_scale: float = 1.0,
    mem: MemoryTracker | None = None,
) -> tuple[float, np.ndarray]:
    """Sequential execution of the trial loop, instrumentable with ``mem``.

    This is the backend-free p = 1 code path used by the sequential cache
    studies (Figs 8a, 9: "MC" vs KS vs SW): the same :func:`_iter_trials`
    loop the two SPMD programs run, over all trial ids.
    """
    if g.n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if trials is not None and trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if g.m == 0:
        return 0.0, _zero_cut(g.n)
    if trials is None:
        trials = num_trials(g.n, g.m, success_prob=success_prob, scale=trial_scale)
    best = (math.inf, None)
    for _ti, val, side in _iter_trials(g.u, g.v, g.w, g.n, range(trials),
                                       seed, mem or NullTracker()):
        best = _pick_min(best, (val, side))
    return best
