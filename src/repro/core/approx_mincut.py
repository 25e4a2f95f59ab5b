"""Approximate minimum cut via connectivity of random subgraphs (§3.3).

The connectivity of a random subgraph tracks the minimum cut value: keeping
each edge ``e`` with probability ``1 - (1 - 2^-i)^w(e)`` (i.e. keeping the
edge iff at least one of its ``w(e)`` unit copies survives a coin with
success 2^-i), the sampled subgraph first becomes disconnected around
``2^i ~ mincut``.  The algorithm runs ``ceil(ln W)`` sparsity levels with
``Theta(log n)`` independent trials each and outputs ``2^j`` for the
smallest level ``j`` with a disconnected trial — an O(log n)-approximation
w.h.p. (Theorem 3.4).

Two execution schedules, as in the paper:

* ``pipelined=True``: all levels and trials are merged into one big labeled
  union graph and answered by a *single* connected-components computation —
  O(1) supersteps.
* ``pipelined=False`` (default, the variant the authors found faster in
  practice): levels run one after the other, stopping at the first
  disconnected one — O(log mu) supersteps and a log-factor less space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.bsp.counters import CountersReport
from repro.bsp.machine import TimeEstimate
from repro.core.components import cc_kernel
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.runtime.base import Backend, resolve_backend

__all__ = ["approx_minimum_cut", "appmc_program", "ApproxMinCutResult"]


def _keep_probability(w: np.ndarray, level: int) -> np.ndarray:
    """P[edge of weight w survives level i] = 1 - (1 - 2^-i)^w, stably."""
    # log1p(-2^-i) is exact for large i; exponentiate in log space.
    return -np.expm1(w * math.log1p(-(2.0 ** (-level))))


def _sample_level_union(ctx, u, v, w, n, levels_trials):
    """Sample one subgraph per (level, trial) pair, with offset vertex ids.

    Returns concatenated local edge arrays of the union graph whose vertex
    space is ``n * len(levels_trials)``; block ``b`` holds the subgraph of
    ``levels_trials[b]``.
    """
    us, vs = [], []
    prob_level = prob = None  # a level's trials are consecutive blocks
    for block, (level, _trial) in enumerate(levels_trials):
        if level != prob_level:
            prob_level, prob = level, _keep_probability(w, level)
        keep = ctx.rng.random(u.size) < prob
        off = np.int64(block) * n
        us.append(u[keep] + off)
        vs.append(v[keep] + off)
        ctx.charge_scan(u.size, words_per_elem=3)
    if not us:
        return u[:0], v[:0]
    return np.concatenate(us), np.concatenate(vs)


def _blocks_disconnected(labels, n, n_blocks):
    """Per-block connectivity of the union graph's component labels."""
    blocks = labels.reshape(n_blocks, n)
    return (blocks != blocks[:, :1]).any(axis=1)


def appmc_program(
    ctx, slices, n, *,
    trials_per_level: int | None = None,
    pipelined: bool = False,
    eps: float = 0.25,
    delta: float = 0.5,
    shrink: bool = False,
):
    """SPMD program for the approximate minimum cut.

    Returns ``(estimate, witness_value, witness_side)`` at rank 0 (witness
    entries are ``None`` when no disconnection was found within the level
    range); ``(estimate, None, None)`` elsewhere.  ``shrink=True`` is
    forwarded to every :func:`~repro.core.components.cc_kernel` call (each
    shrunk group rejoins the full communicator before the kernel returns,
    so the surrounding protocol is unchanged).
    """
    comm = ctx.comm
    root = 0
    g = slices[ctx.rank]
    u, v, w = g.u, g.v, g.w

    # (1) Total weight -> number of levels; trial count Theta(log n).
    total_w = yield from comm.allreduce(float(w.sum()), op=operator.add)
    if total_w <= 0:
        raise ValueError("approximate minimum cut needs positive edge weight")
    n_levels = max(1, math.ceil(math.log(total_w)))
    trials = trials_per_level or max(2, math.ceil(math.log2(max(n, 2))))

    # (2) Connectivity precheck: a disconnected input has cut value 0.
    labels, count = yield from cc_kernel(
        ctx, comm, u, v, n, eps=eps, delta=delta, root=root, shrink=shrink
    )
    count = yield from comm.bcast(count if ctx.rank == root else None, root=root)
    if count > 1:
        if ctx.rank == root:
            side = labels == labels[0]
            return 0.0, 0.0, side
        return 0.0, None, None

    def witness_from(labels_union, block):
        """Smallest component of a disconnected trial, as an original-vertex side."""
        block_labels = labels_union[block * n:(block + 1) * n]
        vals, counts = np.unique(block_labels, return_counts=True)
        smallest = vals[np.argmin(counts)]
        return block_labels == smallest

    def witnesses_from(labels_union, blocks):
        """Candidate sides from every disconnected trial (dedup by key)."""
        seen = {}
        for b in blocks:
            side = witness_from(labels_union, b)
            if 0 < side.sum() < n:
                seen[np.packbits(side).tobytes()] = side
        return list(seen.values())

    # One stage per level, stopping at the first disconnected one — or
    # (pipelined) every level in one stage: one union, a single CC call.
    levels = range(1, n_levels + 1)
    stages = [list(levels)] if pipelined else [[level] for level in levels]
    estimate = None
    candidates = []
    for stage in stages:
        pairs = [(level, t) for level in stage for t in range(trials)]
        uu, vv = _sample_level_union(ctx, u, v, w, n, pairs)
        labels_union, _ = yield from cc_kernel(
            ctx, comm, uu, vv, n * len(pairs), eps=eps, delta=delta,
            root=root, shrink=shrink,
        )
        payload = None
        if ctx.rank == root:
            hits = np.flatnonzero(
                _blocks_disconnected(labels_union, n, len(pairs))).tolist()
            if hits:
                # Blocks run in level order: the first hit names the level.
                first_level = pairs[hits[0]][0]
                candidates = witnesses_from(
                    labels_union,
                    [b for b in hits if pairs[b][0] == first_level])
                payload = float(2 ** first_level)
        estimate = yield from comm.bcast(payload, root=root)
        if estimate is not None:
            break
    if estimate is None:
        # Never disconnected: the cut is at least ~W; report the top level.
        estimate = float(2 ** n_levels)

    # (3) Evaluate every candidate witness's true value (one pass, one
    #     reduce) and keep the cheapest — every disconnected trial at the
    #     stopping level proposes a cut; the best is the useful upper bound.
    sides = yield from comm.bcast(candidates if ctx.rank == root else None,
                                  root=root)
    if sides:
        crossing = np.array(
            [float(w[s[u] != s[v]].sum()) for s in sides]
        )
        ctx.charge_scan(len(sides) * u.size, words_per_elem=3)
        totals = yield from comm.reduce(crossing, op=operator.add, root=root)
    else:
        totals = None

    if ctx.rank == root:
        if totals is not None and len(sides):
            best = int(np.argmin(totals))
            return estimate, float(totals[best]), sides[best]
        return estimate, None, None
    return estimate, None, None


@dataclass(frozen=True)
class ApproxMinCutResult:
    """Result of an approximate minimum-cut run."""

    estimate: float            # the 2^j connectivity estimate
    witness_value: float | None  # true cut value of the witness partition
    witness_side: np.ndarray | None
    report: CountersReport
    time: TimeEstimate
    #: Per-superstep TraceEvents when the backend traced, else None.
    trace: list | None = None


def approx_minimum_cut(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    trials_per_level: int | None = None,
    pipelined: bool = False,
    eps: float = 0.25,
    delta: float = 0.5,
    shrink: bool = False,
    backend: str | Backend | None = None,
) -> ApproxMinCutResult:
    """O(log n)-approximate global minimum cut on ``p`` virtual processors.

    Returns the ``2^j`` estimate plus a witness cut (the smallest component
    of the first disconnected trial) and its exact value on ``g``.
    ``backend`` selects the runtime (``"sim"``/``"mp"``/instance); results
    are backend-independent for a fixed ``seed``.  ``shrink=True`` enables
    group-shrink inside the CC subcalls; automatic superstep fusion is
    configured on the backend (``backend=SimBackend(fuse=True)``) — both
    leave results bit-identical.
    """
    if g.n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    runtime = resolve_backend(backend)
    slices = plane_slices(g, p)  # shared-graph-plane marker
    result = runtime.run(
        appmc_program, p, seed=seed,
        args=(slices, g.n),
        kwargs={
            "trials_per_level": trials_per_level,
            "pipelined": pipelined,
            "eps": eps,
            "delta": delta,
            "shrink": shrink,
        },
    )
    estimate, witness_value, side = result.root_value
    return ApproxMinCutResult(
        estimate=estimate, witness_value=witness_value, witness_side=side,
        report=result.report, time=result.time, trace=result.trace,
    )
