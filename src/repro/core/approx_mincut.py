"""Approximate minimum cut via connectivity of random subgraphs (§3.3).

The connectivity of a random subgraph tracks the minimum cut value: keeping
each edge ``e`` with probability ``1 - (1 - 2^-i)^w(e)`` (i.e. keeping the
edge iff at least one of its ``w(e)`` unit copies survives a coin with
success 2^-i), the sampled subgraph first becomes disconnected around
``2^i ~ mincut``.  The algorithm has ``ceil(ln W)`` sparsity levels with
``Theta(log n)`` independent trials each and outputs ``2^j`` for the
smallest level ``j`` with a disconnected trial — an O(log n)-approximation
w.h.p. (Theorem 3.4).

**One draw couples the levels.**  The keep probability falls with ``i``, so
each rank draws one uniform ``U[t, e]`` per (trial, local edge) and trial
``t``'s level-``i`` subgraph is ``U[t] < keep_probability(w, i)``.  Per
level the marginal is exactly §3.3's and edges and trials stay independent
— all Theorem 3.4 uses besides a union bound over levels, which needs no
independence *between* them — while a trial's subgraphs become nested, so
"some trial is disconnected at level ``i``" is monotone in ``i``.  ``U`` is
one word per (edge, trial), read one trial row at a time: a probe's union
is int32 ids (two half-words per kept pair) while its vertex space fits.

Two execution schedules, as in the paper:

* ``pipelined=True``: every level of every trial in one labeled union
  graph, answered by a *single* connected-components computation — O(1)
  supersteps.  It is the exhaustive scan of the subgraphs the staged
  schedule probes: for a fixed seed both return the same estimate.
* ``pipelined=False`` (default, the variant the authors found faster in
  practice): one level per stage, *searched*.  A bracket ``lo`` (connected;
  level 0 is the input) / ``hi`` (disconnected; ``n_levels + 1`` is
  "never") is probed first where the average weighted degree ``2W/n``
  predicts an isolated vertex among the ``n * trials`` sampled ones, then
  by doubling steps away from that level, then by bisection: at most
  ``2 ceil(log2 n_levels) + 1`` stages whatever the answer, a log-factor
  less space than the pipeline.  Below a disconnected ``hi`` a probe
  *descends* (§3.2): ``hi``'s subgraphs sample each denser level's, so CC
  runs on ``hi``'s union components over only the edges ``hi`` lacks, in
  only the trials ``hi`` split (the others' are all loops).
  The trade (DESIGN.md §1, item 3): a scan from level 1 stops after
  *answer-level* stages, so a minimum cut far below the average degree —
  two cliques and a unit bridge, a skewed R-MAT — costs a few stages over
  sparse unions where the scan paid one or two.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.bsp.counters import CountersReport
from repro.bsp.machine import TimeEstimate
from repro.core.components import cc_kernel
from repro.core.trials import field_error
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.runtime.base import Backend, resolve_backend

__all__ = ["approx_minimum_cut", "appmc_program", "ApproxMinCutResult"]


def _keep_probability(w: np.ndarray, level: int) -> np.ndarray:
    """P[edge of weight w survives level i] = 1 - (1 - 2^-i)^w, stably."""
    # log1p(-2^-i) is exact for large i; exponentiate in log space.
    return -np.expm1(w * math.log1p(-(2.0 ** (-level))))


def _sample_union(ctx, u, v, w, n, draws, levels, above=None):
    """Local edges of the union graph of trial ``t``'s level-``levels[b]``
    subgraph ``draws[t] < keep probability``, in vertex block
    ``b * trials + t`` of ``n * trials * len(levels)``: int32 ids while
    that global size fits.  ``above=(hi, labels)`` (one level): edges
    absent at ``hi``, between its components (none if connected at hi)."""
    trials = draws.shape[0]
    ids = np.int32 if n * trials * len(levels) < 2 ** 31 else np.int64
    us, vs = [np.zeros(0, ids)], [np.zeros(0, ids)]
    u, v = u.astype(ids, copy=False), v.astype(ids, copy=False)
    if above is not None:
        split = _blocks_disconnected(above[1], n, trials)
        labels = above[1].astype(ids).reshape(trials, n)
        lacks = _keep_probability(w, above[0])
    for b, level in enumerate(levels):
        keep, kept = _keep_probability(w, level), 0
        for t, row in enumerate(draws):  # row by row: no (trials, m) mask
            mask = row < keep
            if above is not None:
                mask &= row >= lacks
                if not split[t]:  # all loops: counted for the charge only
                    kept += int(np.count_nonzero(mask))
                    continue
            e = np.flatnonzero(mask)
            kept += e.size
            if above is None:
                off = ids((b * trials + t) * n)
                us.append(u[e] + off)
                vs.append(v[e] + off)
            else:
                su, sv = labels[t][u[e]], labels[t][v[e]]
                us.append(su[su != sv])
                vs.append(sv[su != sv])
        ctx.charge_scan(draws.size, words_per_elem=3)  # compare, compress
        if above is not None:
            ctx.charge_random(2 * kept, working_set=above[1].size)
    return np.concatenate(us), np.concatenate(vs)


def _blocks_disconnected(labels, n, n_blocks):
    """Per-block connectivity of the union graph's component labels."""
    blocks = labels.reshape(n_blocks, n)
    return (blocks != blocks[:, :1]).any(axis=1)


def _bracket(lo, hi, stage, first):
    """The bracket once ``stage[first]`` is the first disconnected level."""
    if first is None:
        return stage[-1], hi
    return (stage[first - 1] if first else lo), stage[first]


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
    forwarded to the precheck and every full-union probe (each shrunk
    group rejoins the full communicator before the kernel returns, so the
    surrounding protocol is unchanged).
    """
    comm = ctx.comm
    root = 0
    g = slices[ctx.rank]
    u, v, w = g.u, g.v, g.w

    # (1) Total weight -> number of levels; trial count Theta(log n).
    total_w = yield from comm.allreduce(float(w.sum()), op=operator.add)
    if not 0 < total_w < math.inf:
        raise ValueError("approximate minimum cut needs a positive, finite "
                         "total edge weight")
    n_levels = max(1, math.ceil(math.log(total_w)))
    trials = trials_per_level or max(2, math.ceil(math.log2(n)))

    # (2) Connectivity precheck: a disconnected input has cut value 0.
    labels, count = yield from cc_kernel(
        ctx, comm, u, v, n, eps=eps, delta=delta, root=root, shrink=shrink
    )
    count = yield from comm.bcast(count if ctx.rank == root else None, root=root)
    if count > 1:
        if ctx.rank == root:
            return 0.0, 0.0, labels == labels[0]
        return 0.0, None, None

    def witnesses_from(labels_union, blocks):
        """The smallest component of every disconnected trial in ``blocks``,
        as original-vertex sides (dedup by key)."""
        seen = {}
        for b in blocks:
            block_labels = labels_union[b * n:(b + 1) * n]
            vals, counts = np.unique(block_labels, return_counts=True)
            side = block_labels == vals[np.argmin(counts)]
            seen[np.packbits(side).tobytes()] = side
        return list(seen.values())

    # (3) One uniform per (trial, edge) defines every level's subgraph.
    draws = ctx.rng.random((trials, u.size))
    ctx.charge_scan(draws.size)

    # Bracket the first disconnected level: every trial is connected at lo,
    # some trial is not at hi.  A stage is every level (pipelined) or one
    # probe, the first where 2W/n predicts an isolated sampled vertex.
    lo, hi, step = 0, n_levels + 1, 1
    first_isolated = (2 * total_w / n) / math.log(n * trials)
    stage = (list(range(1, n_levels + 1)) if pipelined else
             [min(max(math.floor(math.log2(first_isolated)), 1), n_levels)])
    # Below a disconnected hi, CC runs on its k supervertices: no shrink.
    candidates, above, k = [], None, n * trials * len(stage)
    while hi - lo > 1:
        uu, vv = _sample_union(ctx, u, v, w, n, draws, stage, above)
        labels_union, count = yield from cc_kernel(
            ctx, comm, uu, vv, k, eps=eps, delta=delta, root=root,
            shrink=shrink and above is None)
        payload = None
        if ctx.rank == root:
            if above is not None:  # both maps ordered by minimum member
                labels_union = labels_union[above[1]]
            hits = np.flatnonzero(
                _blocks_disconnected(labels_union, n, trials * len(stage)))
            # Blocks run in level order: the first hit names the level, and
            # its disconnected trials replace the witness candidates.
            first = int(hits[0]) // trials if hits.size else None
            if first is not None:
                candidates = witnesses_from(
                    labels_union, hits[hits // trials == first].tolist())
            nlo, nhi = _bracket(lo, hi, stage, first)
            descend = first is not None and nhi - nlo > 1  # next probe below
            payload = first, labels_union if descend else None
        first, labels = yield from comm.bcast(payload, root=root)
        lo, hi = _bracket(lo, hi, stage, first)
        if labels is not None:
            above, k = (hi, labels), count
        # Next probe: gallop while only one outcome was seen and the step
        # fits the bracket, else bisect, rounding to the cheaper sparse side.
        level = hi - step if lo == 0 else lo + step
        if (lo > 0 and hi <= n_levels) or not lo < level < hi:
            level = (lo + hi + 1) // 2
        stage, step = [level], 2 * step
    # Never disconnected: the cut is at least ~W; report the top level.
    estimate = float(2 ** min(hi, n_levels))

    # (4) Evaluate every candidate witness's true value (one pass, one
    #     reduce) and keep the cheapest — every disconnected trial at the
    #     final hi proposes a cut; the best is the useful upper bound.
    sides = yield from comm.bcast(candidates if ctx.rank == root else None,
                                  root=root)
    totals = None
    if sides:
        crossing = np.array([float(w[s[u] != s[v]].sum()) for s in sides])
        ctx.charge_scan(len(sides) * u.size, words_per_elem=3)
        totals = yield from comm.reduce(crossing, op=operator.add, root=root)
    if totals is not None:
        best = int(np.argmin(totals))
        return estimate, float(totals[best]), sides[best]
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
    kwargs = {"trials_per_level": trials_per_level, "eps": eps, "delta": delta}
    for name, value in kwargs.items():
        bad = field_error(name, value)
        if bad and not (value is None and name == "trials_per_level"):
            raise ValueError(f"{name} {bad}")
    runtime = resolve_backend(backend)
    slices = plane_slices(g, p)  # shared-graph-plane marker
    result = runtime.run(
        appmc_program, p, seed=seed, args=(slices, g.n),
        kwargs=dict(kwargs, pipelined=pipelined, shrink=shrink),
    )
    estimate, witness_value, side = result.root_value
    return ApproxMinCutResult(
        estimate=estimate, witness_value=witness_value, witness_side=side,
        report=result.report, time=result.time, trace=result.trace,
    )
