"""Connected components via Iterated Sampling (§3.2).

The algorithm is Iterated Sampling *without* Bulk Edge Contraction: the root
maintains a vertex-indexed component array ``C``; each round a sparse edge
sample is gathered at the root (unweighted local-oversampling variant), the
root computes the components ``g`` of the sampled subgraph in the current
label space, broadcasts ``g``, and every processor relabels its edge slice
and drops the loops (a slice that was all sample is all loops: emptied
unread, still charged).  The loop ends when no edge is left; w.h.p. O(1)
rounds suffice, hence O(1) supersteps, O(n^(1+eps)) communication volume
and O(m/p + n^(1+eps)) computation (Theorem 3.3).

Public entry points:

* :func:`connected_components` — the BSP driver,
* :func:`cc_sequential` — the p = 1 execution path, instrumented for the
  cache-miss studies of Figures 4, 8b and the sequential comparison of §5.1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.bsp.counters import CountersReport
from repro.bsp.machine import TimeEstimate
from repro.cache.traced import MemoryTracker, NullTracker
from repro.core.sparsify import draw_count, sparsify_unweighted
from repro.graph.contract import components_from_edges
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.kernels import flatten_parents
from repro.runtime.base import Backend, owns_backend

__all__ = [
    "connected_components",
    "cc_program",
    "cc_kernel",
    "cc_sequential",
    "CCResult",
]

#: Hard cap on sampling rounds; the algorithm needs O(1) w.h.p., so hitting
#: this indicates a bug rather than bad luck.
_MAX_ROUNDS = 60


def _sample_size(k: int, eps: float) -> int:
    """Per-round sample size: ceil(k^(1+eps)), at least a small constant."""
    return max(16, math.ceil(k ** (1.0 + eps)))


def _relabel(g_map, u, v, whole):
    """The slice in the new label space, loops dropped; one that shipped
    whole is all loops (the root contracted it), so it is not read."""
    if whole:
        return g_map[u[:0]], g_map[v[:0]]
    u, v = g_map[u], g_map[v]
    keep = u != v
    return u[keep], v[keep]


def cc_kernel(ctx, comm, u, v, n, *, eps=0.25, delta=0.5, root=0,
              shrink=False):
    """Generator: components of the distributed edge arrays ``(u, v)``.

    The reusable core of §3.2, also invoked by the approximate minimum cut
    (§3.3) on its union-of-subgraphs instance.  Returns ``(labels, count)``
    at ``root`` and ``(None, count)`` elsewhere, where ``labels[x]`` is the
    dense component id of vertex ``x``.

    ``shrink=True`` enables group-shrink: once any processor's slice
    contracts to nothing, the group splits to the still-active ranks
    (``comm.split``, its superstep charged honestly) and the idle ranks
    wait at a single closing broadcast instead of paying a barrier wait
    per remaining round.  Results are bit-identical with shrink on or
    off: an empty slice contributes nothing to the unweighted sampler
    and consumes no randomness (the Chernoff floor skips its draw), so
    dropping it from the group changes no rank's Philox stream and no
    sampled edge — this kernel is the honest boundary of bit-parity
    shrink (contrast the exact min-cut recursion, whose group membership
    *feeds* stream assignment; see ``docs/fusion.md``).
    """
    m_input = int(u.size)
    labels_orig = np.arange(n, dtype=np.int64) if comm.rank == root else None
    k = n  # size of the current (contracted) label space
    orig_comm, orig_root = comm, root
    did_split = False  # group-shrink fires at most once per kernel call

    for _round in range(_MAX_ROUNDS):
        m_total = yield from comm.allreduce(int(u.size), op=operator.add)
        if m_total == 0:
            break
        if shrink and not did_split:
            active = 1 if (u.size > 0 or comm.rank == root) else 0
            flags = yield from comm.allgather(active)
            if 0 in flags:
                sub = yield from comm.split(active, key=comm.rank)
                did_split = True
                if not active:
                    break
                # The root stays active by construction; its local rank in
                # the shrunk group is the number of active ranks before it.
                root = sum(flags[:root])
                comm = sub
        s = min(m_total, _sample_size(k, eps))
        whole = draw_count(u.size, m_total, s, n=k, delta=delta) is None
        sample = yield from sparsify_unweighted(
            ctx, comm, u, v, s, n=k, delta=delta, root=root
        )
        if comm.rank == root:
            su, sv = sample
            g_map, k_new = components_from_edges(k, su, sv)
            labels_orig = g_map[labels_orig]
            # Root work: union-find style component pass over the sample
            # plus the relabeling of C (n words, streaming if g fits cache).
            ctx.charge_scan(su.size, words_per_elem=2)
            ctx.charge_random(su.size, working_set=k)
            ctx.charge_scan(n)
            payload = (g_map, k_new)
        else:
            payload = None
        g_map, k_new = yield from comm.bcast(payload, root=root)
        # Local relabeling: one streaming pass over the slice with random
        # lookups into g (O(m/(pB)) misses when g fits in cache, §3.2),
        # charged even when the slice shipped whole and is skipped.
        u, v = _relabel(g_map, u, v, whole)
        ctx.charge_scan(m_input, words_per_elem=2)
        ctx.charge_random(m_input, working_set=k)
        k = k_new
    else:
        raise RuntimeError(
            f"connected components did not converge in {_MAX_ROUNDS} rounds; "
            "this indicates a sampling bug, not bad luck"
        )

    if did_split:
        # Re-join once on the original communicator: released ranks have
        # been waiting here since the split, and receive the final count.
        payload = k if orig_comm.rank == orig_root else None
        k = yield from orig_comm.bcast(payload, root=orig_root)

    if comm.rank == root:
        return labels_orig, k
    return None, k


def cc_program(ctx, slices, n, *, eps=0.25, delta=0.5, shrink=False):
    """SPMD program: each processor contributes ``slices[ctx.rank]``."""
    g = slices[ctx.rank]
    result = yield from cc_kernel(
        ctx, ctx.comm, g.u, g.v, n, eps=eps, delta=delta, shrink=shrink
    )
    return result


def cc_hybrid_program(ctx, slices, n, *, eps=0.25, delta=0.5, rounds=2):
    """Hybrid CC (§3.2 remark): sparsification as a *preconditioner*.

    The paper notes that "by replacing the sequential connected components
    computation at the root with a parallel algorithm, Sparsification could
    be used to speed up other connected components algorithms".  This
    variant demonstrates it: a few sparsified rounds collapse the label
    space in O(1) supersteps, then the remaining (much smaller) instance is
    finished by the PBGL-style hooking + pointer-jumping algorithm running
    on all processors — whose O(log n') rounds now operate on n' << n
    labels.

    Returns ``(labels, count)`` at rank 0.
    """
    from repro.baselines.cc_bsp import pbgl_cc_program

    comm = ctx.comm
    g = slices[ctx.rank]
    u, v = g.u, g.v
    root = 0
    labels_orig = np.arange(n, dtype=np.int64) if ctx.rank == root else None
    k = n

    for _round in range(rounds):
        m_total = yield from comm.allreduce(int(u.size), op=operator.add)
        if m_total == 0:
            break
        s = min(m_total, _sample_size(k, eps))
        whole = draw_count(u.size, m_total, s, n=k, delta=delta) is None
        sample = yield from sparsify_unweighted(
            ctx, comm, u, v, s, n=k, delta=delta, root=root
        )
        if ctx.rank == root:
            su, sv = sample
            g_map, k_new = components_from_edges(k, su, sv)
            labels_orig = g_map[labels_orig]
            ctx.charge_scan(su.size, words_per_elem=2)
            ctx.charge_random(su.size, working_set=k)
            payload = (g_map, k_new)
        else:
            payload = None
        g_map, k_new = yield from comm.bcast(payload, root=root)
        u, v = _relabel(g_map, u, v, whole)
        ctx.charge_scan(g.m, words_per_elem=2)
        k = k_new

    # Finish the contracted instance with the parallel hooking algorithm.
    rest = EdgeList(k, u, v, canonical=False, validate=False) if u.size else \
        EdgeList.empty(k)
    rest_slices = yield from _redistribute_slices(ctx, comm, rest)
    sub_labels, count = yield from pbgl_cc_program(ctx, rest_slices, k)
    if ctx.rank == root:
        return sub_labels[labels_orig], count
    return None, count


def _redistribute_slices(ctx, comm, local):
    """Generator: rebalance per-processor edge lists into even slices.

    The hooking algorithm wants each processor to hold ~m/p edges; after
    sparsified rounds the leftovers can be skewed, so exchange them once.
    Returns a list indexable by rank (each processor's own slice filled in).
    """
    p = comm.size
    parts = local.slices(p)
    parcels = [(s.u, s.v) for s in parts]
    received = yield from comm.alltoallv(parcels)
    u, v = received
    mine = EdgeList(local.n, u, v, canonical=False, validate=False)
    ctx.charge_scan(u.size, words_per_elem=2)
    # pbgl_cc_program indexes slices[ctx.rank]; a lazy view suffices.
    return _SliceView(mine, ctx.rank)


class _SliceView:
    """List-like view exposing only this processor's slice."""

    def __init__(self, mine, rank):
        self._mine = mine
        self._rank = rank

    def __getitem__(self, idx):
        if idx != self._rank:
            raise IndexError("only the local slice is materialized")
        return self._mine


@dataclass(frozen=True)
class CCResult:
    """Result of a connected-components run."""

    labels: np.ndarray       # dense component id per vertex
    n_components: int
    report: CountersReport   # BSP cost counters (max over processors)
    time: TimeEstimate       # machine-model predicted times
    #: Per-superstep TraceEvents when the backend traced, else None.
    trace: list | None = None

    def __post_init__(self):
        assert self.labels.max(initial=-1) < self.n_components


@owns_backend
def connected_components(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    eps: float = 0.25,
    delta: float = 0.5,
    hybrid: bool = False,
    shrink: bool = False,
    backend: str | Backend | None = None,
) -> CCResult:
    """Find the connected components of ``g`` on ``p`` virtual processors.

    Parameters mirror §3.2: ``eps`` controls the per-round sample size
    ``n^(1+eps)``; ``delta`` the oversampling slack of the unweighted
    sampler.  ``hybrid=True`` uses sparsification as a preconditioner for
    the parallel hooking algorithm instead of iterating to convergence
    (the §3.2 remark).  Deterministic given ``seed``.

    ``shrink=True`` lets the sampling loop release processors whose edge
    slice has contracted away (see :func:`cc_kernel`); results are
    bit-identical either way.  Automatic superstep fusion is configured
    on the backend (``backend=SimBackend(fuse=True)``).

    ``backend`` selects the runtime: ``"sim"`` (default, the BSP
    simulator on ``p`` virtual processors), ``"mp"`` (``p`` real OS
    processes), or a ready :class:`~repro.runtime.base.Backend`.
    Algorithmic results are backend-independent; only ``time`` differs
    (analytic vs measured).
    """
    if hybrid and shrink:
        raise ValueError(
            "shrink= applies to the iterated-sampling kernel only; the "
            "hybrid finish redistributes edges across the full group"
        )
    # Lazy marker: the simulator resolves it to g.slices(p) locally; a
    # plane-enabled mp backend ships an O(1) handle instead of p copies.
    slices = plane_slices(g, p)
    program = cc_hybrid_program if hybrid else cc_program
    kwargs = {"eps": eps, "delta": delta}
    if not hybrid:
        kwargs["shrink"] = shrink
    result = backend.run(
        program, p, seed=seed, args=(slices, g.n), kwargs=kwargs,
    )
    labels, count = result.root_value
    return CCResult(
        labels=labels, n_components=count,
        report=result.report, time=result.time, trace=result.trace,
    )


def _traced_union_find(n, u, v, mem):
    """Union-find whose exact parent-array access pattern is replayed into
    the tracker (the root concentration that makes repeated finds cache-hit
    is precisely what the LRU study must see)."""
    parent = np.arange(n, dtype=np.int64)

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        mem.touch("parent", np.array(path + [x], dtype=np.int64))
        mem.ops(2 * len(path) + 1)
        for y in path:  # full compression, as scipy's traversal achieves
            parent[y] = x
        return x

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            mem.touch("parent", max(ra, rb))
            mem.ops(1)
    parent = flatten_parents(parent)
    mem.scan("parent")
    mem.ops(2 * n)
    uniq, labels = np.unique(parent, return_inverse=True)
    return labels.astype(np.int64), int(uniq.size)


def cc_sequential(
    g: EdgeList,
    *,
    seed: int = 0,
    eps: float = 0.25,
    mem: MemoryTracker | None = None,
) -> tuple[np.ndarray, int]:
    """Sequential execution of the iterated-sampling CC algorithm.

    This is the p = 1 code path with explicit memory instrumentation, used
    by the sequential cache studies (the paper's Figure 4: CC vs a BFS
    traversal).  With a tracing tracker (``mem.is_tracing``) the exact
    access sequence is replayed: union-find over the *sampled* edges (only
    n^(1+eps) of them — the random-access pass the sampling bounds), then
    one streaming relabel pass whose map lookups land in the collapsed,
    cache-resident label space.
    """
    mem = mem or NullTracker()
    rng = np.random.default_rng(seed)
    n = g.n
    mem.alloc("edges", g.m, words_per_elem=2)
    mem.alloc("labels", n)
    mem.alloc("parent", n)
    mem.alloc("gmap", n)
    tracing = mem.is_tracing

    u = g.u.copy()
    v = g.v.copy()
    labels = np.arange(n, dtype=np.int64)
    k = n
    for _round in range(_MAX_ROUNDS):
        m = u.size
        if m == 0:
            break
        s = _sample_size(k, eps)
        if m > s:
            idx = np.sort(rng.integers(0, m, size=s))
            su, sv = u[idx], v[idx]
            mem.touch("edges", idx)
            mem.ops(s)
        else:
            su, sv = u, v
            mem.scan("edges", 0, m)
            mem.ops(m)
        if tracing:
            g_map, k_new = _traced_union_find(k, su, sv, mem)
        else:
            g_map, k_new = components_from_edges(k, su, sv)
            mem.touch("parent", su % max(k, 1))
            mem.touch("parent", sv % max(k, 1))
            mem.ops(3 * su.size)
        labels = g_map[labels]
        mem.scan("labels")
        mem.ops(n)
        # Relabel + loop removal: one streaming pass over the edge array
        # with per-edge lookups into g_map (size k — after the first round
        # the label space has collapsed and the map stays cache-resident).
        if tracing and m:
            seq = np.empty(3 * m, dtype=np.int64)
            seq[0::3] = mem.address("edges", np.arange(m))
            seq[1::3] = mem.address("gmap", u)
            seq[2::3] = mem.address("gmap", v)
            mem.access_sequence(seq)
        else:
            mem.scan("edges", 0, m)
            mem.touch("gmap", u % max(k, 1))
            mem.touch("gmap", v % max(k, 1))
        mem.ops(4 * m)
        u = g_map[u]
        v = g_map[v]
        keep = u != v
        u, v = u[keep], v[keep]
        k = k_new
    else:
        raise RuntimeError("sequential CC did not converge; sampling bug")
    return labels, k
