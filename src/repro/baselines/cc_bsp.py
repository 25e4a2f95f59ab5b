"""BSP hooking + pointer-jumping connected components ("PBGL" baseline).

The Parallel Boost Graph Library's components algorithm is from the
Shiloach–Vishkin / Awerbuch–Shiloach family: a distributed parent array,
rounds of *conditional hooking* (roots hook onto smaller-labelled
neighbours' parents) and *pointer jumping*, until the forest stabilizes as
stars.  O(log n) supersteps and O((m + n) log n) work — the bounds §5.1
quotes for PBGL — with the characteristic per-round random remote lookups
that make it communication- and cache-hungry compared to the sampling CC.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.graph.contract import compress_labels
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.runtime.base import Backend, owns_backend

__all__ = ["pbgl_cc", "pbgl_cc_program"]

#: Safety bound; Awerbuch–Shiloach needs O(log n) rounds.
_MAX_ROUNDS = 200


def _vertex_bounds(p: int, n: int) -> np.ndarray:
    """Block boundaries of the distributed parent array."""
    return np.array([i * n // p for i in range(p)] + [n], dtype=np.int64)


def _lookup(ctx, comm, queries: np.ndarray, par_local: np.ndarray,
            bounds: np.ndarray):
    """Generator: fetch ``parent[q]`` for every q (remote block owners)."""
    p = comm.size
    owner = (np.searchsorted(bounds, queries, side="right") - 1).astype(np.int64)
    order = np.argsort(owner, kind="stable")
    sorted_q = queries[order]
    counts = np.bincount(owner, minlength=p)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    requests = [sorted_q[offsets[j]:offsets[j + 1]] for j in range(p)]
    ctx.charge_sort(queries.size)
    incoming = yield from comm.alltoall(requests)
    lo = bounds[comm.rank]
    answers = [par_local[q - lo] for q in incoming]
    for q in incoming:
        ctx.charge_random(q.size, working_set=par_local.size)
    replies = yield from comm.alltoall(answers)
    flat = np.concatenate(replies) if replies else np.zeros(0, dtype=np.int64)
    out = np.empty(queries.size, dtype=np.int64)
    out[order] = flat
    ctx.charge_scan(queries.size)
    return out


def pbgl_cc_program(ctx, slices, n):
    """SPMD program; returns ``(labels, count)`` at rank 0."""
    comm = ctx.comm
    p = comm.size
    g = slices[ctx.rank]
    bounds = _vertex_bounds(p, n)
    lo, hi = int(bounds[ctx.rank]), int(bounds[ctx.rank + 1])
    par_local = np.arange(lo, hi, dtype=np.int64)

    for _round in range(_MAX_ROUNDS):
        # (1) Fetch the current parents of every local edge's endpoints.
        pu = yield from _lookup(ctx, comm, g.u, par_local, bounds)
        pv = yield from _lookup(ctx, comm, g.v, par_local, bounds)
        ctx.charge_scan(g.m, words_per_elem=2)

        # (2) Conditional hooking: propose min(pu, pv) as the new parent of
        #     max(pu, pv); the owner applies proposals to roots only.
        sel = pu != pv
        hi_side = np.maximum(pu[sel], pv[sel])
        lo_side = np.minimum(pu[sel], pv[sel])
        owner = (np.searchsorted(bounds, hi_side, side="right") - 1).astype(np.int64)
        order = np.argsort(owner, kind="stable")
        hs, ls = hi_side[order], lo_side[order]
        counts = np.bincount(owner, minlength=p)
        offs = np.concatenate([[0], np.cumsum(counts)])
        proposals = [
            (hs[offs[j]:offs[j + 1]], ls[offs[j]:offs[j + 1]]) for j in range(p)
        ]
        ctx.charge_sort(hi_side.size, words_per_elem=2)
        incoming = yield from comm.alltoall(proposals)
        changed_local = False
        for targets, values in incoming:
            if targets.size == 0:
                continue
            t_idx = targets - lo
            is_root = par_local[t_idx] == targets
            t_idx, values = t_idx[is_root], values[is_root]
            before = par_local[t_idx].copy()
            np.minimum.at(par_local, t_idx, values)
            if (par_local[t_idx] != before).any():
                changed_local = True
            ctx.charge_random(targets.size, working_set=par_local.size)

        # (3) One pointer-jumping shortcut: parent[x] <- parent[parent[x]].
        grand = yield from _lookup(ctx, comm, par_local, par_local, bounds)
        if (grand != par_local).any():
            changed_local = True
        par_local = grand
        ctx.charge_scan(par_local.size)

        changed = yield from comm.allreduce(changed_local, op=operator.or_)
        if not changed:
            break
    else:
        raise RuntimeError("hooking/pointer-jumping did not converge")

    blocks = yield from comm.gather(par_local, root=0)
    if ctx.rank == 0:
        parent = np.concatenate(blocks)
        labels, count = compress_labels(parent)
        ctx.charge_sort(n)
        return labels, count
    return None, 0


@owns_backend
def pbgl_cc(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    backend: str | Backend | None = None,
):
    """PBGL-style BSP CC on ``backend`` (a name or an instance, default
    the simulator); returns ``(labels, count, report, time)``."""
    result = backend.run(
        pbgl_cc_program, p, seed=seed, args=(plane_slices(g, p), g.n))
    labels, count = result.root_value
    return labels, count, result.report, result.time
