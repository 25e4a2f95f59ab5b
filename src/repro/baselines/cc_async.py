"""Asynchronous shared-memory connected components ("Galois" baseline).

Galois computes components with an asynchronous union-find over the edge
list (fine-grained atomic hooks, no barriers).  Sequentially that is a
single streaming pass over the edges with path-compressed finds into the
parent array — exactly the access pattern we reproduce and instrument.

The parallel variant models the shared-memory execution on our BSP
machine: every core runs union-find over its slice of the edge array (the
asynchronous phase: conflicts are rare and retried cheaply, so a slice-local
pass captures the work), then the per-core spanning forests — at most
``n - 1`` edges each — are merged at one core.  The merge is the serial
fraction that limits speedup on sparse graphs, which is the behaviour
Figure 3 shows for every framework.
"""

from __future__ import annotations

import numpy as np

from repro.cache.traced import MemoryTracker, NullTracker
from repro.graph.contract import compress_labels
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.kernels import cc_labels, cc_roots, earliest_forest, flatten_parents
from repro.runtime.base import Backend, owns_backend

__all__ = ["galois_cc", "galois_cc_parallel"]

def _union_find_pass(n, u, v, mem: MemoryTracker, parent=None):
    """Union-find over the edge stream; returns (parent, forest_edges)."""
    if parent is None:
        parent = np.arange(n, dtype=np.int64)
    forest_u = []
    forest_v = []

    def find(x: int) -> int:
        hops = 0
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
            hops += 1
        mem.touch("parent", x)
        mem.ops(2 * hops + 1)
        return x

    mem.scan("edges", 0, u.size)
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        mem.touch("parent", rb)
        mem.ops(1)
        forest_u.append(a)
        forest_v.append(b)
    return parent, (np.array(forest_u, dtype=np.int64),
                    np.array(forest_v, dtype=np.int64))

def galois_cc(
    g: EdgeList,
    mem: MemoryTracker | None = None,
) -> tuple[np.ndarray, int]:
    """Sequential asynchronous-style union-find CC; ``(labels, count)``."""
    mem = mem or NullTracker()
    if isinstance(mem, NullTracker):
        # Nothing to instrument: the whole pass is the vectorized kernel
        # (min-wins roots, so the labels match the traced path exactly).
        return cc_labels(g.n, g.u, g.v)
    mem.alloc("edges", g.m, words_per_elem=2)
    mem.alloc("parent", g.n)
    parent, _ = _union_find_pass(g.n, g.u, g.v, mem)
    # Final flatten so every vertex points at its root.
    parent = flatten_parents(parent)
    mem.scan("parent")
    mem.ops(2 * g.n)
    return compress_labels(parent)

#: Modeled cost (in unit operations) of one atomic hook on the shared
#: parent array: a CAS plus fence is ~25-60 ns on a Broadwell socket even
#: uncontended, i.e. tens of cycles — the synchronization cost the paper's
#: introduction cites [7] as a motivation for avoiding fine-grained
#: shared-memory updates.  Charged once per processed edge.
_ATOMIC_COST_OPS = 25


def _galois_program(ctx, slices, n):
    """BSP model of the shared-memory execution: local UF + forest merge."""
    g = slices[ctx.rank]
    # Asynchronous phase: every core hooks its slice (charged analytically —
    # a streaming edge pass with random parent-array touches plus the
    # atomic-update cost of the lock-free hooks).  The forest a min-wins
    # union-find merges on is the arrival-order spanning forest, which the
    # vectorized kernel computes without the per-edge loop.
    fu, fv = earliest_forest(n, g.u, g.v)
    ctx.charge_scan(g.m, words_per_elem=2)
    ctx.charge_random(3 * g.m, working_set=n)
    ctx.charge(ops=_ATOMIC_COST_OPS * g.m)
    forests = yield from ctx.comm.gather((fu, fv), root=0)
    if ctx.rank == 0:
        mu = np.concatenate([f[0] for f in forests])
        mv = np.concatenate([f[1] for f in forests])
        parent = cc_roots(n, mu, mv)
        ctx.charge_scan(mu.size, words_per_elem=2)
        ctx.charge_random(3 * mu.size + 2 * n, working_set=n)
        labels, count = compress_labels(parent)
        return labels, count
    return None, 0

@owns_backend
def galois_cc_parallel(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    backend: str | Backend | None = None,
):
    """Parallel Galois-style CC on ``backend`` (a name or an instance,
    default the simulator); returns ``(labels, count, report, time)``."""
    result = backend.run(
        _galois_program, p, seed=seed, args=(plane_slices(g, p), g.n))
    labels, count = result.root_value
    return labels, count, result.report, result.time
