"""Communication-avoiding minimum spanning forest (Borůvka over BSP).

The BSP comparator the paper cites for connected components (Adler et
al. [2]) is actually a minimum-spanning-tree algorithm — components are
its by-product.  This module closes the circle: a Borůvka-style MSF in the
same root-centric, communication-avoiding style as the §3.2 CC algorithm.

Each round: every processor selects, per current component, the lightest
incident edge of its slice (vectorized, with a deterministic edge-id tie
break so the chosen forest is unique and cycle-free); the at most ``k``
candidates per processor are gathered at the root, which merges them,
contracts the chosen pseudo-forest, and broadcasts the relabeling.
Components at least halve per round, so O(log n) rounds, each with O(1)
supersteps and O(kp) volume.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.bsp.counters import CountersReport
from repro.bsp.machine import TimeEstimate
from repro.graph.contract import components_from_edges
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.runtime.base import Backend, resolve_backend

__all__ = ["minimum_spanning_forest", "msf_program", "MSFResult"]

_MAX_ROUNDS = 80


def _local_candidates(comp_u, comp_v, w, edge_ids):
    """Lightest incident edge per component among this slice's edges.

    Returns ``(components, weights, ids)``; ties break toward the smallest
    edge id, making the global choice deterministic and cycle-safe.
    """
    live = comp_u != comp_v
    cu, cv, w, ids = comp_u[live], comp_v[live], w[live], edge_ids[live]
    comps = np.concatenate([cu, cv])
    ws = np.concatenate([w, w])
    eids = np.concatenate([ids, ids])
    if comps.size == 0:
        return comps, ws, eids
    order = np.lexsort((eids, ws, comps))
    comps, ws, eids = comps[order], ws[order], eids[order]
    first = np.flatnonzero(np.r_[True, comps[1:] != comps[:-1]])
    return comps[first], ws[first], eids[first]


def msf_program(ctx, slices, n):
    """SPMD program; returns ``(forest_edge_ids, labels, count)`` at rank 0.

    ``forest_edge_ids`` index the *global* edge array (concatenation of the
    slices in rank order).
    """
    comm = ctx.comm
    g = slices[ctx.rank]
    # Global ids of this slice's edges (offset by the sizes before it).
    sizes = [s.m for s in slices]
    offset = sum(sizes[:ctx.rank])
    edge_ids = np.arange(offset, offset + g.m, dtype=np.int64)

    u = g.u.copy()
    v = g.v.copy()
    k = n
    labels_total = np.arange(n, dtype=np.int64) if ctx.rank == 0 else None
    chosen: list[int] = []

    for _round in range(_MAX_ROUNDS):
        live_local = int((u != v).sum())
        live = yield from comm.allreduce(live_local, op=operator.add)
        if live == 0:
            break
        comps, ws, eids = _local_candidates(u, v, g.w, edge_ids)
        ctx.charge_scan(g.m, words_per_elem=3)
        ctx.charge_sort(comps.size)
        cands = yield from comm.gatherv(comps, ws, eids, root=0)
        if ctx.rank == 0:
            ac, aw, ae = cands
            order = np.lexsort((ae, aw, ac))
            ac, aw, ae = ac[order], aw[order], ae[order]
            first = np.flatnonzero(np.r_[True, ac[1:] != ac[:-1]])
            winners = np.unique(ae[first])
            chosen.extend(winners.tolist())
            ctx.charge_sort(ac.size, words_per_elem=3)
            payload = winners
        else:
            payload = None
        winners = yield from comm.bcast(payload, root=0)
        # Contract the chosen pseudo-forest: each winner edge merges its
        # endpoints' components.  Every processor owns some of the winner
        # edges; collect their endpoint pairs at the root.
        mine = np.isin(edge_ids, winners)
        pairs = (u[mine], v[mine])
        ctx.charge_scan(g.m)
        all_pairs = yield from comm.gatherv(*pairs, root=0)
        if ctx.rank == 0:
            pu, pv = all_pairs
            g_map, k_new = components_from_edges(k, pu, pv)
            labels_total = g_map[labels_total]
            ctx.charge_scan(pu.size, words_per_elem=2)
            payload = (g_map, k_new)
        else:
            payload = None
        g_map, k_new = yield from comm.bcast(payload, root=0)
        u = g_map[u]
        v = g_map[v]
        ctx.charge_scan(g.m, words_per_elem=2)
        ctx.charge_random(2 * g.m, working_set=k)
        k = k_new
    else:
        raise RuntimeError("Boruvka did not converge; candidate-selection bug")

    if ctx.rank == 0:
        return np.array(sorted(chosen), dtype=np.int64), labels_total, k
    return None, None, k


@dataclass(frozen=True)
class MSFResult:
    """Result of a minimum-spanning-forest run."""

    forest: EdgeList          # the chosen edges (one tree per component)
    labels: np.ndarray        # component id per vertex
    n_components: int
    total_weight: float
    report: CountersReport
    time: TimeEstimate


def minimum_spanning_forest(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    backend: str | Backend | None = None,
) -> MSFResult:
    """Minimum spanning forest of ``g`` on ``p`` processors of ``backend``
    (a name or an instance, default the simulator).

    Deterministic (Borůvka with an edge-id tie break): the forest is unique
    for a given edge order even with repeated weights.
    """
    result = resolve_backend(backend).run(
        msf_program, p, seed=seed, args=(plane_slices(g, p), g.n))
    ids, labels, count = result.root_value
    forest = g.select(ids)
    expected_edges = g.n - count
    if forest.m != expected_edges:
        raise AssertionError(
            f"forest has {forest.m} edges, expected n - components = "
            f"{expected_edges}; Boruvka invariant violated"
        )
    return MSFResult(
        forest=forest, labels=labels, n_components=count,
        total_weight=forest.total_weight(),
        report=result.report, time=result.time,
    )
