"""Deterministic update streams for churn workloads.

Benchmarks, CI smokes and the differential fuzz tests all need the same
thing: a reproducible stream of valid ``insert``/``delete``/``reweight``
batches against an evolving edge set.  :func:`update_stream` provides it
with the trial-stream RNG discipline: batch ``b`` draws from
``RngStreams(seed).spawn(_UPDATE_SALT + b)`` — a salt-separated child
family exactly like the per-trial streams in the minimum-cut scheduler —
so the stream is a pure function of ``(initial graph, seed)``: identical
under sim and mp, across processes, and across a serve-daemon restart
replaying it.

The generator mirrors the edge set (keys in sorted order) so every
emitted op is valid by construction: deletes and reweights pick an
existing edge by index, inserts draw fresh endpoint pairs (falling back
to a reweight after bounded rejection when the graph is near-complete).
"""

from __future__ import annotations

import bisect

from repro.graph.edgelist import EdgeList
from repro.rng.streams import RngStreams

__all__ = ["update_stream"]

#: Salt separating update-stream children from trial/CC/sparsify streams.
_UPDATE_SALT = 6 << 16

#: Bounded rejection draws for a fresh endpoint pair before degrading
#: the op to a reweight (keeps generation deterministic and total).
_INSERT_TRIES = 32


def update_stream(g: EdgeList, *, seed: int, batches: int,
                  batch_size: int, insert_frac: float = 0.5,
                  delete_frac: float = 0.3, w_lo: float = 0.5,
                  w_hi: float = 2.0):
    """Yield ``batches`` lists of update ops against ``g``'s edge set.

    Op mix: ``insert_frac`` inserts, ``delete_frac`` deletes, the rest
    reweights (an empty mirror forces inserts).  Ops are emitted as
    JSON-safe lists ``["insert", u, v, w]`` / ``["delete", u, v]`` /
    ``["reweight", u, v, w]``, directly acceptable to
    :meth:`~repro.dynamic.graph.DynamicGraph.update_edges` and the serve
    ``dyn_update`` verb.
    """
    if not 0 <= insert_frac <= 1 or not 0 <= delete_frac <= 1 \
            or insert_frac + delete_frac > 1:
        raise ValueError("op fractions must be in [0, 1] and sum to <= 1")
    n = g.n
    streams = RngStreams(int(seed))
    present = sorted(
        {(a, b) if a < b else (b, a)
         for a, b in zip(g.u.tolist(), g.v.tolist())})
    for b in range(int(batches)):
        rng = streams.spawn(_UPDATE_SALT + b).aux(0)
        ops = []
        for _ in range(int(batch_size)):
            r = float(rng.uniform())
            if present and r >= insert_frac:
                idx = int(rng.integers(0, len(present)))
                key = present[idx]
                if r < insert_frac + delete_frac:
                    del present[idx]
                    ops.append(["delete", key[0], key[1]])
                else:
                    w = float(rng.uniform(w_lo, w_hi))
                    ops.append(["reweight", key[0], key[1], w])
                continue
            # insert: bounded rejection for a fresh pair
            placed = False
            for _try in range(_INSERT_TRIES):
                a = int(rng.integers(0, n))
                c = int(rng.integers(0, n))
                if a == c:
                    continue
                key = (a, c) if a < c else (c, a)
                pos = bisect.bisect_left(present, key)
                if pos < len(present) and present[pos] == key:
                    continue
                present.insert(pos, key)
                w = float(rng.uniform(w_lo, w_hi))
                ops.append(["insert", key[0], key[1], w])
                placed = True
                break
            if not placed and present:  # near-complete graph: degrade
                idx = int(rng.integers(0, len(present)))
                key = present[idx]
                w = float(rng.uniform(w_lo, w_hi))
                ops.append(["reweight", key[0], key[1], w])
        yield ops
