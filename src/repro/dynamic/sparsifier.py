"""Incrementally maintained weighted cut sparsifier.

Hariharan–Panigrahi-style maintenance on top of the repo's existing
weighted sampling primitive (:func:`~repro.core.sparsify.
sparsify_weighted`, §3.1 of the paper):

* A **rebuild** draws ``s`` i.i.d. weighted edge samples from the epoch
  snapshot as a BSP program through the configured backend; each slot
  carries the importance weight ``W/s`` (an unbiased estimator of every
  cut).  Slots that drew the same edge fold into one base edge with an
  integer multiplicity ``mult`` — a reweighted subgraph, one edge per
  sampled pair, whose every cut equals the per-slot sum.  A base edge
  materializes with weight ``mult * (W_rebuild / s)``, then times
  ``w_new / w_rebuild`` if it was reweighted since (in that order).
* Between rebuilds maintenance is **lazy**: inserted edges ride in an
  exact overlay (rate 1), deleted edges drop their base edge, reweighted
  ones rescale it as above (it keeps its inclusion probability, only
  its value moves).  Every change adds its
  absolute weight delta to a **drift** accumulator.
* Once drift crosses ``drift_threshold × W_rebuild`` the next
  materialization re-sparsifies — amortized, never per update or query.

Every materialization returns ``(EdgeList, certificate)``; the
certificate (sample size, total weight, rebuild provenance, drift, a
sha256 of the materialized arrays) lets a client audit what its
approximate answer was computed on.  Determinism: the rebuild seed is
keyed by ``(dynamic seed, rebuild index)`` through
:meth:`~repro.rng.streams.RngStreams.spawn`, so a replayed update
stream re-sparsifies identically on either backend.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.sparsify import sparsify_weighted
from repro.graph.edgelist import EdgeList
from repro.graph.shm import plane_slices
from repro.runtime.base import resolve_backend

__all__ = ["CutSparsifier", "sparsify_program"]

#: Salt separating re-sparsification seeds from trial/update/CC streams.
_SPARSIFY_SALT = 5 << 16


def sparsify_program(ctx, slices, s):
    """SPMD program: one weighted sample of size ``s`` gathered at root."""
    g = slices[ctx.rank]
    sample = yield from sparsify_weighted(ctx, ctx.comm, g.u, g.v, g.w, s)
    return sample


class CutSparsifier:
    """Lazy-rate cut sparsifier state (module docstring).

    Owned by a :class:`~repro.dynamic.graph.DynamicGraph`, which names
    edges by its int key ``u * n + v`` (u < v).  Bookkeeping is O(1) per
    update; the BSP sampling dispatch happens inside :meth:`materialize`
    when there is no base yet or drift crossed the threshold.
    """

    def __init__(self, *, eps: float = 0.2, drift_threshold: float = 0.25,
                 sample_scale: float = 1.0):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        self.eps = float(eps)
        self.drift_threshold = float(drift_threshold)
        self.sample_scale = float(sample_scale)

        self.rebuilds = 0
        self.rebuild_epoch: int | None = None
        self.rebuild_fingerprint: str | None = None
        self._base_key = np.zeros(0, dtype=np.int64)  # sampled keys, sorted
        self._base_u = self._base_v = self._base_key  # ... their endpoints
        self._base_w = None                     # each edge's w_e at rebuild
        self._mult = self._base_key             # slots each key drew
        self._base_key_set: set[int] = set()    # O(1) membership for note_*
        self.W_rebuild = 0.0
        self.s = 0
        self.drift = 0.0
        self._inserted: dict[int, float] = {}   # exact overlay: key -> w
        self._removed: set[int] = set()
        self._rescaled: dict[int, float] = {}   # key -> w_new

    # -- lazy per-update bookkeeping (called by DynamicGraph) ----------------

    def note_insert(self, key, w: float) -> None:
        self._inserted[key] = self._inserted.get(key, 0.0) + float(w)
        self.drift += float(w)

    def note_delete(self, key, w_old: float) -> None:
        if key in self._inserted:
            del self._inserted[key]
        elif key in self._base_key_set:
            self._removed.add(key)
            self._rescaled.pop(key, None)
        self.drift += float(w_old)

    def note_reweight(self, key, w_new: float, delta: float) -> None:
        if key in self._inserted:
            self._inserted[key] = float(w_new)
        elif key in self._base_key_set and key not in self._removed:
            self._rescaled[key] = float(w_new)
        # edges that existed at rebuild but drew no slot have rate ~0;
        # their weight motion is pure drift.
        self.drift += abs(float(delta))

    # -- rebuild policy ------------------------------------------------------

    def sample_size(self, n: int, m: int) -> int:
        """Target sample size ``~ 2 n ln n / eps^2``, clamped to [1, 3m].

        The upper clamp is 3m rather than m: the sample is i.i.d. *with
        replacement*, so allowing a few slots per edge on small graphs
        keeps the sparsifier connected w.h.p. (at ``s = m`` roughly a
        1/e fraction of edges would draw no slot at all); the estimator
        stays unbiased because every slot carries ``W/s``.  On large
        graphs the ``n log n`` target is the binding bound and the
        sample is genuinely sparse.
        """
        if m == 0:
            return 0
        s = math.ceil(self.sample_scale * 2.0 * n
                      * math.log(max(n, 2)) / (self.eps * self.eps))
        return max(1, min(3 * m, s))

    @property
    def needs_rebuild(self) -> bool:
        if self.rebuild_epoch is None:
            return True
        if self.W_rebuild <= 0:
            return self.drift > 0
        return self.drift > self.drift_threshold * self.W_rebuild

    # -- rebuild + materialization -------------------------------------------

    def rebuild(self, dyn, snap: EdgeList, fp: str) -> None:
        """Re-sparsify from scratch through the BSP sampling pipeline."""
        seed = dyn._streams.spawn(_SPARSIFY_SALT + self.rebuilds).seed
        s = self.sample_size(snap.n, snap.m)
        if s == 0:
            su = sv = sw = ()
        else:
            runtime = resolve_backend(dyn.backend)
            result = runtime.run(
                sparsify_program, dyn.p, seed=seed,
                args=(plane_slices(snap, dyn.p), int(s)))
            su, sv, sw = result.root_value
        key = (np.asarray(su, dtype=np.int64) * snap.n
               + np.asarray(sv, dtype=np.int64))
        self._base_key, first, self._mult = np.unique(
            key, return_index=True, return_counts=True)
        self._base_u, self._base_v = np.divmod(self._base_key, snap.n)
        self._base_w = np.asarray(sw, dtype=np.float64)[first]
        self._base_key_set = set(self._base_key.tolist())
        self.W_rebuild = snap.total_weight()
        self.s = int(s)
        self.drift = 0.0
        self._inserted.clear()
        self._removed.clear()
        self._rescaled.clear()
        self.rebuilds += 1
        self.rebuild_epoch = dyn.epoch
        self.rebuild_fingerprint = fp
        dyn.counters["resparsifications"] += 1
        # Rebuilds are query-triggered, so the base depends on *when*
        # approx queries happened: an owner that replays state records
        # the event here and re-triggers it on resume.
        if dyn.on_resparsify is not None:
            dyn.on_resparsify(dyn.epoch)

    def _rows_of(self, keys):
        """Base rows of ``keys``: one ``searchsorted``, O(k log s).

        ``_removed`` and ``_rescaled`` only ever hold base keys (the
        ``note_*`` membership tests), so every key hits its row.
        """
        return np.searchsorted(
            self._base_key, np.fromiter(keys, np.int64, len(keys)))

    def materialize(self, dyn, snap: EdgeList, fp: str):
        """``(sparsifier graph, certificate)`` for the current epoch.

        Rebuilds first when there is no base yet or drift crossed the
        amortization threshold; otherwise assembles the base edges (minus
        removed, weights as in the module docstring) then the exact
        overlay, each in key order — O(s) array copies, no dispatch.
        """
        if self.needs_rebuild:
            self.rebuild(dyn, snap, fp)
        bw = self._mult * (self.W_rebuild / max(self.s, 1))
        at = self._rows_of(self._rescaled)
        w_new = np.fromiter(self._rescaled.values(), np.float64, at.size)
        bw[at] *= w_new / self._base_w[at]                  # lazy rates
        keep = np.ones(bw.size, dtype=bool)
        keep[self._rows_of(self._removed)] = False
        ok = np.fromiter(self._inserted, np.int64, len(self._inserted))
        ow = np.fromiter(self._inserted.values(), np.float64, ok.size)
        order = np.argsort(ok)
        ou, ov = np.divmod(ok[order], snap.n)
        u = np.concatenate([self._base_u[keep], ou])
        v = np.concatenate([self._base_v[keep], ov])
        w = np.concatenate([bw[keep], ow[order]])
        sg = EdgeList(snap.n, u, v, w, canonical=False, validate=False)
        sha = hashlib.sha256()
        for arr in (u, v, w):
            sha.update(np.ascontiguousarray(arr).tobytes())
        certificate = {
            "s": int(self.s),
            "W_rebuild": float(self.W_rebuild),
            "eps": self.eps,
            "rebuild_epoch": self.rebuild_epoch,
            "rebuild_fingerprint": self.rebuild_fingerprint,
            "rebuilds": self.rebuilds,
            "epoch": dyn.epoch,
            "drift": float(self.drift),
            "drift_threshold": self.drift_threshold,
            "base_slots_live": int(self._mult[keep].sum()),
            "overlay_edges": int(ou.size),
            "sparsifier_sha256": sha.hexdigest(),
        }
        return sg, certificate

    # -- staleness -----------------------------------------------------------

    def staleness(self) -> dict:
        return {
            "rebuilds": self.rebuilds,
            "rebuild_epoch": self.rebuild_epoch,
            "rebuild_fingerprint": self.rebuild_fingerprint,
            "s": int(self.s),
            "W_rebuild": float(self.W_rebuild),
            "drift": float(self.drift),
            "drift_threshold": self.drift_threshold,
            "drift_ratio": (float(self.drift / self.W_rebuild)
                            if self.W_rebuild > 0 else None),
            "resparsify_pending": bool(self.needs_rebuild),
            "overlay_edges": len(self._inserted),
            "removed_base_edges": len(self._removed),
            "rescaled_base_edges": len(self._rescaled),
        }
