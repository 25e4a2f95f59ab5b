"""The daemon's graph and derivative caches.

Two levels, both bounded LRU (:class:`repro.cache.store.BoundedLRU`):

* **Graph cache** — content-fingerprint → loaded
  :class:`~repro.graph.edgelist.EdgeList`, weighted by edge count.  A
  fast *stat index* ``(abspath, mtime_ns, size) → fingerprint`` lets the
  warm path skip re-reading an unchanged file entirely; any stat change
  falls back to a full read + re-fingerprint, so a file edited in place
  can never serve stale bits.  Keeping the same ``EdgeList`` **object**
  hot has a second-order payoff: the samplers' identity-keyed caches
  (:func:`repro.core.sparsify.cached_sampler`, the 2-out incidence
  cache) stay warm automatically across queries on the same graph.
* **Derivative cache** — the store of 2-out plans the daemon hands to
  ``two_out_minimum_cut(plans=...)``, which keys it by the inputs the
  preprocessing dispatch is deterministic in, so a replayed plan is
  bit-identical to a recomputed one.

Clients may pin a graph identity by sending the fingerprint they expect
(``fingerprint`` field on submit); a mismatch against the loaded file is
rejected before any work is queued — the serving-side analogue of the
ledger's resume identity validation.
"""

from __future__ import annotations

import os
import threading

from repro.cache.store import BoundedLRU
from repro.graph import content_fingerprint, read_edgelist
from repro.graph.shm import eligible, pin, publish, release_pins

__all__ = ["FingerprintMismatch", "GraphCache"]


class FingerprintMismatch(ValueError):
    """The loaded graph's content fingerprint is not the one pinned."""

    def __init__(self, path: str, expected: str, actual: str):
        super().__init__(
            f"graph {path!r} has content fingerprint {actual[:16]}..., "
            f"client pinned {expected[:16]}..."
        )
        self.path = path
        self.expected = expected
        self.actual = actual


class GraphCache:
    """Fingerprint-keyed graph store with a stat fast path (module doc).

    ``capacity_edges`` bounds the total cached edge count;
    ``derivative_capacity`` bounds the number of cached 2-out plans.

    With ``plane=True`` (the daemon sets it when its backend has the
    shared graph plane) every resident graph above the plane's size
    floor is published and pinned for exactly as long as it is resident:
    LRU eviction is the single unpin/unlink site, so cache residency and
    ``/dev/shm`` segment lifetime move in lockstep and repeat queries on
    a cached graph ship O(1) handles with zero publish work.
    """

    def __init__(self, capacity_edges: float = 50_000_000,
                 derivative_capacity: int = 64, plane: bool = False):
        self.plane = bool(plane)
        self.graphs = BoundedLRU(capacity_edges,
                                 on_evict=self._on_graph_evict)
        self.derivatives = BoundedLRU(derivative_capacity)
        # stat-key -> fingerprint; tiny, pruned opportunistically against
        # the graph store so it cannot grow unboundedly.
        self._stat_index: dict[tuple, str] = {}
        # fingerprints holding a cache-residency plane pin.
        self._pinned: set[str] = set()
        self._lock = threading.Lock()

    def _on_graph_evict(self, fp, _g) -> None:
        # Called by BoundedLRU outside its lock for every departure
        # (eviction, pop, clear) — never for same-key replacement.
        with self._lock:
            held = fp in self._pinned
            self._pinned.discard(fp)
        if held:
            release_pins((fp,))

    @staticmethod
    def _stat_key(path: str) -> tuple:
        st = os.stat(path)
        return (os.path.abspath(path), st.st_mtime_ns, st.st_size)

    def load(self, path: str, expected_fp: str | None = None):
        """Load ``path`` through the cache; returns ``(graph, fingerprint)``.

        Raises :class:`FingerprintMismatch` when ``expected_fp`` is given
        and the file's content hashes differently.
        """
        skey = self._stat_key(path)
        with self._lock:
            fp = self._stat_index.get(skey)
        g = self.graphs.get(fp) if fp is not None else None
        if g is None:
            g = read_edgelist(path)
            fp = content_fingerprint(g)
            if expected_fp is not None and fp != expected_fp:
                raise FingerprintMismatch(path, expected_fp, fp)
            self._put(fp, g)
            with self._lock:
                if len(self._stat_index) > 4 * max(1, len(self.graphs)):
                    self._stat_index.clear()  # stale beyond usefulness
                self._stat_index[skey] = fp
        elif expected_fp is not None and fp != expected_fp:
            raise FingerprintMismatch(path, expected_fp, fp)
        return g, fp

    def _put(self, fp: str, g) -> None:
        # A graph bigger than the whole cache is served uncached rather
        # than rejected; callers reload it per use.
        weight = max(1, g.m)
        if weight > self.graphs.capacity:
            return
        if self.plane and eligible(g):
            # Pin before insert so the segment exists for the graph's
            # entire residency; same-fingerprint re-puts keep the one
            # existing pin (replacement fires no evict callback).
            with self._lock:
                fresh = fp not in self._pinned
                if fresh:
                    self._pinned.add(fp)
            if fresh:
                publish(g, fingerprint=fp)
                pin(fp)
        self.graphs.put(fp, g, weight=weight)

    def put_graph(self, g, fp: str | None = None) -> str:
        """Insert an already-loaded graph (tests, generated graphs)."""
        fp = fp or content_fingerprint(g)
        self._put(fp, g)
        return fp

    def get_graph(self, fp: str):
        return self.graphs.get(fp)

    def close(self) -> None:
        """Release everything: evict all entries (dropping their plane
        pins through the evict callback) and sweep any stragglers."""
        self.graphs.clear()
        self.derivatives.clear()
        with self._lock:
            leftover = list(self._pinned)
            self._pinned.clear()
        release_pins(leftover)

    def stats(self) -> dict:
        return {
            "graphs": self.graphs.stats(),
            "derivatives": self.derivatives.stats(),
            "stat_index_entries": len(self._stat_index),
            "plane_pinned": len(self._pinned),
        }
