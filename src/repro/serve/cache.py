"""The daemon's graph cache.

Content-fingerprint → loaded :class:`~repro.graph.edgelist.EdgeList`,
bounded LRU (:class:`repro.cache.store.BoundedLRU`) weighted by edge
count.  A fast *stat index* ``(abspath, mtime_ns, size) → fingerprint``
lets the warm path skip re-reading an unchanged file entirely; any stat
change falls back to a full read + re-fingerprint, so a file edited in
place can never serve stale bits.  Keeping the same ``EdgeList``
**object** hot has a second-order payoff: the samplers' identity-keyed
caches (:func:`repro.core.sparsify.cached_sampler`, the 2-out incidence
cache) stay warm automatically across queries on the same graph.  The
2-out plans derived from a graph live in the backend's plan store
(:attr:`repro.runtime.base.Backend.plans`), not here.

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

    ``capacity_edges`` bounds the total cached edge count.
    Residency is memory only: a plane-enabled backend publishes a graph
    when it runs it, and its retention window keeps the segment alive
    between runs (:mod:`repro.runtime.warm`).
    """

    def __init__(self, capacity_edges: float = 50_000_000):
        self.graphs = BoundedLRU(capacity_edges)
        # stat-key -> fingerprint; tiny, pruned opportunistically against
        # the graph store so it cannot grow unboundedly.
        self._stat_index: dict[tuple, str] = {}
        self._lock = threading.Lock()

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
        if weight <= self.graphs.capacity:
            self.graphs.put(fp, g, weight=weight)

    def put_graph(self, g, fp: str | None = None) -> str:
        """Insert an already-loaded graph (tests, generated graphs)."""
        fp = fp or content_fingerprint(g)
        self._put(fp, g)
        return fp

    def get_graph(self, fp: str):
        return self.graphs.get(fp)

    def close(self) -> None:
        """Drop every cached graph."""
        self.graphs.clear()

    def stats(self) -> dict:
        return {
            "graphs": self.graphs.stats(),
            "stat_index_entries": len(self._stat_index),
        }
