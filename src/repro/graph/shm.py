"""The shared graph plane: publish-once input distribution over POSIX shm.

The multiprocess backends ship a program's inputs by pickling them into
every worker's :class:`~repro.runtime.worker.WorkerSpec` (or per-query
``CMD_RUN`` tuple) — **p independent copies of the edge arrays per
dispatch**, even when the serve daemon's cache already holds the exact
same graph.  This module removes that O(p·m) input path for the common
case (the graph itself), on the segment mechanics of :mod:`repro.shmem`
(shared with the transport arena):

* :func:`publish` packs a graph's ``u``/``v``/``w`` arrays **once** into
  a single read-only segment keyed by
  :func:`~repro.graph.fingerprint.content_fingerprint`, and returns a
  :class:`GraphHandle` — fingerprint, segment name, dtypes, offsets —
  that pickles in O(1) regardless of ``m``.  Publishing the same
  fingerprint again is idempotent and free.
* Workers resolve handles lazily (:func:`resolve_plane`): attach through
  the bounded cache, reconstruct zero-copy read-only views, and keep the
  derived slice lists beside the attachment, so repeat queries on the
  same graph are attach-free *and* return the identical
  :class:`~repro.graph.edgelist.EdgeList` objects (which keeps the
  samplers' identity-keyed caches warm).
* Lifetime is pin-counted, with two owners: the run in flight (one pin,
  released in the backend's ``finally``) and, between runs, the
  retention window of the backend's pool (one pin for each of the
  ``plane_retain`` most recently run graphs).  :func:`unpublish` unlinks
  only once every pin is dropped.  An ``atexit`` sweep plus the per-run
  ``finally`` blocks in the backends guarantee a crashed run leaks zero
  ``/dev/shm`` segments; segment names carry the fixed
  :data:`SEGMENT_PREFIX` so leak checks (tests, CI) can simply glob
  ``/dev/shm/rgpl*``.

Dispatch sites opt in by passing :func:`plane_slices(g, p) <plane_slices>`
instead of ``g.slices(p)``.  The marker is **transport, not semantics**:
the simulator (and a plane-disabled mp backend) resolves it locally to
exactly ``g.slices(p)``, and attached workers rebuild the same
``np.linspace`` slice bounds over byte-identical arrays — results,
counters and traces are bit-identical with the plane on or off.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.fingerprint import cached_fingerprint, freeze_edges
from repro.shmem import (
    AttachCache,
    close_and_unlink,
    create_segment,
    pack,
    view,
    walk,
)

__all__ = [
    "PLANE_MIN_BYTES",
    "SEGMENT_PREFIX",
    "GraphHandle",
    "PlaneSlices",
    "SlicedHandle",
    "plane_slices",
    "eligible",
    "publish",
    "pin",
    "unpin",
    "unpublish",
    "published",
    "plane_stats",
    "stage_plane",
    "localize_plane",
    "resolve_plane",
    "release_pins",
    "shutdown_plane",
]

#: Graphs whose combined edge-array bytes fall below this stay inline in
#: the dispatch pickle: a pipe round-trip beats segment bookkeeping for
#: tiny inputs (the transport applies the same logic per message).
PLANE_MIN_BYTES = 1 << 15

#: Every published segment name starts with this, so tests and CI leak
#: checks can assert cleanliness with one ``/dev/shm/rgpl*`` glob.
SEGMENT_PREFIX = "rgpl"

#: Monotonic per-process publish sequence; fixed-width in the segment
#: name so handle pickle sizes are deterministic across runs.
_SEG_SEQ = itertools.count()

#: Re-entrant: a backend collected inside a critical section here releases
#: its pool's retained pins from the same thread (so readers iterate a copy).
_LOCK = threading.RLock()


def _fresh_lock_after_fork() -> None:
    global _LOCK
    _LOCK = threading.RLock()


# A fork copies every lock in whatever state some other thread holds it,
# and a lock copied locked is never released.  A warm pool is forked by
# whichever thread first runs on it, while other threads may be inside this
# registry (publishing, or reading plane_stats for the daemon's stats
# verb); workers forked that way hung in GraphHandle.graph — on _LOCK, or
# on the stdlib resource tracker's own lock, which SharedMemory() takes
# (and, on its first use, holds while it spawns the tracker process)
# inside publish's critical section.  So a fork waits for that section to
# end, and the child starts with a lock of its own and a registry that is
# never a torn copy.
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(before=lambda: _LOCK.acquire(),
                        after_in_parent=lambda: _LOCK.release(),
                        after_in_child=_fresh_lock_after_fork)


def _segment_name() -> str:
    """Fixed-width, per-process-unique segment name.

    Fixed width keeps handle pickle sizes deterministic (the perf gate
    pins input bytes per query exactly); the monotonic sequence means a
    name is never reused within a process, so worker attachment caches
    keyed by name can never alias two generations of a graph.
    """
    return (f"{SEGMENT_PREFIX}{os.getpid() & 0xFFFFFFFF:08x}"
            f"s{next(_SEG_SEQ) & 0xFFFFFF:06x}")


@dataclass(frozen=True)
class GraphHandle:
    """O(1) wire form of a published graph.

    Everything needed to reconstruct zero-copy views — one segment, per
    array offset/shape/dtype — in a couple hundred pickle bytes,
    independent of ``m``.
    """

    fingerprint: str
    n: int
    m: int
    segment: str
    offsets: tuple[int, int, int]       # u, v, w byte offsets
    dtypes: tuple[str, str, str]        # numpy dtype strs, same order

    def graph(self) -> EdgeList:
        """The published graph: registry object in the publisher process,
        cached zero-copy attachment elsewhere."""
        with _LOCK:
            entry = _REGISTRY.get(self.fingerprint)
            if entry is not None and entry.seg.name == self.segment:
                return entry.graph  # publisher process: the original object
        seg = _ATTACHED.attach(self.segment)
        views = _VIEWS.setdefault(self.segment, {})
        if None not in views:
            views[None] = _views_from_buffer(self, seg.buf)
        return views[None]


class PlaneSlices:
    """Coordinator-side lazy marker for ``g.slices(p)`` at a dispatch site.

    Backends decide its fate: the simulator (and a plane-disabled mp
    backend) calls :meth:`resolve` locally; a plane-enabled mp backend
    publishes the graph and ships an O(1) :class:`SlicedHandle` instead.
    Never pickled — a marker crossing the wire is a backend bug, so
    pickling raises.
    """

    __slots__ = ("graph", "p", "_slices")

    def __init__(self, graph: EdgeList, p: int):
        self.graph = graph
        self.p = int(p)
        self._slices = None

    def resolve(self) -> list[EdgeList]:
        if self._slices is None:
            self._slices = self.graph.slices(self.p)
        return self._slices

    def __reduce__(self):
        raise TypeError(
            "PlaneSlices markers are coordinator-local; a backend must "
            "stage them (stage_plane) or resolve them (localize_plane) "
            "before anything is pickled"
        )


@dataclass(frozen=True)
class SlicedHandle:
    """Wire marker: ``handle.graph().slices(p)``, resolved worker-side."""

    handle: GraphHandle
    p: int

    def resolve(self) -> list[EdgeList]:
        slices = _VIEWS.get(self.handle.segment, {}).get(self.p)
        if slices is None:
            slices = self.handle.graph().slices(self.p)
            # Publisher-process resolutions are not attachment-backed;
            # their slice lists live until unpublish (registry entries
            # outlive their pins' holders).
            _VIEWS.setdefault(self.handle.segment, {})[self.p] = slices
        return slices


def plane_slices(g: EdgeList, p: int) -> PlaneSlices:
    """The marker dispatch sites pass in place of ``g.slices(p)``."""
    return PlaneSlices(g, p)


def eligible(g) -> bool:
    """Whether ``g`` is worth publishing (see :data:`PLANE_MIN_BYTES`)."""
    return (g.u.nbytes + g.v.nbytes + g.w.nbytes) >= PLANE_MIN_BYTES


# ---------------------------------------------------------------------------
# Publisher registry (coordinator side)
# ---------------------------------------------------------------------------

class _Entry:
    __slots__ = ("seg", "handle", "graph", "pins")

    def __init__(self, seg, handle, graph):
        self.seg = seg
        self.handle = handle
        self.graph = graph  # strong ref: keeps the publisher zero-work
        self.pins = 0


_REGISTRY: dict[str, _Entry] = {}
_ATEXIT_REGISTERED = False


def publish(g: EdgeList, *, fingerprint: str | None = None) -> GraphHandle:
    """Publish ``g`` into the plane (idempotent per fingerprint).

    Copies the edge arrays once into a fresh read-only segment; a second
    publish of the same content returns the existing handle without
    touching the arrays.  The caller should :func:`pin` the fingerprint
    for as long as it needs the segment alive.

    The source arrays are frozen (:func:`~repro.graph.fingerprint.
    freeze_edges`): the registry serves the original object back to the
    publisher process keyed by this fingerprint, so an in-place edit
    after publish would silently alias stale content — freezing turns
    that into a ``ValueError`` at the mutation site.  A changed graph is
    new content under a new fingerprint (a dynamic graph's next epoch
    snapshot), published beside the old one.
    """
    global _ATEXIT_REGISTERED
    fp = fingerprint or cached_fingerprint(g)
    freeze_edges(g)
    with _LOCK:
        entry = _REGISTRY.get(fp)
        if entry is not None:
            return entry.handle
        arrays = (
            np.ascontiguousarray(g.u, dtype=np.int64),
            np.ascontiguousarray(g.v, dtype=np.int64),
            np.ascontiguousarray(g.w, dtype=np.float64),
        )
        seg, layout = pack(
            arrays, lambda size: create_segment(size, _segment_name()))
        handle = GraphHandle(
            fingerprint=fp, n=int(g.n), m=int(g.m), segment=seg.name,
            offsets=tuple(off for off, _, _ in layout),
            dtypes=tuple(dtype for _, _, dtype in layout),
        )
        _REGISTRY[fp] = _Entry(seg, handle, g)
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_plane)
            _ATEXIT_REGISTERED = True
        return handle


def pin(fp: str) -> None:
    """Hold the published segment alive across :func:`unpublish` calls."""
    with _LOCK:
        entry = _REGISTRY.get(fp)
        if entry is not None:
            entry.pins += 1


def unpin(fp: str) -> None:
    with _LOCK:
        entry = _REGISTRY.get(fp)
        if entry is not None and entry.pins > 0:
            entry.pins -= 1


def unpublish(fp: str) -> bool:
    """Unlink ``fp``'s segment if (and only if) nothing pins it.

    Returns whether the segment was actually reclaimed — callers drop
    their pin first, so ``unpin(fp); unpublish(fp)`` releases one layer
    and the last layer out turns off the lights.
    """
    with _LOCK:
        entry = _REGISTRY.get(fp)
        if entry is None or entry.pins > 0:
            return False
        del _REGISTRY[fp]
        _VIEWS.pop(entry.seg.name, None)
        close_and_unlink(entry.seg)
        return True


def published() -> dict[str, int]:
    """fingerprint -> pin count of everything currently published."""
    with _LOCK:
        return {fp: e.pins for fp, e in _REGISTRY.copy().items()}


def plane_stats() -> dict:
    """JSON-ready counters (the serve daemon's ``stats`` endpoint)."""
    with _LOCK:
        entries = list(_REGISTRY.values())
        return {
            "published": len(entries),
            "pinned": sum(1 for e in entries if e.pins > 0),
            "bytes": sum(e.seg.size for e in entries),
            "attached": len(_ATTACHED),
        }


def release_pins(fps) -> None:
    """Drop one pin per fingerprint and unlink whatever became free."""
    for fp in fps:
        unpin(fp)
        unpublish(fp)


def shutdown_plane() -> None:
    """Unlink everything regardless of pins (atexit sweep, test cleanup)."""
    with _LOCK:
        entries = list(_REGISTRY.values())
        _REGISTRY.clear()
        for entry in entries:
            close_and_unlink(entry.seg)
        _ATTACHED.clear()
        _VIEWS.clear()


# ---------------------------------------------------------------------------
# Coordinator-side staging
# ---------------------------------------------------------------------------

def stage_plane(obj, pinned: list[str]):
    """Publish every :class:`PlaneSlices` marker in ``obj`` for the wire.

    Eligible graphs are published (idempotent), pinned (fingerprints
    appended to ``pinned`` — the caller releases them when the run is
    over), and replaced by O(1) :class:`SlicedHandle` markers; graphs
    below :data:`PLANE_MIN_BYTES` are resolved locally and ship inline
    exactly as before.
    """
    def fn(marker: PlaneSlices):
        if not eligible(marker.graph):
            return marker.resolve()
        handle = publish(marker.graph)
        pin(handle.fingerprint)
        pinned.append(handle.fingerprint)
        return SlicedHandle(handle, marker.p)

    return _map_markers(obj, fn)


def localize_plane(obj):
    """Resolve every marker in ``obj`` locally (sim / plane-off path)."""
    return _map_markers(obj, PlaneSlices.resolve)


def _map_markers(obj, fn):
    return walk(obj, lambda x: fn(x) if isinstance(x, PlaneSlices) else x)


# ---------------------------------------------------------------------------
# Worker-side resolution (process-local caches)
# ---------------------------------------------------------------------------

#: segment name -> what was derived from it: the reconstructed EdgeList
#: under ``None`` (views over the cached attachment) and one slice list
#: per ``p``; identical objects on repeat queries keep the samplers'
#: identity-keyed caches warm across CMD_RUNs.  Dropped as one when the
#: attachment is evicted or the publisher unpublishes.
_VIEWS: dict[str, dict] = {}
#: The attachments themselves (distinct graphs a worker keeps mapped).
_ATTACHED = AttachCache(on_evict=lambda name: _VIEWS.pop(name, None))


def _views_from_buffer(handle: GraphHandle, buf) -> EdgeList:
    """Zero-copy read-only EdgeList over a published segment's buffer."""
    cols = []
    for off, dt in zip(handle.offsets, handle.dtypes):
        a = view(buf, off, (handle.m,), dt)
        a.flags.writeable = False  # programs only read their inputs
        cols.append(a)
    return EdgeList(handle.n, cols[0], cols[1], cols[2],
                    canonical=False, validate=False)


def resolve_plane(obj):
    """Materialize every wire marker in ``obj`` (worker-side inverse of
    :func:`stage_plane`; plain inputs pass through untouched)."""
    def leaf(x):
        if isinstance(x, SlicedHandle):
            return x.resolve()
        if isinstance(x, GraphHandle):
            return x.graph()
        return x

    return walk(obj, leaf)
