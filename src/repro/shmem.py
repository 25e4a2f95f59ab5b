"""POSIX shared-memory mechanics, written once for both of their users:
the graph plane (:mod:`repro.graph.shm`, program *inputs*) and the
transport arena (:mod:`repro.runtime.transport`, collective *payloads*).

* **Layout** — :func:`pack` copies arrays into one segment at 64-byte
  offsets; :func:`view` rebuilds one from ``(buffer, offset, shape,
  dtype)``: with the segment name, the one descriptor vocabulary.
* **Attachment** — :class:`AttachCache`, LRU-bounded (a mapping outlives
  its segment's unlink); :func:`fetch` is the uncached attach-and-copy.
* **Ownership** — segments are created *untracked* and unlinked by name
  by their owner: the plane's registry (``rgpl…``), a worker (its
  ``rsh…`` slabs and one-shots, once acked), or a ``MSG_DONE`` value's
  reader.
* **Traversal** — :func:`walk`, the one recursion over the shapes
  programs ship; what a leaf is is the caller's business.

``docs/runtime.md`` ("Shared memory") has the long form.
"""

from __future__ import annotations

import os
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.cache.store import BoundedLRU

__all__ = [
    "ATTACH_CAP",
    "AttachCache",
    "walk",
    "view",
    "pack",
    "create_segment",
    "attach_segment",
    "fetch",
    "close_and_unlink",
    "unlink_segments",
]

#: Array-byte alignment inside a segment (cache-line starts).
_ALIGN = 64

#: Process-local cap on cached peer attachments; LRU beyond it.
ATTACH_CAP = 8


def walk(obj, leaf):
    """Rebuild ``obj`` with ``leaf`` applied to everything that is not a
    tuple, list or dict (dict keys pass through untouched)."""
    if isinstance(obj, tuple):
        return tuple(walk(x, leaf) for x in obj)
    if isinstance(obj, list):
        return [walk(x, leaf) for x in obj]
    if isinstance(obj, dict):
        return {k: walk(v, leaf) for k, v in obj.items()}
    return leaf(obj)


def view(buf, offset: int, shape, dtype) -> np.ndarray:
    """Zero-copy array over ``buf`` described by ``(offset, shape, dtype)``."""
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)


def pack(arrays, alloc):
    """Copy ``arrays`` into one segment from ``alloc(nbytes)`` (fresh, or
    a recycled slab at least that large) at aligned offsets.  Returns
    ``(segment, layout)``, one ``(offset, shape, dtype_str)`` per array."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    offsets = []
    cursor = 0
    for a in arrays:
        cursor = -(-cursor // _ALIGN) * _ALIGN
        offsets.append(cursor)
        cursor += a.nbytes
    seg = alloc(max(cursor, 1))
    for a, off in zip(arrays, offsets):
        view(seg.buf, off, a.shape, a.dtype)[...] = a
    return seg, [(off, a.shape, a.dtype.str)
                 for a, off in zip(arrays, offsets)]


class _NoTracker:
    register = unregister = staticmethod(lambda name, rtype: None)


#: The tracker swap below is process-global.  A pool forked while another
#: thread (the daemon has several) is inside it starts with a fresh lock.
_OPENING = threading.Lock()
os.register_at_fork(after_in_child=_OPENING._at_fork_reinit)


def _untracked(**kwargs) -> shared_memory.SharedMemory:
    """A ``SharedMemory`` this process's resource tracker never hears of:
    attach as well as create registers on this Python, we unlink our
    segments ourselves, and two processes attaching one name race their
    register/unregister pairs into a ``KeyError`` on the tracker's stderr."""
    with _OPENING:
        tracker = shared_memory.resource_tracker
        shared_memory.resource_tracker = _NoTracker
        try:
            return shared_memory.SharedMemory(**kwargs)
        finally:
            shared_memory.resource_tracker = tracker


def create_segment(size: int, name: str | None = None):
    """A fresh untracked segment (kernel-random ``psm_…`` name if None)."""
    return _untracked(name=name, create=True, size=size)


def attach_segment(name: str):
    """An untracked attachment to an existing segment."""
    return _untracked(name=name)


def fetch(name: str, shape, dtype, unlink: bool = True) -> np.ndarray:
    """A one-shot segment's reader: attach, copy its array out, close and —
    the last reader — reclaim the segment."""
    seg = attach_segment(name)
    try:
        return view(seg.buf, 0, shape, dtype).copy()
    finally:
        seg.close()
        if unlink:
            unlink_segments([name])


try:  # POSIX: raw shm_unlink, bypassing the resource tracker
    from _posixshmem import shm_unlink as _shm_unlink
except ImportError:  # pragma: no cover - non-POSIX fallback
    def _shm_unlink(name: str) -> None:
        seg = shared_memory.SharedMemory(name=name)
        seg.close()
        seg.unlink()


def unlink_segments(names) -> list[str]:
    """Reclaim segments by name; returns the names that actually existed.

    Unlinks at the OS level without attaching: a segment its creator was
    killed inside (``shm_open`` done, ``ftruncate`` not) is zero-length and
    cannot be mapped, but must still go.  Only ``FileNotFoundError``
    (already reclaimed by the other side) is tolerated, and only here —
    anything else is a real bug and propagates.
    """
    reclaimed = []
    for name in names:
        try:
            _shm_unlink(name if name.startswith("/") else f"/{name}")
        except FileNotFoundError:
            continue
        reclaimed.append(name)
    return reclaimed


def close_and_unlink(seg: shared_memory.SharedMemory) -> None:
    """Drop the owner's mapping and reclaim the segment.  (Not
    ``seg.unlink()``: that unregisters an untracked segment a second time
    and makes the tracker process log a ``KeyError``.)"""
    seg.close()
    unlink_segments([seg.name])


class AttachCache(BoundedLRU):
    """Segment name -> attached ``SharedMemory``, at most ``cap`` of them:
    a hit re-reads a recycled slab or a republished graph without a fresh
    ``shm_open``/``mmap``.  Every departure (LRU eviction, :meth:`clear`)
    calls ``on_evict(name)`` so the owner can drop views derived from the
    buffer, then closes the mapping; the segment stays with its owner."""

    def __init__(self, on_evict=None, cap: int = ATTACH_CAP):
        def departed(name, seg):
            if on_evict is not None:
                on_evict(name)
            seg.close()

        super().__init__(cap, on_evict=departed)

    def attach(self, name: str) -> shared_memory.SharedMemory:
        return self.get_or_load(name, lambda: attach_segment(name))
