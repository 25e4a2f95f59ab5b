"""Shared-memory payload transport for the multiprocess backend.

Control messages travel over ``multiprocessing`` pipes (pickle), but bulk
numpy payloads — edge arrays, gathered samples, dense matrix blocks — are
hoisted out of the pickle stream into POSIX shared memory.  Two codecs
share the wire format machinery:

**Pooled arena** (the default, :class:`Transport` with ``use_arena=True``):
each endpoint owns a :class:`ShmArena` of size-classed slabs (power-of-two
sizes from 64 KiB up).  All ndarray leaves of one message — including the
columns of an :class:`~repro.bsp.arrays.ArrayBundle` — are packed into
*one* slab at aligned offsets and shipped as :class:`SlabArrayRef`
descriptors, so a whole multi-column collective costs one segment and one
copy per side instead of one ``shm_open``/``mmap``/``unlink`` per array.
Slabs are recycled through a free list:

* a worker's *request* slab is released when the coordinator's reply
  arrives (the coordinator decodes a request on receipt, so by reply time
  the slab is provably consumed);
* the coordinator's *reply* slab is released when that rank's next
  message arrives (the worker is strictly synchronous, so its next
  request proves the reply was decoded).

Receivers keep peer segments attached in a :class:`Transport` cache keyed
by segment name — a recycled slab is re-read without a fresh
``shm_open``/``mmap``.  Each arena unlinks everything it owns at close;
the coordinator additionally sweeps every worker slab name it has seen
after the pool is torn down and **logs** any it actually had to reclaim,
so leaks are visible instead of silent.

**Legacy one-shot** (``use_arena=False``, the transport gate's
reference): the sender copies each large array into a fresh segment
(:class:`ShmArrayRef`), the receiver attaches, copies out, and unlinks.
Strictly single-reader in both modes: every encoded message has exactly
one recipient.  Senders/attachers unregister segments from their own
``resource_tracker`` so neither side's tracker warns about (or
double-frees) a segment the other side reclaimed.

Arrays below the threshold stay inline in the pickle — a pipe round-trip
is cheaper than page-aligned copies for small payloads.  (In arena mode
the decision is per *message*: leaves are packed when their combined size
crosses the threshold.)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.bsp.arrays import ArrayBundle
from repro.graph.shm import _shm_unlink, _untrack

__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "DEFAULT_MAX_RETAINED",
    "ShmArrayRef",
    "SlabArrayRef",
    "BundleRef",
    "ShmArena",
    "Transport",
    "TransportStats",
    "encode_payload",
    "decode_payload",
    "collect_shm_names",
    "collect_slab_names",
    "unlink_segments",
]

logger = logging.getLogger(__name__)

#: Minimum payload-array bytes for the shared-memory path (64 KiB); also
#: the smallest arena slab size class.
DEFAULT_SHM_THRESHOLD = 1 << 16

#: Free-list retention bound per arena: released slabs beyond this many
#: bytes are unlinked instead of pooled (bounds the high-water mark).
DEFAULT_MAX_RETAINED = 32 << 20

#: Slab packing alignment (bytes) — cache-line aligned array starts.
_ALIGN = 64


@dataclass(frozen=True)
class ShmArrayRef:
    """Wire descriptor of an ndarray parked in a one-shot segment.

    Legacy path: the receiver attaches, copies out, and unlinks.
    """

    name: str
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class SlabArrayRef:
    """Wire descriptor of an ndarray packed into a pooled arena slab.

    The slab stays owned by the sender's arena: the receiver attaches
    (cached), copies out, and must **not** unlink.
    """

    name: str
    offset: int
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class BundleRef:
    """Wire form of an :class:`~repro.bsp.arrays.ArrayBundle`.

    ``columns`` holds per-column wire objects (slab refs, one-shot refs,
    or small inline arrays); ``counts`` rides inline — it is metadata and
    tiny (one int64 per group member).
    """

    columns: tuple
    counts: object


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two slab size >= nbytes (floor 64 KiB)."""
    return 1 << max(16, int(nbytes - 1).bit_length())


def _packable(arr: np.ndarray) -> bool:
    return arr.nbytes > 0 and not arr.dtype.hasobject


# ---------------------------------------------------------------------------
# Legacy one-shot codec
# ---------------------------------------------------------------------------

def _stash_array(arr: np.ndarray) -> ShmArrayRef:
    """Copy ``arr`` into a fresh shared-memory segment owned by the reader."""
    arr = np.ascontiguousarray(arr)
    seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    try:
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        dst[...] = arr
        return ShmArrayRef(name=seg.name, shape=arr.shape, dtype=arr.dtype.str)
    finally:
        # The reader unlinks after decoding; forget the segment here so the
        # sender's resource tracker neither warns nor double-unlinks it.
        _untrack(seg._name)
        seg.close()


def _fetch_array(ref: ShmArrayRef) -> np.ndarray:
    """Materialize a one-shot stashed array and reclaim its segment."""
    seg = shared_memory.SharedMemory(name=ref.name)
    try:
        src = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
        return src.copy()
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


def encode_payload(obj, threshold: int = DEFAULT_SHM_THRESHOLD):
    """Replace large ndarrays in ``obj`` with one-shot segment descriptors.

    Walks tuples, lists, dict values and :class:`ArrayBundle` columns (the
    shapes collectives move); everything else passes through to the pipe's
    pickle stream untouched.
    """
    if isinstance(obj, np.ndarray):
        if obj.nbytes >= threshold and not obj.dtype.hasobject:
            return _stash_array(obj)
        return obj
    if isinstance(obj, ArrayBundle):
        return BundleRef(
            columns=tuple(encode_payload(c, threshold) for c in obj.columns),
            counts=obj.counts,
        )
    if isinstance(obj, tuple):
        return tuple(encode_payload(x, threshold) for x in obj)
    if isinstance(obj, list):
        return [encode_payload(x, threshold) for x in obj]
    if isinstance(obj, dict):
        return {k: encode_payload(v, threshold) for k, v in obj.items()}
    return obj


def decode_payload(obj, attach=None):
    """Inverse of :func:`encode_payload` / :meth:`Transport.encode`.

    One-shot refs are reclaimed (attach + copy + unlink).  Slab refs are
    read through ``attach`` — a callable ``name -> SharedMemory`` (the
    transport's cached attacher); without one, an ephemeral attach is used
    and the slab is left alone (it belongs to the sender's arena).
    """
    if isinstance(obj, ShmArrayRef):
        return _fetch_array(obj)
    if isinstance(obj, SlabArrayRef):
        if attach is not None:
            seg = attach(obj.name)
            return np.ndarray(
                obj.shape, dtype=np.dtype(obj.dtype),
                buffer=seg.buf, offset=obj.offset,
            ).copy()
        seg = shared_memory.SharedMemory(name=obj.name)
        try:
            _untrack(seg._name)
            return np.ndarray(
                obj.shape, dtype=np.dtype(obj.dtype),
                buffer=seg.buf, offset=obj.offset,
            ).copy()
        finally:
            seg.close()
    if isinstance(obj, BundleRef):
        return ArrayBundle(
            *(decode_payload(c, attach) for c in obj.columns),
            counts=obj.counts,
        )
    if isinstance(obj, tuple):
        return tuple(decode_payload(x, attach) for x in obj)
    if isinstance(obj, list):
        return [decode_payload(x, attach) for x in obj]
    if isinstance(obj, dict):
        return {k: decode_payload(v, attach) for k, v in obj.items()}
    return obj


def collect_shm_names(obj, out: list[str] | None = None) -> list[str]:
    """One-shot segment names referenced by an *encoded* wire object."""
    if out is None:
        out = []
    if isinstance(obj, ShmArrayRef):
        out.append(obj.name)
    elif isinstance(obj, BundleRef):
        for c in obj.columns:
            collect_shm_names(c, out)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            collect_shm_names(x, out)
    elif isinstance(obj, dict):
        for v in obj.values():
            collect_shm_names(v, out)
    return out


def collect_slab_names(obj, out: set[str] | None = None) -> set[str]:
    """Arena slab names referenced by an *encoded* wire object."""
    if out is None:
        out = set()
    if isinstance(obj, SlabArrayRef):
        out.add(obj.name)
    elif isinstance(obj, BundleRef):
        for c in obj.columns:
            collect_slab_names(c, out)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            collect_slab_names(x, out)
    elif isinstance(obj, dict):
        for v in obj.values():
            collect_slab_names(v, out)
    return out


def unlink_segments(names) -> list[str]:
    """Reclaim segments by name; returns the names that actually existed.

    Unlinks at the OS level without attaching: a segment its creator was
    killed inside (``shm_open`` done, ``ftruncate`` not) is zero-length and
    cannot be mapped, but must still go.  Only ``FileNotFoundError``
    (already reclaimed by the other side) is tolerated — anything else is
    a real bug and propagates.
    """
    reclaimed = []
    for name in names:
        try:
            _shm_unlink(name if name.startswith("/") else f"/{name}")
        except FileNotFoundError:
            continue
        reclaimed.append(name)
    return reclaimed


# ---------------------------------------------------------------------------
# Pooled arena
# ---------------------------------------------------------------------------

class ShmArena:
    """Sender-owned pool of size-classed shared-memory slabs.

    Slabs are power-of-two sized (>= 64 KiB), recycled through per-class
    free lists, and unlinked eagerly once the pooled free bytes exceed
    ``max_retained`` — which bounds the arena's high-water mark.  Not
    thread-safe; each process endpoint owns exactly one.

    ``name_prefix`` makes slab names deterministic (``{prefix}{seq}``)
    instead of kernel-random: the multiprocess coordinator hands every
    worker a unique per-run prefix so that slabs a killed worker never
    got to unlink — including retained free-list slabs whose names never
    crossed the wire — can be found and reclaimed by a prefix sweep at
    pool shutdown.
    """

    def __init__(self, max_retained: int = DEFAULT_MAX_RETAINED,
                 name_prefix: str | None = None):
        self.max_retained = int(max_retained)
        self.name_prefix = name_prefix
        self._seq = 0
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._segs: dict[str, shared_memory.SharedMemory] = {}  # all owned
        self._class_of: dict[str, int] = {}
        self._in_use: set[str] = set()
        self._free_bytes = 0
        self.created = 0       # fresh segments allocated (syscall path)
        self.reused = 0        # acquisitions served from the free list
        self.live_bytes = 0    # bytes across all owned slabs, right now
        self.high_water = 0    # max live_bytes ever

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A slab with capacity >= nbytes, recycled when possible.

        Best-fit from the free lists: the smallest pooled class that can
        hold the request is reused, even if larger than the exact class —
        shrinking workloads (CC frontiers, contracting graphs) then keep
        recycling their round-one slab instead of allocating a fresh
        segment per size class on the way down.
        """
        cls = _size_class(nbytes)
        fit = min((c for c, lst in self._free.items() if lst and c >= cls),
                  default=None)
        if fit is not None:
            seg = self._free[fit].pop()
            self._free_bytes -= fit
            self.reused += 1
        else:
            if self.name_prefix is None:
                seg = shared_memory.SharedMemory(create=True, size=cls)
            else:
                seg = shared_memory.SharedMemory(
                    name=f"{self.name_prefix}{self._seq}", create=True,
                    size=cls,
                )
                self._seq += 1
            _untrack(seg._name)
            self._segs[seg.name] = seg
            self._class_of[seg.name] = cls
            self.created += 1
            self.live_bytes += cls
            self.high_water = max(self.high_water, self.live_bytes)
        self._in_use.add(seg.name)
        return seg

    def release(self, name: str) -> None:
        """Return a slab to the pool once its single reader has decoded it."""
        if name not in self._in_use:
            return
        self._in_use.discard(name)
        cls = self._class_of[name]
        self._free.setdefault(cls, []).append(self._segs[name])
        self._free_bytes += cls
        # Evict largest classes first: frees the most bytes per unlink.
        while self._free_bytes > self.max_retained:
            big = max(c for c, lst in self._free.items() if lst)
            seg = self._free[big].pop()
            self._unlink(seg)
            self._free_bytes -= big

    def _unlink(self, seg: shared_memory.SharedMemory) -> None:
        del self._segs[seg.name]
        self.live_bytes -= self._class_of.pop(seg.name)
        name = seg._name  # the OS name, before close() drops state
        seg.close()
        # Slabs were unregistered from the resource tracker at creation;
        # SharedMemory.unlink() would unregister a second time and make the
        # tracker process log a KeyError, so unlink at the OS level.
        try:
            _shm_unlink(name)
        except FileNotFoundError:  # pragma: no cover - swept by the peer
            pass

    def close(self) -> list[str]:
        """Unlink every owned slab; returns their names."""
        names = list(self._segs)
        for name in names:
            self._unlink(self._segs[name])
        self._free.clear()
        self._in_use.clear()
        self._free_bytes = 0
        return names

    @property
    def owned_names(self) -> list[str]:
        return list(self._segs)


class TransportStats:
    """Per-collective-kind transport counters, mergeable across endpoints.

    For each message kind (collective kind, or ``"done"``/``"value"`` for
    result shipping) tracks: messages encoded, pickle bytes put on the
    pipe, shared-memory segments created vs reused, and array bytes copied
    into segments.  ``high_water`` is the max over the contributing
    arenas' high-water marks.
    """

    _FIELDS = ("messages", "pickle_bytes", "segments_created",
               "segments_reused", "bytes_copied")

    def __init__(self):
        self.kinds: dict[str, dict[str, int]] = {}
        self.high_water = 0

    def _bucket(self, kind: str) -> dict[str, int]:
        b = self.kinds.get(kind)
        if b is None:
            b = self.kinds[kind] = dict.fromkeys(self._FIELDS, 0)
        return b

    def note(self, kind: str, **deltas) -> None:
        b = self._bucket(kind)
        for f, d in deltas.items():
            b[f] += int(d)

    def merge(self, other: "TransportStats") -> None:
        for kind, b in other.kinds.items():
            mine = self._bucket(kind)
            for f in self._FIELDS:
                mine[f] += b[f]
        self.high_water = max(self.high_water, other.high_water)

    def totals(self) -> dict[str, int]:
        out = dict.fromkeys(self._FIELDS, 0)
        for b in self.kinds.values():
            for f in self._FIELDS:
                out[f] += b[f]
        return out

    def as_dict(self) -> dict:
        """JSON-ready snapshot: per-kind buckets plus totals."""
        return {
            "per_kind": {k: dict(v) for k, v in sorted(self.kinds.items())},
            "total": self.totals(),
            "high_water_bytes": self.high_water,
        }


class Transport:
    """One endpoint's payload codec: arena + peer-attachment cache + stats.

    ``encode`` returns ``(wire, names)`` where ``names`` are the shm
    segments backing the message — arena slabs to ``release()`` once the
    peer provably decoded them (arena mode), or one-shot segment names the
    peer unlinks itself (legacy mode; ``release`` is a no-op for those).
    """

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_SHM_THRESHOLD,
        use_arena: bool = True,
        max_retained: int = DEFAULT_MAX_RETAINED,
        slab_prefix: str | None = None,
    ):
        self.threshold = int(threshold)
        self.use_arena = bool(use_arena)
        self.arena = (ShmArena(max_retained, name_prefix=slab_prefix)
                      if use_arena else None)
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self.stats = TransportStats()

    # -- encode --------------------------------------------------------------

    def encode(self, obj, kind: str = "?"):
        """Encode one message's payload; returns ``(wire, segment_names)``."""
        if not self.use_arena:
            wire = encode_payload(obj, self.threshold)
            names = collect_shm_names(wire)
            self.stats.note(
                kind, messages=1, segments_created=len(names),
                bytes_copied=self._one_shot_bytes(wire),
            )
            return wire, names

        leaves: list[np.ndarray] = []
        self._walk(obj, leaves.append)
        total = sum(a.nbytes for a in leaves)
        if total < self.threshold:
            self.stats.note(kind, messages=1)
            return self._inline(obj), []

        # Pack every array leaf into ONE slab at aligned offsets.
        offsets = []
        cursor = 0
        for a in leaves:
            cursor = -(-cursor // _ALIGN) * _ALIGN
            offsets.append(cursor)
            cursor += a.nbytes
        created0, reused0 = self.arena.created, self.arena.reused
        seg = self.arena.acquire(cursor)
        refs = []
        for a, off in zip(leaves, offsets):
            src = np.ascontiguousarray(a)
            dst = np.ndarray(src.shape, dtype=src.dtype,
                             buffer=seg.buf, offset=off)
            dst[...] = src
            refs.append(SlabArrayRef(name=seg.name, offset=off,
                                     shape=src.shape, dtype=src.dtype.str))
        it = iter(refs)
        wire = self._walk(obj, lambda a: next(it))
        self.stats.note(
            kind, messages=1, bytes_copied=total,
            segments_created=self.arena.created - created0,
            segments_reused=self.arena.reused - reused0,
        )
        self.stats.high_water = max(self.stats.high_water,
                                    self.arena.high_water)
        return wire, [seg.name]

    @staticmethod
    def _walk(obj, fn):
        """Rebuild ``obj`` with ``fn`` applied to every packable ndarray.

        The same traversal serves the collect pass (``fn`` records, result
        discarded) and the replace pass (``fn`` yields the refs in the
        identical order).
        """
        if isinstance(obj, np.ndarray):
            return fn(obj) if _packable(obj) else obj
        if isinstance(obj, ArrayBundle):
            return BundleRef(
                columns=tuple(
                    fn(c) if _packable(c) else c for c in obj.columns
                ),
                counts=obj.counts,
            )
        if isinstance(obj, tuple):
            return tuple(Transport._walk(x, fn) for x in obj)
        if isinstance(obj, list):
            return [Transport._walk(x, fn) for x in obj]
        if isinstance(obj, dict):
            return {k: Transport._walk(v, fn) for k, v in obj.items()}
        return obj

    @staticmethod
    def _inline(obj):
        """Below-threshold wire form: bundles still travel as BundleRefs
        (plain picklable dataclass), arrays stay inline."""
        if isinstance(obj, ArrayBundle):
            return BundleRef(columns=obj.columns, counts=obj.counts)
        if isinstance(obj, tuple):
            return tuple(Transport._inline(x) for x in obj)
        if isinstance(obj, list):
            return [Transport._inline(x) for x in obj]
        if isinstance(obj, dict):
            return {k: Transport._inline(v) for k, v in obj.items()}
        return obj

    @staticmethod
    def _one_shot_bytes(wire) -> int:
        total = 0

        def add(o):
            nonlocal total
            if isinstance(o, ShmArrayRef):
                total += int(np.prod(o.shape, dtype=np.int64)
                             * np.dtype(o.dtype).itemsize)
            elif isinstance(o, BundleRef):
                for c in o.columns:
                    add(c)
            elif isinstance(o, (tuple, list)):
                for x in o:
                    add(x)
            elif isinstance(o, dict):
                for v in o.values():
                    add(v)
        add(wire)
        return total

    # -- decode --------------------------------------------------------------

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """Cached attachment to a peer-owned slab (one mmap per name)."""
        seg = self._attached.get(name)
        if seg is None:
            seg = shared_memory.SharedMemory(name=name)
            _untrack(seg._name)
            self._attached[name] = seg
        return seg

    def decode(self, obj):
        """Decode a wire payload through the attachment cache."""
        return decode_payload(obj, self.attach)

    # -- lifetime ------------------------------------------------------------

    def release(self, names) -> None:
        """Return arena slabs to the pool (no-op on one-shot names)."""
        if self.arena is not None:
            for name in names:
                self.arena.release(name)

    def note_pickle(self, kind: str, nbytes: int) -> None:
        self.stats.note(kind, pickle_bytes=nbytes)

    def close(self) -> list[str]:
        """Drop peer attachments and unlink the own arena; returns the
        unlinked slab names."""
        for seg in self._attached.values():
            seg.close()
        self._attached.clear()
        if self.arena is not None:
            return self.arena.close()
        return []
