"""Shared-memory payload transport for the multiprocess backend.

Bulk numpy payloads are hoisted out of a post's pickle into POSIX shared
memory; layout, descriptors, the bounded attachment cache and untracked
ownership are :mod:`repro.shmem`'s.  Two codecs run through one walk:

**Pooled arena** (the default): each worker owns a :class:`ShmArena` of
size-classed slabs.  All ndarray leaves of one message — bundle columns
included — are packed into *one* slab and posted as :class:`SlabArrayRef`
descriptors once their combined size reaches the threshold (below it
they stay inline); a registered run input travels as an :class:`InputRef`
instead, never packed.  The collectives that only move values run on the
descriptors, and each member reads its result from its peers' slabs
itself.  A slab returns to its owner's free list once every reader has
acked it (``docs/runtime.md``, "Transport arena"); each arena unlinks what
it owns at close, and the parent sweeps — and logs — what a dead worker
left.

**Legacy one-shot** (``use_arena=False``, the transport gate's reference,
and the ``MSG_DONE`` carrier): one fresh segment per large array
(:class:`ShmArrayRef`).  Every member decodes every payload and the owner
unlinks once its readers acked; a ``MSG_DONE`` value's single reader, the
parent, unlinks it itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.bsp.arrays import ArrayBundle, concat_columns
from repro.bsp.comm import payload_words
from repro.graph.edgelist import EdgeList
from repro.shmem import (
    AttachCache,
    close_and_unlink,
    create_segment,
    fetch,
    pack,
    unlink_segments,
    view,
    walk,
)

__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "DEFAULT_MAX_RETAINED",
    "ShmArrayRef",
    "SlabArrayRef",
    "InputRef",
    "BundleRef",
    "ConcatRef",
    "ShmArena",
    "Transport",
    "TransportStats",
    "encode_payload",
    "decode_payload",
    "iter_refs",
]

#: Minimum payload-array bytes for the shared-memory path (64 KiB); also
#: the smallest arena slab size class.
DEFAULT_SHM_THRESHOLD = 1 << 16

#: Free-list retention bound per arena: released slabs beyond this many
#: bytes are unlinked instead of pooled (bounds the high-water mark).
DEFAULT_MAX_RETAINED = 32 << 20

#: Peer slabs a worker keeps mapped: it reads all p arenas, each with a
#: few slabs in rotation (past the cap: correct, slower).
_SLAB_ATTACH_CAP = 64


class _Described:
    """Sizes from a descriptor's ``shape``/``dtype``: what the members
    charge and trace a forwarded payload by without mapping it."""

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    def __bsp_words__(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class ShmArrayRef(_Described):
    """Wire descriptor of an ndarray in a one-shot segment (legacy)."""

    name: str
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class SlabArrayRef(_Described):
    """Wire descriptor of an ndarray packed into a pooled arena slab; the
    slab stays the sender's (readers attach, copy, never unlink)."""

    name: str
    offset: int
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class InputRef(_Described):
    """Wire descriptor of the run's ``key``-th input array: every member
    holds the same inputs under the same keys, and reads its own."""

    key: int
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class ConcatRef(_Described):
    """Wire form of a gathered column: the members' ``parts`` (slab or
    input refs, or small inline arrays) in local-rank order, with the
    ``shape`` and ``dtype`` ``np.concatenate`` gives them."""

    parts: tuple
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class BundleRef:
    """Wire form of an :class:`~repro.bsp.arrays.ArrayBundle`: per-column
    wire objects (refs or small inline arrays); ``counts`` rides inline."""

    columns: tuple
    counts: object

    def __bsp_words__(self) -> int:
        return sum(payload_words(c) for c in self.columns)

    @classmethod
    def concat(cls, bundles) -> "BundleRef":
        """:meth:`ArrayBundle.concat` on descriptors: no bytes move."""
        def join(parts):
            # Zero-row stand-ins get numpy's own alignment check (and its
            # message) and dtype promotion without touching the payload.
            like = np.concatenate(
                [np.empty((0, *p.shape[1:]), p.dtype) for p in parts])
            rows = sum(p.shape[0] for p in parts)
            return ConcatRef(tuple(parts), (rows, *like.shape[1:]),
                             like.dtype.str)

        return cls(*concat_columns(bundles, join))


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two slab size >= nbytes (floor 64 KiB)."""
    return 1 << max(16, int(nbytes - 1).bit_length())


_slab_size = operator.attrgetter("size")


def _packable(obj) -> bool:
    return (isinstance(obj, np.ndarray) and obj.nbytes > 0
            and not obj.dtype.hasobject)


def _on_arrays(fn):
    """Lift ``fn`` to a :func:`~repro.shmem.walk` leaf: applied to a bare
    leaf, or to each column of a bundle — whose local and wire forms
    (:class:`ArrayBundle`, :class:`BundleRef`) swap as it passes."""
    def leaf(obj):
        if isinstance(obj, ArrayBundle):
            return BundleRef(columns=tuple(fn(c) for c in obj.columns),
                             counts=obj.counts)
        if isinstance(obj, BundleRef):
            return ArrayBundle(*(fn(c) for c in obj.columns),
                               counts=obj.counts)
        return fn(obj)
    return leaf


# ---------------------------------------------------------------------------
# Legacy one-shot codec
# ---------------------------------------------------------------------------

def encode_payload(obj, threshold: int = DEFAULT_SHM_THRESHOLD,
                   create=create_segment):
    """Replace large ndarrays in ``obj`` with one-shot segment descriptors.

    Walks tuples, lists, dict values and :class:`ArrayBundle` columns (the
    shapes collectives move); everything else passes through to the pickle
    stream untouched.  ``create(size)`` makes each segment.
    """
    def stash(arr):
        if not (isinstance(arr, np.ndarray) and arr.nbytes >= threshold
                and not arr.dtype.hasobject):
            return arr
        seg, [(_, shape, dtype)] = pack([arr], create)
        seg.close()
        return ShmArrayRef(name=seg.name, shape=shape, dtype=dtype)

    return walk(obj, _on_arrays(stash))


def decode_payload(obj, attach=None, read=None, inputs=()):
    """Inverse of :func:`encode_payload` / :meth:`Transport.encode`.

    Slab refs are read through ``attach``, a callable ``name ->
    SharedMemory`` (the transport's cached attacher; only a wire without
    slab refs decodes without one), and left to their owner.  One-shot
    refs are copied out — and unlinked only without ``attach``, by the
    single reader a ``MSG_DONE`` value has.  An :class:`InputRef` is
    ``inputs[key]`` itself, and a gathered column of adjacent inputs a
    read-only view of them (:func:`_stretch`).  Every other array
    returned is a copy, and no view of a segment outlives the statement
    that made it: a cache eviction closes the mapping under it.
    ``read``, a list, collects the bytes copied out of each segment.
    """
    def slab(ref):
        if read is not None:
            read.append(ref.nbytes)
        return view(attach(ref.name).buf, ref.offset, ref.shape, ref.dtype)

    def load(ref):
        if isinstance(ref, ShmArrayRef):
            if read is not None:
                read.append(ref.nbytes)
            return fetch(ref.name, ref.shape, ref.dtype,
                         unlink=attach is None)
        if isinstance(ref, SlabArrayRef):
            return slab(ref).copy()
        if isinstance(ref, InputRef):
            return inputs[ref.key]
        if isinstance(ref, ConcatRef):
            if (whole := _stretch(ref, inputs)) is not None:
                return whole
            # One pass, peer slabs -> result; part by part, so no view is
            # held across the next attach.
            out = np.empty(ref.shape, ref.dtype)
            row = 0
            for part in ref.parts:
                stop = row + part.shape[0]
                out[row:stop] = (slab(part) if isinstance(part, SlabArrayRef)
                                 else load(part))
                row = stop
            return out
        return ref

    return walk(obj, _on_arrays(load))


def _stretch(ref: ConcatRef, inputs):
    """The column ``ref`` gathers as a read-only view when its parts are
    input refs to adjacent stretches of one array, else None."""
    if not all(isinstance(p, InputRef) for p in ref.parts):
        return None
    parts = [inputs[p.key] for p in ref.parts]
    first, end = parts[0], parts[0].__array_interface__["data"][0]
    for a in parts:
        if (a.base is None or a.base is not first.base
                or a.dtype != first.dtype or not a.flags.c_contiguous
                or a.__array_interface__["data"][0] != end):
            return None
        end += a.nbytes
    return np.lib.stride_tricks.as_strided(first, ref.shape, writeable=False)


def iter_refs(wire, cls=(ShmArrayRef, SlabArrayRef)) -> list:
    """The segment descriptors of an *encoded* wire object, in encode
    order — one-shot (:class:`ShmArrayRef`), slab (:class:`SlabArrayRef`)
    or, by default, both."""
    refs = []

    def leaf(obj):
        if isinstance(obj, (BundleRef, ConcatRef)):
            for c in obj.parts if isinstance(obj, ConcatRef) else obj.columns:
                leaf(c)
        elif isinstance(obj, cls):
            refs.append(obj)

    walk(wire, leaf)
    return refs


# ---------------------------------------------------------------------------
# Pooled arena
# ---------------------------------------------------------------------------

class ShmArena:
    """Sender-owned pool of size-classed shared-memory slabs.

    Slabs are power-of-two sized (>= 64 KiB), recycled through a best-fit
    free list, and unlinked eagerly once the pooled free bytes exceed
    ``max_retained`` (which bounds the high-water mark).  Not thread-safe;
    each worker owns one.  ``name_prefix`` makes names deterministic
    (``{prefix}{seq}``) so a killed worker's slabs can be swept by prefix.
    """

    def __init__(self, max_retained: int = DEFAULT_MAX_RETAINED,
                 name_prefix: str | None = None):
        self.max_retained = int(max_retained)
        self.name_prefix = name_prefix
        self._seq = 0
        self._segs: dict[str, shared_memory.SharedMemory] = {}  # all owned
        self._free: list[shared_memory.SharedMemory] = []  # oldest first
        self.created = 0       # fresh segments allocated (syscall path)
        self.reused = 0        # acquisitions served from the free list
        self.live_bytes = 0    # bytes across all owned slabs, right now
        self.high_water = 0    # max live_bytes ever

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A slab with capacity >= nbytes, recycled when possible.

        Best-fit: the smallest pooled class that can hold the request is
        reused (its most recently released slab), even if larger than the
        exact class — shrinking workloads (CC frontiers, contracting
        graphs) keep recycling their round-one slab on the way down.
        """
        cls = _size_class(nbytes)
        seg = min((s for s in reversed(self._free) if s.size >= cls),
                  key=_slab_size, default=None)
        if seg is not None:
            self._free.remove(seg)
            self.reused += 1
        else:
            seg = self.fresh(cls)
            self._segs[seg.name] = seg
            self.created += 1
            self.live_bytes += seg.size
            self.high_water = max(self.high_water, self.live_bytes)
        return seg

    def fresh(self, nbytes: int) -> shared_memory.SharedMemory:
        """A new segment under this arena's prefix, not (yet) pooled."""
        name = None
        if self.name_prefix is not None:
            name = f"{self.name_prefix}{self._seq}"
            self._seq += 1
        return create_segment(nbytes, name)

    def release(self, name: str) -> None:
        """Return a slab to the pool once its readers have all decoded it."""
        seg = self._segs.get(name)
        if seg is None or seg in self._free:
            return
        self._free.append(seg)
        # Evict largest classes first: frees the most bytes per unlink.
        while sum(map(_slab_size, self._free)) > self.max_retained:
            self._unlink(max(reversed(self._free), key=_slab_size))

    def _unlink(self, seg: shared_memory.SharedMemory) -> None:
        del self._segs[seg.name]
        if seg in self._free:
            self._free.remove(seg)
        self.live_bytes -= seg.size
        close_and_unlink(seg)

    def close(self) -> list[str]:
        """Unlink every owned slab; returns their names."""
        names = list(self._segs)
        for name in names:
            self._unlink(self._segs[name])
        return names


class TransportStats:
    """Per-collective-kind transport counters, mergeable across endpoints.

    Per message kind (collective kind, or ``"input"`` for the run's
    command): messages encoded, pickle bytes posted or sent, segments
    created vs reused, array bytes copied into segments (``bytes_copied``)
    and out of them (``bytes_read``).  ``high_water`` is the max over the
    contributing arenas' high-water marks.
    """

    _FIELDS = ("messages", "pickle_bytes", "segments_created",
               "segments_reused", "bytes_copied", "bytes_read")

    def __init__(self):
        self.kinds: dict[str, dict[str, int]] = {}
        self.high_water = 0

    def note(self, kind: str, **deltas) -> None:
        b = self.kinds.get(kind)
        if b is None:
            b = self.kinds[kind] = dict.fromkeys(self._FIELDS, 0)
        for f, d in deltas.items():
            b[f] += int(d)

    def merge(self, other: "TransportStats") -> None:
        for kind, b in other.kinds.items():
            self.note(kind, **b)
        self.high_water = max(self.high_water, other.high_water)

    def as_dict(self) -> dict:
        """JSON-ready snapshot: per-kind buckets plus totals."""
        return {
            "per_kind": {k: dict(v) for k, v in sorted(self.kinds.items())},
            "total": {f: sum(b[f] for b in self.kinds.values())
                      for f in self._FIELDS},
            "high_water_bytes": self.high_water,
        }


class Transport:
    """One endpoint's payload codec: arena + peer-attachment cache + stats.

    ``encode`` returns ``(wire, names)`` where ``names`` are the shm
    segments backing the message, to ``release()`` once every reader has
    acked them: arena slabs go back to the pool, legacy one-shots are
    unlinked.
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
        # Legacy mode only names one-shots (and oversized posts) by it.
        self.arena = ShmArena(max_retained, name_prefix=slab_prefix)
        self._attached = AttachCache(cap=_SLAB_ATTACH_CAP)
        self.stats = TransportStats()
        self._frozen = []
        self.register(())

    def register(self, args) -> None:
        """The run's inputs — the ndarrays and ``EdgeList`` columns of its
        arguments, alike on every member: a payload leaf that *is* one
        encodes (arena mode) as an :class:`InputRef`.  They turn
        read-only, so a reference never names data its sender changed —
        until the next ``register`` or :meth:`close` (the caller's own)."""
        for a in self._frozen:
            try:
                a.flags.writeable = True
            except ValueError:  # numpy's rule for an array unpickled
                pass            # from bytes: frozen once, frozen for good
        self.inputs = []
        walk(args, lambda x: self.inputs.extend(
            (x.u, x.v, x.w) if isinstance(x, EdgeList)
            else [x] if isinstance(x, np.ndarray) else ()))
        self._keys = {id(a): key for key, a in enumerate(self.inputs)}
        self._frozen = [a for a in self.inputs if a.flags.writeable]
        for a in self._frozen:
            a.flags.writeable = False

    def _input_ref(self, obj):
        key = self._keys.get(id(obj))
        return obj if key is None else InputRef(key, obj.shape, obj.dtype.str)

    def encode(self, obj, kind: str = "?"):
        """Encode one message's payload; returns ``(wire, segment_names)``."""
        if not self.use_arena:
            wire = encode_payload(obj, self.threshold, self.arena.fresh)
            refs = iter_refs(wire)
            self.stats.note(
                kind, messages=1, segments_created=len(refs),
                bytes_copied=sum(r.nbytes for r in refs),
            )
            return wire, [r.name for r in refs]

        # Pass one builds the below-threshold wire form (bundles travel as
        # BundleRefs, arrays inline) and collects the packable leaves.
        leaves: list[np.ndarray] = []

        def note(arr):
            arr = self._input_ref(arr)
            if _packable(arr):
                leaves.append(arr)
            return arr

        wire = walk(obj, _on_arrays(note))
        total = sum(a.nbytes for a in leaves)
        if total < self.threshold:
            self.stats.note(kind, messages=1)
            return wire, []

        # Pack every array leaf into ONE slab; pass two swaps each for its
        # descriptor (same traversal, so the same order).
        created0, reused0 = self.arena.created, self.arena.reused
        seg, layout = pack(leaves, self.arena.acquire)
        refs = (SlabArrayRef(seg.name, *entry) for entry in layout)

        def swap(arr):
            arr = self._input_ref(arr)
            return next(refs) if _packable(arr) else arr

        wire = walk(obj, _on_arrays(swap))
        self.stats.note(
            kind, messages=1, bytes_copied=total,
            segments_created=self.arena.created - created0,
            segments_reused=self.arena.reused - reused0,
        )
        self.stats.high_water = max(self.stats.high_water,
                                    self.arena.high_water)
        return wire, [seg.name]

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """The mapping of a slab: this arena's own, or a cached attachment
        to a peer's (one mmap per name)."""
        return self.arena._segs.get(name) or self._attached.attach(name)

    def decode(self, obj, kind: str = "?"):
        """Decode a wire payload through the attachment cache."""
        read: list[int] = []
        out = decode_payload(obj, self.attach, read, self.inputs)
        if read:
            self.stats.note(kind, bytes_read=sum(read))
        return out

    def release(self, names) -> None:
        """Return arena slabs to the pool; unlink one-shot segments."""
        for name in names:
            if name in self.arena._segs:
                self.arena.release(name)
            else:
                unlink_segments([name])

    def close(self) -> list[str]:
        """Drop peer attachments and unlink the own arena; returns the
        unlinked slab names."""
        self.register(())
        self._attached.clear()
        return self.arena.close()
