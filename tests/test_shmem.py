"""The shared-memory layer under the graph plane and the transport arena.

Three guarantees of :mod:`repro.shmem` and its two users:

* **Bounded attachment** — a receiver's cache of peer mappings never
  exceeds its cap however many slabs or graphs the peer cycles through (a
  mapping outlives its segment's unlink, so an unbounded cache is a leak),
  and a steady state that recycles one slab attaches exactly once.
* **Pinned wire format** — the pickled bytes of ``Transport.encode``
  output under both codecs, of a registered input's ``InputRef`` and of
  the plane's handles equal literals recorded from the commit that
  introduced each (the codecs' from before they shared one walk).
* **Round trip** — encode -> decode is the identity on nested payloads
  under both codecs, and ``iter_refs`` sees exactly the segments
  ``encode`` reported.
"""

import dataclasses
import hashlib
import itertools
import os
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.shmem as shmem
from repro.bsp.arrays import ArrayBundle
from repro.graph import EdgeList, erdos_renyi
from repro.graph import shm as plane
from repro.rng import philox_stream
from repro.runtime.transport import (
    _SLAB_ATTACH_CAP,
    ShmArrayRef,
    SlabArrayRef,
    Transport,
    iter_refs,
)


def _prefix(tag: str) -> str:
    return f"rsht{tag}{os.getpid():x}n"


# -- (a) the attach cache is bounded, and free in steady state ---------------

def test_receiver_attachments_stay_under_the_cap():
    """A sender whose retention bound makes it unlink and re-create slabs
    leaves a trail of dead names; the receiver must not keep them mapped."""
    tx = Transport(threshold=1 << 10, max_retained=1 << 20,
                   slab_prefix=_prefix("cap"))
    rx = Transport(threshold=1 << 10)
    try:
        for i in itertools.count():
            # 2 and 4 MiB classes, both above the retention bound: every
            # release unlinks the slab, every message creates a fresh one.
            payload = (np.full((1 + i % 2) << 18, i, dtype=np.int64),)
            wire, slabs = tx.encode(payload, "test")
            assert rx.decode(wire)[0][-1] == i
            tx.release(slabs)
            assert len(rx._attached) <= _SLAB_ATTACH_CAP
            if tx.arena.created > 2 * _SLAB_ATTACH_CAP:
                break
        assert tx.arena.live_bytes == 0  # the sender kept nothing either
    finally:
        rx.close()
        tx.close()


def test_recycled_slab_is_attached_once(monkeypatch):
    attached = []
    real = shmem.attach_segment
    monkeypatch.setattr(
        shmem, "attach_segment",
        lambda name: attached.append(name) or real(name))
    tx = Transport(threshold=1 << 10, slab_prefix=_prefix("one"))
    rx = Transport(threshold=1 << 10)
    try:
        for i in range(20):
            wire, slabs = tx.encode((np.full(40_000, i),), "test")
            assert rx.decode(wire)[0][0] == i
            tx.release(slabs)
        assert tx.arena.created == 1 and tx.arena.reused == 19
        assert attached == slabs
    finally:
        rx.close()
        tx.close()


def test_plane_attachments_share_the_cache_and_its_eviction_hook():
    """Worker-side resolution of more graphs than the cap: the LRU drops
    the mapping *and* everything derived from it, together."""
    plane.shutdown_plane()
    try:
        handles = []
        for seed in range(shmem.ATTACH_CAP + 3):
            g = erdos_renyi(200, 2000, philox_stream(seed), weighted=True)
            # A foreign fingerprint sends resolution down the worker path
            # (attach by segment name) inside the publisher process.
            handles.append(dataclasses.replace(
                plane.publish(g), fingerprint=f"foreign{seed}"))
        for h in handles:
            assert plane.SlicedHandle(h, 3).resolve()[0].n == 200
            assert plane.plane_stats()["attached"] <= shmem.ATTACH_CAP
        live = {h.segment for h in handles[-shmem.ATTACH_CAP:]}
        assert set(plane._VIEWS) == set(plane._ATTACHED.keys()) == live
        again = plane.SlicedHandle(handles[-1], 3).resolve()
        assert again is plane.SlicedHandle(handles[-1], 3).resolve()
    finally:
        plane.shutdown_plane()


# -- (b) wire format ----------------------------------------------------------

def _payload():
    """tuple > dict > list > bundle, bare arrays (strided, 2-D, empty,
    object dtype) and scalars — every shape the walk has a branch for."""
    big = np.arange(200, dtype=np.int64)
    return (
        7, "tag",
        {"b": [ArrayBundle(big, big * 0.5, np.arange(200) % 2 == 0,
                           counts=[120, 80]),
               big[::2], 2.5],
         "o": np.array([None, "x", 3], dtype=object),
         "e": np.zeros((0, 3))},
        [np.arange(3, dtype=np.int32), None],
        np.arange(12, dtype=np.float64).reshape(3, 4).T,
    )


def _same(a, b) -> bool:
    if isinstance(a, ArrayBundle):
        return (isinstance(b, ArrayBundle) and a == b
                and np.array_equal(a.counts, b.counts))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    return type(a) is type(b) and a == b


def _wire_cases(monkeypatch) -> dict[str, bytes]:
    """Pickles of every wire form, with segment names made deterministic."""
    seq = itertools.count()
    monkeypatch.setattr(shared_memory, "_make_filename",
                        lambda: f"/psm_pin{next(seq):04d}")
    cases = {}
    for label, kwargs in (
            ("arena", dict(threshold=1 << 8, slab_prefix="rshpin")),
            ("arena_inline", dict(threshold=1 << 20, slab_prefix="rshpin")),
            ("legacy", dict(threshold=1 << 8, use_arena=False))):
        tx, rx = Transport(**kwargs), Transport(**kwargs)
        try:
            wire, names = tx.encode(_payload(), "pin")
            cases[label] = pickle.dumps(wire, protocol=4)
            assert [r.name for r in iter_refs(wire)] == \
                names * (6 if label == "arena" else 1)
            assert _same(rx.decode(wire), _payload())
            tx.release(names)
        finally:
            rx.close()
            tx.close()
    # A registered run input travels as an InputRef: nothing packed, and
    # the receiver resolves it to its own copy under the same key.
    tx, rx = Transport(threshold=1 << 8), Transport(threshold=1 << 8)
    col = np.arange(200, dtype=np.int64)
    tx.register([np.ones(3), col])
    rx.register([np.ones(3), col.copy()])
    wire, names = tx.encode(col, "pin")
    cases["input"] = pickle.dumps(wire, protocol=4)
    assert names == [] and rx.decode(wire) is rx.inputs[1]
    monkeypatch.setattr(plane, "_segment_name", lambda: "rgplpinned00s000000")
    g = EdgeList(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]),
                 np.array([1.0, 2.0, 3.0, 4.5]))
    plane.shutdown_plane()
    try:
        handle = plane.publish(g)
        cases["handle"] = pickle.dumps(handle, protocol=4)
        cases["sliced"] = pickle.dumps(plane.SlicedHandle(handle, 3),
                                       protocol=4)
    finally:
        plane.shutdown_plane()
    return cases


#: Recorded when each case was added (numpy 2.x pickles its arrays through
#: ``numpy._core``; the inline-only case is long, so it is pinned by hash).
_WIRE = {
    "arena": (
        b'\x80\x04\x95\xb7\x02\x00\x00\x00\x00\x00\x00(K\x07\x8c\x03tag\x94}'
        b'\x94(\x8c\x01b\x94]\x94(\x8c\x17repro.runtime.transport\x94\x8c\tBun'
        b'dleRef\x94\x93\x94)\x81\x94}\x94(\x8c\x07columns\x94h\x04\x8c\x0cSla'
        b'bArrayRef\x94\x93\x94)\x81\x94}\x94(\x8c\x04name\x94\x8c\x07rshpin0'
        b'\x94\x8c\x06offset\x94K\x00\x8c\x05shape\x94K\xc8\x85\x94\x8c\x05dty'
        b'pe\x94\x8c\x03<i8\x94ubh\x0b)\x81\x94}\x94(h\x0e\x8c\x07rshpin0\x94h'
        b'\x10M@\x06h\x11K\xc8\x85\x94h\x13\x8c\x03<f8\x94ubh\x0b)\x81\x94}'
        b'\x94(h\x0e\x8c\x07rshpin0\x94h\x10M\x80\x0ch\x11K\xc8\x85\x94h\x13'
        b'\x8c\x03|b1\x94ub\x87\x94\x8c\x06counts\x94\x8c\x16numpy._core.multi'
        b'array\x94\x8c\x0c_reconstruct\x94\x93\x94\x8c\x05numpy\x94\x8c\x07nd'
        b'array\x94\x93\x94K\x00\x85\x94C\x01b\x94\x87\x94R\x94(K\x01K\x02\x85'
        b'\x94h$\x8c\x05dtype\x94\x93\x94\x8c\x02i8\x94\x89\x88\x87\x94R\x94(K'
        b'\x03\x8c\x01<\x94NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94b'
        b'\x89C\x10x\x00\x00\x00\x00\x00\x00\x00P\x00\x00\x00\x00\x00\x00\x00'
        b'\x94t\x94bubh\x0b)\x81\x94}\x94(h\x0e\x8c\x07rshpin0\x94h\x10M\x80\r'
        b'h\x11Kd\x85\x94h\x13\x8c\x03<i8\x94ubG@\x04\x00\x00\x00\x00\x00\x00e'
        b'\x8c\x01o\x94h#h&K\x00\x85\x94h(\x87\x94R\x94(K\x01K\x03\x85\x94h-'
        b'\x8c\x02O8\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01|\x94NNNJ\xff\xff'
        b'\xff\xffJ\xff\xff\xff\xffK?t\x94b\x89]\x94(N\x8c\x01x\x94K\x03et\x94'
        b'b\x8c\x01e\x94h#h&K\x00\x85\x94h(\x87\x94R\x94(K\x01K\x00K\x03\x86'
        b'\x94h-\x8c\x02f8\x94\x89\x88\x87\x94R\x94(K\x03h1NNNJ\xff\xff\xff'
        b'\xffJ\xff\xff\xff\xffK\x00t\x94b\x89C\x00\x94t\x94bu]\x94(h\x0b)\x81'
        b'\x94}\x94(h\x0e\x8c\x07rshpin0\x94h\x10M\xc0\x10h\x11K\x03\x85\x94h'
        b'\x13\x8c\x03<i4\x94ubNeh\x0b)\x81\x94}\x94(h\x0e\x8c\x07rshpin0\x94h'
        b'\x10M\x00\x11h\x11K\x04K\x03\x86\x94h\x13\x8c\x03<f8\x94ubt\x94.'
    ),
    "arena_inline":
        "52ccd66aed7639ac438197101782ee995132ee5a028f599ebd07f8141d73aed4",
    "legacy": (
        b'\x80\x04\x95\x04\x04\x00\x00\x00\x00\x00\x00(K\x07\x8c\x03tag\x94}'
        b'\x94(\x8c\x01b\x94]\x94(\x8c\x17repro.runtime.transport\x94\x8c\tBun'
        b'dleRef\x94\x93\x94)\x81\x94}\x94(\x8c\x07columns\x94h\x04\x8c\x0bShm'
        b'ArrayRef\x94\x93\x94)\x81\x94}\x94(\x8c\x04name\x94\x8c\x0bpsm_pin00'
        b'00\x94\x8c\x05shape\x94K\xc8\x85\x94\x8c\x05dtype\x94\x8c\x03<i8\x94'
        b'ubh\x0b)\x81\x94}\x94(h\x0e\x8c\x0bpsm_pin0001\x94h\x10K\xc8\x85\x94'
        b'h\x12\x8c\x03<f8\x94ub\x8c\x16numpy._core.multiarray\x94\x8c\x0c_rec'
        b'onstruct\x94\x93\x94\x8c\x05numpy\x94\x8c\x07ndarray\x94\x93\x94K'
        b'\x00\x85\x94C\x01b\x94\x87\x94R\x94(K\x01K\xc8\x85\x94h\x1c\x8c\x05d'
        b'type\x94\x93\x94\x8c\x02b1\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01|'
        b'\x94NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94b\x89C\xc8\x01'
        b'\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00'
        b'\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01'
        b'\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00'
        b'\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01'
        b'\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00'
        b'\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01'
        b'\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00'
        b'\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01'
        b'\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00'
        b'\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01'
        b'\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00'
        b'\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x94t\x94b\x87\x94'
        b'\x8c\x06counts\x94h\x1bh\x1eK\x00\x85\x94h \x87\x94R\x94(K\x01K\x02'
        b'\x85\x94h%\x8c\x02i8\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01<\x94NNNJ'
        b'\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94b\x89C\x10x\x00\x00\x00'
        b'\x00\x00\x00\x00P\x00\x00\x00\x00\x00\x00\x00\x94t\x94bubh\x0b)\x81'
        b'\x94}\x94(h\x0e\x8c\x0bpsm_pin0002\x94h\x10Kd\x85\x94h\x12\x8c\x03<i'
        b'8\x94ubG@\x04\x00\x00\x00\x00\x00\x00e\x8c\x01o\x94h\x1bh\x1eK\x00'
        b'\x85\x94h \x87\x94R\x94(K\x01K\x03\x85\x94h%\x8c\x02O8\x94\x89\x88'
        b'\x87\x94R\x94(K\x03h)NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK?t\x94b'
        b'\x89]\x94(N\x8c\x01x\x94K\x03et\x94b\x8c\x01e\x94h\x1bh\x1eK\x00\x85'
        b'\x94h \x87\x94R\x94(K\x01K\x00K\x03\x86\x94h%\x8c\x02f8\x94\x89\x88'
        b'\x87\x94R\x94(K\x03h6NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94'
        b'b\x89C\x00\x94t\x94bu]\x94(h\x1bh\x1eK\x00\x85\x94h \x87\x94R\x94(K'
        b'\x01K\x03\x85\x94h%\x8c\x02i4\x94\x89\x88\x87\x94R\x94(K\x03h6NNNJ'
        b'\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94b\x89C\x0c\x00\x00\x00'
        b'\x00\x01\x00\x00\x00\x02\x00\x00\x00\x94t\x94bNeh\x1bh\x1eK\x00\x85'
        b'\x94h \x87\x94R\x94(K\x01K\x04K\x03\x86\x94hR\x88C`\x00\x00\x00\x00'
        b'\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00'
        b'\x00\x00@\x00\x00\x00\x00\x00\x00\x08@\x00\x00\x00\x00\x00\x00\x10@'
        b'\x00\x00\x00\x00\x00\x00\x14@\x00\x00\x00\x00\x00\x00\x18@\x00\x00'
        b'\x00\x00\x00\x00\x1c@\x00\x00\x00\x00\x00\x00 @\x00\x00\x00\x00\x00'
        b'\x00"@\x00\x00\x00\x00\x00\x00$@\x00\x00\x00\x00\x00\x00&@\x94t\x94b'
        b't\x94.'
    ),
    "input": (
        b'\x80\x04\x95R\x00\x00\x00\x00\x00\x00\x00\x8c\x17repro.runtime.transport'
        b'\x94\x8c\x08InputRef\x94\x93\x94)\x81\x94}\x94(\x8c\x03key\x94K\x01\x8c'
        b'\x05shape\x94K\xc8\x85\x94\x8c\x05dtype\x94\x8c\x03<i8\x94ub.'
    ),
    "handle": (
        b'\x80\x04\x95\xd7\x00\x00\x00\x00\x00\x00\x00\x8c\x0frepro.graph.shm'
        b'\x94\x8c\x0bGraphHandle\x94\x93\x94)\x81\x94}\x94(\x8c\x0bfingerprin'
        b't\x94\x8c@6381a3ca4dc7f9f660b3f0edbc7a195aab92499b6dad984cd3713d7cdb'
        b'd32c50\x94\x8c\x01n\x94K\x05\x8c\x01m\x94K\x04\x8c\x07segment\x94'
        b'\x8c\x13rgplpinned00s000000\x94\x8c\x07offsets\x94K\x00K@K\x80\x87'
        b'\x94\x8c\x06dtypes\x94\x8c\x03<i8\x94\x8c\x03<i8\x94\x8c\x03<f8\x94'
        b'\x87\x94ub.'
    ),
    "sliced": (
        b'\x80\x04\x95\x01\x01\x00\x00\x00\x00\x00\x00\x8c\x0frepro.graph.shm'
        b'\x94\x8c\x0cSlicedHandle\x94\x93\x94)\x81\x94}\x94(\x8c\x06handle'
        b'\x94h\x00\x8c\x0bGraphHandle\x94\x93\x94)\x81\x94}\x94(\x8c\x0bfinge'
        b'rprint\x94\x8c@6381a3ca4dc7f9f660b3f0edbc7a195aab92499b6dad984cd3713'
        b'd7cdbd32c50\x94\x8c\x01n\x94K\x05\x8c\x01m\x94K\x04\x8c\x07segment'
        b'\x94\x8c\x13rgplpinned00s000000\x94\x8c\x07offsets\x94K\x00K@K\x80'
        b'\x87\x94\x8c\x06dtypes\x94\x8c\x03<i8\x94\x8c\x03<i8\x94\x8c\x03<f8'
        b'\x94\x87\x94ub\x8c\x01p\x94K\x03ub.'
    ),
}


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="literals hold numpy>=2 array pickles")
def test_wire_bytes_match_the_parent_commit(monkeypatch):
    cases = _wire_cases(monkeypatch)
    cases["arena_inline"] = hashlib.sha256(cases["arena_inline"]).hexdigest()
    assert cases == _WIRE


# -- (c) round trip -----------------------------------------------------------

_arrays = st.builds(
    lambda n, dtype, step: np.arange(n * step).astype(dtype)[::step],
    st.integers(0, 300), st.sampled_from([np.int64, np.float64, np.bool_]),
    st.integers(1, 3))
_bundles = st.builds(
    lambda n, k: ArrayBundle(*(np.arange(n) * (j + 1.5) for j in range(k)),
                             counts=[n]),
    st.integers(1, 300), st.integers(1, 3))
_leaves = st.one_of(
    st.none(), st.integers(-5, 5), st.text(max_size=3), _arrays, _bundles,
    st.just(np.array(["s", None], dtype=object)))
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=8)


@given(_payloads, st.booleans(), st.sampled_from([1, 1 << 9, 1 << 30]))
@settings(max_examples=60, deadline=None)
def test_encode_decode_round_trip(payload, use_arena, threshold):
    tx = Transport(threshold=threshold, use_arena=use_arena,
                   slab_prefix=_prefix("rt") if use_arena else None)
    rx = Transport(threshold=threshold, use_arena=use_arena)
    try:
        wire, names = tx.encode(payload, "rt")
        pickle.dumps(wire)  # what crosses the pipe must pickle
        refs = iter_refs(wire)
        assert all(isinstance(r, SlabArrayRef if use_arena else ShmArrayRef)
                   for r in refs)
        if use_arena:
            assert {r.name for r in refs} == set(names)
        else:
            assert [r.name for r in refs] == names
        assert _same(rx.decode(wire), payload)
        tx.release(names)
    finally:
        rx.close()
        tx.close()
