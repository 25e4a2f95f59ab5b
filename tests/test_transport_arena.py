"""Pooled shared-memory arena transport: slab recycling, lifetime, leaks.

The arena's contract is amortized O(1) segment syscalls per collective:
one slab per message, recycled through size-classed free lists, with a
bounded high-water mark and nothing left in /dev/shm after close.  These
tests pin that contract at three levels — ShmArena alone, a Transport
encode/decode round trip, and a full MpBackend run checked against the
OS segment namespace.
"""

import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.bsp.arrays import ArrayBundle
from repro.runtime.transport import (
    ShmArena,
    SlabArrayRef,
    Transport,
    _size_class,
    decode_payload,
    encode_payload,
    iter_refs,
)
from repro.shmem import unlink_segments
from repro.trace import RecordingTracer
from tests.conftest import require_mp


def _shm_names() -> set:
    """Everything now in the OS shm namespace (POSIX only): callers diff it
    before/after, so kernel-random ``psm_`` one-shots, prefixed ``rsh``
    pool slabs and ``rgpl`` plane segments are all covered."""
    return set(os.listdir("/dev/shm"))


needs_dev_shm = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs /dev/shm"
)


class TestSizeClasses:
    def test_floor_is_64k(self):
        assert _size_class(1) == 1 << 16
        assert _size_class(1 << 16) == 1 << 16

    def test_next_pow2(self):
        assert _size_class((1 << 16) + 1) == 1 << 17
        assert _size_class(3 << 20) == 4 << 20


class TestShmArena:
    def test_reuse_after_release(self):
        arena = ShmArena()
        try:
            seg = arena.acquire(100_000)
            name = seg.name
            arena.release(name)
            again = arena.acquire(90_000)  # same 128 KiB class
            assert again.name == name
            assert arena.created == 1 and arena.reused == 1
        finally:
            arena.close()

    def test_best_fit_serves_small_from_larger_class(self):
        # Shrinking workloads must keep recycling their round-one slab.
        arena = ShmArena()
        try:
            big = arena.acquire(1 << 20)
            arena.release(big.name)
            small = arena.acquire(1000)
            assert small.name == big.name
            assert arena.created == 1 and arena.reused == 1
        finally:
            arena.close()

    def test_distinct_classes_do_not_alias(self):
        arena = ShmArena()
        try:
            small = arena.acquire(1000)
            arena.release(small.name)
            big = arena.acquire(1 << 20)
            assert big.name != small.name
            assert arena.created == 2 and arena.reused == 0
        finally:
            arena.close()

    def test_concurrent_acquires_get_distinct_slabs(self):
        arena = ShmArena()
        try:
            a = arena.acquire(1000)
            b = arena.acquire(1000)  # a still in use: must not alias
            assert a.name != b.name
        finally:
            arena.close()

    def test_high_water_tracks_peak(self):
        arena = ShmArena()
        try:
            arena.acquire(1000)
            arena.acquire(1000)
            assert arena.high_water == 2 * (1 << 16)
            assert arena.live_bytes == arena.high_water
        finally:
            arena.close()

    @needs_dev_shm
    def test_max_retained_evicts(self):
        arena = ShmArena(max_retained=0)
        try:
            seg = arena.acquire(1000)
            name = seg.name
            assert name in _shm_names()
            arena.release(name)  # retention bound 0: unlinked immediately
            assert name not in _shm_names()
            assert arena.live_bytes == 0
        finally:
            arena.close()

    @needs_dev_shm
    def test_close_unlinks_everything(self):
        arena = ShmArena()
        a = arena.acquire(1000)
        b = arena.acquire(1 << 20)
        arena.release(a.name)
        names = set(arena.close())
        assert names == {a.name, b.name}
        assert not (names & _shm_names())


class TestTransportArena:
    def _round_trip(self, tx, rx, payload):
        wire, slabs = tx.encode(payload, "test")
        out = rx.decode(wire)
        tx.release(slabs)
        return out, slabs

    def test_bundle_packs_into_one_slab(self):
        tx, rx = Transport(threshold=1 << 10), Transport(threshold=1 << 10)
        try:
            b = ArrayBundle(np.arange(50_000, dtype=np.int64),
                            np.ones(50_000), np.zeros(50_000, dtype=bool),
                            counts=np.array([20_000, 30_000]))
            out, slabs = self._round_trip(tx, rx, b)
            assert len(slabs) == 1  # three columns, one segment
            assert out == b
            assert np.array_equal(out.counts, b.counts)
            assert tx.arena.created == 1
        finally:
            tx.close()
            rx.close()

    def test_slab_reused_across_messages(self):
        tx, rx = Transport(threshold=1 << 10), Transport(threshold=1 << 10)
        try:
            for i in range(5):
                payload = (np.full(40_000, i, dtype=np.int64),)
                out, _ = self._round_trip(tx, rx, payload)
                assert np.array_equal(out[0], payload[0])
            assert tx.arena.created == 1
            assert tx.arena.reused == 4
        finally:
            tx.close()
            rx.close()

    def test_below_threshold_stays_inline(self):
        tx = Transport(threshold=1 << 20)
        try:
            b = ArrayBundle(np.arange(100), np.ones(100))
            wire, slabs = tx.encode(b, "small")
            assert slabs == []
            assert iter_refs(wire, SlabArrayRef) == []
            out = decode_payload(wire)  # no attach needed: all inline
            assert out == b
        finally:
            tx.close()

    def test_mixed_dtypes_preserved(self):
        tx, rx = Transport(threshold=1 << 10), Transport(threshold=1 << 10)
        try:
            payload = [np.arange(30_000, dtype=np.int64),
                       (np.ones(30_000, dtype=np.float64),
                        np.zeros(30_000, dtype=bool))]
            out, _ = self._round_trip(tx, rx, payload)
            assert out[0].dtype == np.int64
            assert out[1][0].dtype == np.float64
            assert out[1][1].dtype == np.bool_
        finally:
            tx.close()
            rx.close()

    def test_stats_per_kind(self):
        tx = Transport(threshold=1 << 10)
        try:
            tx.encode((np.arange(30_000),), "gatherv")
            tx.encode((np.arange(8),), "barrier")
            d = tx.stats.as_dict()
            assert d["per_kind"]["gatherv"]["segments_created"] == 1
            assert d["per_kind"]["gatherv"]["bytes_copied"] == 30_000 * 8
            assert d["per_kind"]["barrier"]["segments_created"] == 0
            assert d["total"]["messages"] == 2
        finally:
            tx.close()

    @needs_dev_shm
    def test_close_leaves_no_segments(self):
        before = _shm_names()
        tx, rx = Transport(threshold=1 << 10), Transport(threshold=1 << 10)
        out, _ = self._round_trip(tx, rx, (np.arange(40_000),))
        tx.close()
        rx.close()
        assert np.array_equal(out[0], np.arange(40_000))
        assert _shm_names() <= before


class TestLegacyCodec:
    def test_bundle_ref_round_trip(self):
        b = ArrayBundle(np.arange(20_000, dtype=np.int64), np.ones(20_000),
                        counts=np.array([20_000]))
        wire = encode_payload(b, threshold=1 << 10)
        out = decode_payload(wire)
        assert out == b
        assert np.array_equal(out.counts, b.counts)

    @needs_dev_shm
    def test_unlink_segments_reports_reclaimed(self):
        wire = encode_payload(np.arange(20_000), threshold=1 << 10)
        name = wire.name
        assert unlink_segments([name, "psm_no_such_segment"]) == [name]
        assert unlink_segments([name]) == []  # already gone

    @needs_dev_shm
    def test_unlink_segments_reclaims_a_half_created_segment(self):
        """A worker killed between ``shm_open`` and ``ftruncate`` leaves a
        zero-length file that cannot be mapped; the sweep unlinks by name."""
        name = f"rshtestempty{os.getpid()}"
        path = os.path.join("/dev/shm", name)
        open(path, "xb").close()
        try:
            assert unlink_segments([name]) == [name]
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)


def _rounds_program(ctx, n, rounds):
    """Constant-size multi-column collectives repeated ``rounds`` times —
    the steady-state shape the pool is built for: after round one every
    slab acquisition should hit the free list."""
    total = 0.0
    size = ctx.comm.size
    for _ in range(rounds):
        u = np.arange(n, dtype=np.int64) + ctx.rank
        w = np.ones(n)
        parcels = [(u[j::size], w[j::size]) for j in range(size)]
        ex = yield from ctx.comm.alltoallv(parcels)
        ag = yield from ctx.comm.allgatherv(u, w)
        total += float(ex[1].sum()) + float(ag[0].sum())
    return total


@needs_dev_shm
class TestMpEndToEnd:
    def _run(self, **backend_kwargs):
        from repro.runtime.mp import MpBackend

        backend = MpBackend(timeout=180.0, shm_threshold=1 << 12,
                            **backend_kwargs)
        res = backend.run(_rounds_program, 2, seed=3, args=(20_000, 6))
        return res, backend

    def test_no_leaked_segments_and_slab_reuse(self):
        require_mp()
        before = _shm_names()
        res, backend = self._run()
        assert _shm_names() <= before  # nothing left behind
        stats = backend.last_transport_stats
        assert stats is not None
        total = stats["total"]
        # Steady-state rounds: only round one allocates, the rest recycle.
        assert total["segments_reused"] > total["segments_created"]
        assert stats["high_water_bytes"] > 0

    def test_arena_beats_legacy_on_segment_allocations(self):
        require_mp()
        res_pooled, pooled = self._run()
        res_legacy, legacy = self._run(use_arena=False)
        assert res_pooled.values == res_legacy.values
        created_pooled = pooled.last_transport_stats["total"]["segments_created"]
        created_legacy = legacy.last_transport_stats["total"]["segments_created"]
        assert created_legacy >= 2 * max(created_pooled, 1)


# --- forwarded descriptors: a slab is lent to peers, not read in place ------

def _lend_then_churn_program(ctx, n, rounds):
    """Every rank lends the root a gatherv slab, then churns through
    same-size-class slabs in a singleton group the root is no part of."""
    own = yield from ctx.comm.split(ctx.rank)
    cols = (np.full(n, ctx.rank + 1, dtype=np.int64),
            np.full(n, 0.5 * (ctx.rank + 1)))
    got = yield from ctx.comm.gatherv(*cols, root=0)
    total = 0
    for i in range(rounds):
        x = yield from own.allgatherv(cols[0] + i, cols[1])
        total += int(x[0].sum())
    return total, got and [c.tolist() for c in (*got, got.counts)]


def _forwarding_program(ctx, n, rounds):
    """Forwarded kinds in a loop: every slab is lent to every rank."""
    total = 0.0
    for i in range(rounds):
        u = np.arange(n, dtype=np.int64) * (ctx.rank + 1) + i
        ag = yield from ctx.comm.allgatherv(u, u / 2.0)
        root = i % ctx.comm.size
        top = yield from ctx.comm.bcast(ag[1] if ctx.rank == root else None,
                                       root=root)
        parts = yield from ctx.comm.allgather(u[:n // 2])
        got = yield from ctx.comm.gatherv(u, u * 0.25, root=root)
        total += float(ag[0].sum() + top.sum() + sum(x.sum() for x in parts))
        total += float(got[1].sum()) if got else 0.0
    return total


def _pool_bytes(backend) -> int:
    """Bytes the pool's worker arenas hold right now, read off the OS."""
    token = backend._pool.slab_token
    return sum(os.stat(os.path.join("/dev/shm", name)).st_size
               for name in os.listdir("/dev/shm") if name.startswith(token))


@needs_dev_shm
class TestForwardedSlabLifetime:
    def test_lent_slab_is_not_recycled_while_its_reader_is_silent(self):
        """'Free at the owner's next reply' is not enough: after a split,
        owner and reader need not share their next collective."""
        require_mp()
        from repro.faults import FaultSpec
        from repro.runtime.mp import MpBackend
        from repro.runtime.sim import SimBackend

        args = (30_000, 8)
        backend = MpBackend(timeout=180.0, shm_threshold=1 << 12)
        # The root goes quiet after the gatherv, before its next request.
        res = backend.run(_lend_then_churn_program, 2, args=args, faults=[
            FaultSpec("stall", rank=0, step=2, seconds=0.5)])
        assert res.values == SimBackend().run(
            _lend_then_churn_program, 2, args=args).values
        # Rank 1 could not reuse the slab rank 0 had yet to prove it read.
        stats = backend.last_transport_stats["per_kind"]
        assert stats["allgatherv"]["segments_created"] >= 1

    def test_slab_lent_to_every_rank_returns_to_the_pool_once(self):
        require_mp()
        from repro.runtime.sim import SimBackend
        from repro.runtime.warm import WarmMpBackend

        args = (20_000, 3)
        want = SimBackend().run(_forwarding_program, 3, args=args).values
        before = _shm_names()
        with WarmMpBackend(timeout=180.0, shm_threshold=1 << 12) as backend:
            assert backend.run(_forwarding_program, 3, args=args).values == want
            held = _pool_bytes(backend)
            for _ in range(20):
                res = backend.run(_forwarding_program, 3, args=args)
                assert res.values == want
                assert _pool_bytes(backend) == held
                total = backend.last_transport_stats["total"]
                assert total["segments_created"] == 0
        assert _shm_names() <= before

    def test_attach_cap_below_the_group_size_is_only_slower(self, monkeypatch):
        require_mp()
        from repro.runtime import transport
        from repro.runtime.mp import MpBackend
        from repro.runtime.sim import SimBackend

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched cap reaches the workers by fork")
        monkeypatch.setattr(transport, "_SLAB_ATTACH_CAP", 2)
        args = (20_000, 3)
        res = MpBackend(timeout=180.0, shm_threshold=1 << 12,
                        start_method="fork").run(
            _forwarding_program, 4, args=args)
        assert res.values == SimBackend().run(
            _forwarding_program, 4, args=args).values

    def test_crash_after_lending_names_the_superstep_and_leaks_nothing(self):
        require_mp()
        from repro.faults import FaultSpec
        from repro.runtime.errors import WorkerCrashError
        from repro.runtime.mp import MpBackend

        before = _shm_names()
        with pytest.raises(WorkerCrashError) as err:
            MpBackend(timeout=180.0, shm_threshold=1 << 12).run(
                _lend_then_churn_program, 2, args=(30_000, 4),
                faults=[FaultSpec("crash", rank=1, step=2)])
        assert err.value.rank == 1 and err.value.superstep == 2
        assert _shm_names() - before == set()


@needs_dev_shm
def test_traced_cc_copies_each_gathered_byte_once_per_side():
    """``bytes_copied`` is the encode side only; ``bytes_read`` is the
    decode side.  Forwarded, a gathered payload is packed by its sender and
    read by its receiver — the coordinator adds no copy of either kind."""
    require_mp()
    from repro.core.components import connected_components
    from repro.graph import erdos_renyi
    from repro.rng import philox_stream
    from repro.runtime.mp import MpBackend

    g = erdos_renyi(4000, 80_000, philox_stream(5))
    backend = MpBackend(timeout=180.0, shm_threshold=1 << 12,
                        tracer=RecordingTracer())
    connected_components(g, p=2, seed=5, backend=backend)
    events = backend.tracer.events()
    payload = 8 * sum(ev.words for ev in events if ev.kind == "gatherv")
    assert payload > 1 << 16
    stats = backend.last_transport_stats["per_kind"]["gatherv"]
    assert stats["bytes_copied"] <= 1.1 * payload
    assert stats["bytes_copied"] + stats["bytes_read"] <= 2.2 * payload
