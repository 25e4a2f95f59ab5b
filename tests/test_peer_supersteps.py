"""Peer-to-peer supersteps: a collective is settled among its group's own
members, so the parent carries no per-superstep traffic and split
subgroups progress independently — bit-identical to the simulator."""

import multiprocessing
import operator
import os
import time

import numpy as np
import pytest

from repro.faults import FaultSpec
from repro.runtime import MpBackend, SimBackend, WarmMpBackend
from repro.trace import RecordingTracer
from tests.conftest import require_mp
from tests.test_trace_backends import strip_wall


def allreduce_loop(ctx, k):
    total = 0
    for _ in range(k):
        total = yield from ctx.comm.allreduce(total + 1, op=operator.add)
    return total


def split_program(ctx, stamp=False):
    """Subgroups of unequal collective counts, a rooted collective whose
    root is not local rank 0, two back-to-back collectives, then the world
    again.
    ``stamp`` returns when this rank finished its subgroup collectives."""
    comm = ctx.comm
    color = ctx.rank % 2
    sub = yield from comm.split(color, -ctx.rank)  # members in reverse
    x = float(ctx.rank + 1)
    for i in range(2 + 3 * color):
        ctx.charge(ops=10.0 * (ctx.rank + i))
        x = yield from sub.allreduce(x * (i + 1), op=operator.add)
    root = sub.size - 1
    arr = yield from sub.bcast(np.arange(6) * x if sub.rank == root else None,
                               root=root)
    got = yield from sub.gather(ctx.rank, root=root)
    a = yield from sub.allreduce(np.full(3, x), op=operator.add)
    b = yield from sub.allgather(ctx.rank * 2)
    done = time.monotonic()
    total = yield from comm.allreduce(float(a.sum()), op=operator.add)
    out = [sub.group.members, x, arr.tolist(), got, a.tolist(), b, total]
    return out + [done] if stamp else out


def _backend(name, fuse=None):
    if name == "spawn" and "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("no spawn on this platform")
    cls = WarmMpBackend if name == "warm" else MpBackend
    return cls(tracer=RecordingTracer(), timeout=180.0, fuse=fuse,
               **({"start_method": "spawn"} if name == "spawn" else {}))


@pytest.mark.parametrize("p", [2, 3])
def test_parent_carries_no_per_superstep_traffic(p, monkeypatch):
    """Whatever the collective count, a warm run is p commands out of the
    parent's pipes and p ``MSG_DONE`` in."""
    require_mp()
    from multiprocessing.connection import Connection

    parent = os.getpid()
    counts = {"sent": 0, "read": 0}
    send, recv = Connection._send_bytes, Connection._recv_bytes

    def counted_send(self, buf):
        counts["sent"] += os.getpid() == parent
        return send(self, buf)

    def counted_recv(self, *args):
        counts["read"] += os.getpid() == parent
        return recv(self, *args)

    with WarmMpBackend(timeout=120.0) as warm:
        warm.run(allreduce_loop, p, args=(1,))  # the pool exists first
        monkeypatch.setattr(Connection, "_send_bytes", counted_send)
        monkeypatch.setattr(Connection, "_recv_bytes", counted_recv)
        for k in (1, 41):
            counts.update(sent=0, read=0)
            values = warm.run(allreduce_loop, p, args=(k,)).values
            assert counts == {"sent": p, "read": p}, (k, counts)
            assert values == SimBackend().run(allreduce_loop, p,
                                              args=(k,)).values


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("name", ["fork", "spawn", "warm"])
def test_subgroups_bit_identical_to_sim(p, name):
    require_mp()
    backend, sim = _backend(name), SimBackend(tracer=RecordingTracer())
    try:
        for _ in range(2 if name == "warm" else 1):  # one tracer, two runs
            want, got = (b.run(split_program, p, seed=5)
                         for b in (sim, backend))
            assert got.values == want.values
            assert got.report == want.report
            assert strip_wall(got.trace) == strip_wall(want.trace)
    finally:
        getattr(backend, "close", lambda: None)()
    assert any(len(ev.participants) < p for ev in want.trace)


@pytest.mark.parametrize("name", ["fork", "warm"])
def test_fused_subgroups_bit_identical_to_sim(name):
    """The same under ``fuse=True``: a subgroup's back-to-back collectives
    share one superstep, identically among peers and on the simulator."""
    require_mp()
    backend = _backend(name, fuse=True)
    try:
        got = backend.run(split_program, 4, seed=5)
    finally:
        getattr(backend, "close", lambda: None)()
    want = SimBackend(tracer=RecordingTracer(), fuse=True).run(
        split_program, 4, seed=5)
    assert got.values == want.values
    assert got.report == want.report
    assert strip_wall(got.trace) == strip_wall(want.trace)
    assert any(ev.fused[-2:] == ("allreduce", "allgather")
               for ev in want.trace)
    assert want.report.supersteps < SimBackend().run(
        split_program, 4, seed=5).report.supersteps


@pytest.mark.parametrize("name", ["fork", "warm"])
def test_stalled_subgroup_does_not_hold_up_the_other(name):
    """Rank 1 stalls before its second subgroup collective; ranks 0 and 2
    finish all of theirs meanwhile, and only the world collective waits."""
    require_mp()
    backend = _backend(name)
    try:
        backend.run(split_program, 4, seed=5)  # a warm pool is up first
        stall = [FaultSpec("stall", rank=1, step=2, seconds=2.0)]
        t0 = time.monotonic()
        res = backend.run(split_program, 4, seed=5, kwargs={"stamp": True},
                          faults=stall)
    finally:
        getattr(backend, "close", lambda: None)()
    done = [values[-1] - t0 for values in res.values]
    assert done[0] < 1.0 and done[2] < 1.0, done
    assert done[1] >= 2.0 and done[3] >= 2.0, done
    sim = SimBackend().run(split_program, 4, seed=5)
    assert [v[:-1] for v in res.values] == sim.values


def big_object_program(ctx, n):
    """Posts larger than a control-block slot: a long Python list rides
    an arena slab (or, legacy, a one-shot segment) instead."""
    got = yield from ctx.comm.allgather(list(range(ctx.rank, n + ctx.rank)))
    total = yield from ctx.comm.allreduce(sum(map(sum, got)), op=operator.add)
    return total, len(got[-1])


@pytest.mark.parametrize("use_arena", [True, False])
def test_oversized_posts_round_trip(use_arena):
    require_mp()
    want = SimBackend().run(big_object_program, 3, args=(60_000,))
    before = set(os.listdir("/dev/shm"))
    got = MpBackend(timeout=180.0, use_arena=use_arena).run(
        big_object_program, 3, args=(60_000,))
    assert got.values == want.values and got.report == want.report
    assert set(os.listdir("/dev/shm")) - before == set()


class _HookedWords:
    """A control block's word array that calls ``hook`` after each store."""

    def __init__(self, w, hook):
        self.w, self.hook = w, hook

    def __getitem__(self, i):
        return self.w[i]

    def __setitem__(self, i, value):
        self.w[i] = value
        self.hook()


class _Posted(Exception):
    """Raised instead of waiting: the post is in its slot."""


def test_a_rank_starting_a_run_never_reads_as_terminated():
    """Between any two of the stores ``Peers.begin`` makes, a peer that
    already waits on a collective must not see the new run paired with
    the last run's DONE — its deadlock check would call the starting rank
    terminated.  Both ranks live in this process on one p = 2 control
    block; the waiting rank checks after every store of the other."""
    import threading

    from repro.bsp.comm import Communicator
    from repro.bsp.counters import ProcCounters
    from repro.bsp.engine import Engine
    from repro.bsp.errors import DeadlockError
    from repro.cache.model import CacheParams
    from repro.runtime.worker import ControlBlock, Peers, WorkerSpec, _post
    from repro.shmem import create_segment, unlink_segments

    p = 2
    seg = create_segment(ControlBlock.nbytes(p))
    bells = [threading.Semaphore(0) for _ in range(p)]
    peers = [Peers(WorkerSpec(rank=r, p=p, cache=CacheParams(),
                              shm_threshold=1 << 20, block=seg.name), bells)
             for r in range(p)]
    real = peers[0].block.w
    try:
        for peer in peers:  # a first run, finished by both ranks
            peer.begin(None)
            peer.finish()
        engine = Engine()
        world = engine._begin_run(p)
        peers[1].begin(engine)
        op = next(Communicator(world, 1).allreduce(1, operator.add))
        buf = _post(op, op.payload, ProcCounters(), engine, None)

        def posted(*_args):
            raise _Posted

        peers[1]._wait = posted
        with pytest.raises(_Posted):
            peers[1].exchange(world, 1, buf, [], (0,))

        seen = []

        def check():
            try:
                peers[1]._check_deadlock(world)
                seen.append(None)
            except DeadlockError as exc:
                seen.append(str(exc))

        peers[0].block.w = _HookedWords(real, check)
        peers[0].begin(Engine())
        assert len(seen) >= 3 and seen == [None] * len(seen), seen
        peers[0].finish()  # now rank 0 has terminated: the check fires
        with pytest.raises(DeadlockError, match=r"\[0\] already terminated"):
            peers[1]._check_deadlock(world)
    finally:
        peers[0].block.w = real
        for peer in peers:
            peer.close()
        seg.close()
        unlink_segments([seg.name])
