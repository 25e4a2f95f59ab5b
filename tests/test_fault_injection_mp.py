"""Fault injection against real OS processes: crash/drop/work faults at
the transport seam, error context (superstep, trials in flight), and the
zero-shm-leak guarantee after a worker is killed mid-collective — or after
a fault in rank 0, which a one-shot run runs in the caller itself."""

import errno
import logging
import multiprocessing
import operator
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from tests.conftest import require_mp
from tests.test_trace_backends import strip_wall
from repro.faults import CRASH_EXIT_CODE, FaultSpec
from repro.runtime.errors import (
    WorkerCrashError,
    WorkerProgramError,
    WorkerTimeoutError,
)
from repro.runtime.mp import MpBackend
from repro.runtime.sim import SimBackend
from repro.runtime.warm import WarmMpBackend
from repro.trace import RecordingTracer

needs_dev_shm = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs /dev/shm"
)


def two_step_program(ctx, nwords=1):
    """Two collectives (local steps 0 and 1); returns summed payload."""
    data = np.full(nwords, float(ctx.rank + 1))
    total = yield from ctx.comm.allreduce(data, op=operator.add)
    ctx.charge(ops=float(ctx.rank) * 100.0)
    total = yield from ctx.comm.allreduce(total, op=operator.add)
    return float(total[0])


def merging_program(ctx):
    """A plain collective, then three back-to-back allreduces (under
    fusion, three ``ops`` charges inside one superstep); returns this
    rank's own counters as the program sees them."""
    comm = ctx.comm
    ctx.charge(ops=10.0 * (ctx.rank + 1))
    a = yield from comm.allreduce(ctx.rank + 1, op=operator.add)
    b = yield from comm.allreduce(np.full(3, 0.1 * (ctx.rank + 1)),
                                  op=operator.add)
    c = yield from comm.allreduce(a + ctx.rank, op=operator.add)
    d = yield from comm.allreduce(c, op=operator.add)
    return a, b.tolist(), c, d, dict(vars(ctx.counters))


def raising_program(ctx, nwords=1, who=1):
    """One collective with live slabs, then rank ``who`` raises."""
    data = np.full(nwords, float(ctx.rank + 1))
    yield from ctx.comm.allreduce(data, op=operator.add)
    if ctx.rank == who:
        raise ValueError(f"boom from rank {who}")
    yield from ctx.comm.allreduce(data, op=operator.add)


def _failing_fold(a, b):
    raise ArithmeticError("fold failed")


def subgroup_fault_program(ctx):
    """Ranks 1 and 2 fold with an op that raises, while rank 0 waits for
    them in a world collective."""
    sub = yield from ctx.comm.split(min(ctx.rank, 1), ctx.rank)
    if ctx.rank:
        yield from sub.allreduce(float(ctx.rank), op=_failing_fold)
    yield from ctx.comm.barrier()


def spinning_program(ctx):
    """Rank 0's own code spins for two minutes before its first post."""
    end = time.monotonic() + 120.0
    while ctx.rank == 0 and time.monotonic() < end:
        pass
    yield from ctx.comm.barrier()


def interrupted_program(ctx):
    """Rank 0 is sent SIGINT (Ctrl-C) while it waits in a collective."""
    if ctx.rank == 0:
        threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT)).start()
    yield from ctx.comm.barrier()


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm"))


def _children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


@pytest.fixture(params=[MpBackend, WarmMpBackend], ids=["mp", "warm"])
def real_backend(request):
    """One worker lifecycle under both: every typed failure below reads
    the same on ``mp`` and ``warm`` and leaves no process and no segment."""
    require_mp()
    shm_before, children_before = _shm_entries(), _children()
    backend = request.param(timeout=2.0)
    yield backend
    getattr(backend, "close", lambda: None)()
    assert _children() <= children_before
    if sys.platform.startswith("linux"):
        assert _shm_entries() - shm_before == set()


class TestCrash:
    def test_crash_error_carries_superstep_and_exitcode(self):
        require_mp()
        backend = MpBackend()
        with pytest.raises(WorkerCrashError) as exc_info:
            backend.run(two_step_program, 2, seed=0,
                        faults=[FaultSpec("crash", rank=1, step=1)])
        err = exc_info.value
        assert err.rank == 1
        assert err.exitcode == CRASH_EXIT_CODE
        assert err.superstep == 1
        assert "superstep 1" in str(err)
        assert f"exit code {CRASH_EXIT_CODE}" in str(err)

    def test_sim_raises_identical_message(self):
        require_mp()
        def msg(backend):
            with pytest.raises(WorkerCrashError) as exc_info:
                backend.run(two_step_program, 2, seed=0,
                            faults=[FaultSpec("crash", rank=1, step=1)])
            return str(exc_info.value)

        assert msg(SimBackend()) == msg(MpBackend())

    @needs_dev_shm
    def test_crash_mid_collective_leaks_no_segments(self):
        require_mp()
        before = _shm_entries()
        backend = MpBackend()
        with pytest.raises(WorkerCrashError):
            # Big payloads force the arena path; the crashing worker dies
            # while its peers are mid-collective holding live slabs.
            backend.run(two_step_program, 3, seed=0,
                        kwargs={"nwords": 1 << 16},
                        faults=[FaultSpec("crash", rank=2, step=1)])
        assert _shm_entries() - before == set()

    @needs_dev_shm
    def test_retry_after_crash_leaks_nothing(self):
        require_mp()
        before = _shm_entries()
        backend = MpBackend()
        with pytest.raises(WorkerCrashError):
            backend.run(two_step_program, 2, seed=0,
                        kwargs={"nwords": 1 << 16},
                        faults=[FaultSpec("crash", rank=0, step=0)])
        res = backend.run(two_step_program, 2, seed=0,
                          kwargs={"nwords": 1 << 16})
        assert res.values[0] == res.values[1] == 6.0
        assert _shm_entries() - before == set()


class TestDrop:
    def test_timeout_error_carries_supersteps(self):
        require_mp()
        backend = MpBackend(timeout=2.0)
        with pytest.raises(WorkerTimeoutError) as exc_info:
            backend.run(two_step_program, 2, seed=0,
                        faults=[FaultSpec("drop", rank=1, step=1)])
        err = exc_info.value
        assert err.missing == [1]
        assert err.supersteps == {1: 1}
        assert "superstep" in str(err)

    def test_sim_drop_is_immediate(self):
        with pytest.raises(WorkerTimeoutError) as exc_info:
            SimBackend().run(two_step_program, 2, seed=0,
                             faults=[FaultSpec("drop", rank=1, step=1)])
        assert exc_info.value.supersteps == {1: 1}


class TestOneLifecycle:
    """``mp`` and ``warm`` are one worker lifecycle: every typed failure
    reads the same on both and leaves no process and no segment behind."""

    @pytest.mark.parametrize("fault, error, stamps", [
        ("crash", WorkerCrashError,
         {"rank": 1, "superstep": 1, "exitcode": CRASH_EXIT_CODE}),
        ("drop", WorkerTimeoutError, {"missing": [1], "supersteps": {1: 1}}),
        ("raise", WorkerProgramError, {"rank": 1, "exc_type": "ValueError"}),
    ])
    def test_typed_failure_then_recovery(self, real_backend, fault, error,
                                         stamps):
        # Big payloads force the arena path: peers hold live slabs when
        # rank 1 fails in its second superstep.
        big = {"nwords": 1 << 16}
        with pytest.raises(error) as exc_info:
            if fault == "raise":
                real_backend.run(raising_program, 3, seed=0, kwargs=big)
            else:
                real_backend.run(two_step_program, 2, seed=0, kwargs=big,
                                 faults=[FaultSpec(fault, rank=1, step=1)])
        for attr, want in stamps.items():
            assert getattr(exc_info.value, attr) == want
        res = real_backend.run(two_step_program, 2, seed=0)
        assert res.values == [6.0, 6.0]  # the same backend recovers

    def test_unpicklable_program_fails_before_any_worker_runs(self,
                                                              real_backend):
        """Programs travel in the CMD_RUN by reference on both backends: a
        locally defined one fails in the coordinator's pickler, the pool
        is torn down, and the next run on the same backend works."""
        def local_program(ctx):
            yield from ctx.comm.barrier()

        children_before = _children()
        with pytest.raises((AttributeError, TypeError, ValueError),
                           match="local_program"):
            real_backend.run(local_program, 2, seed=0)
        assert _children() <= children_before
        res = real_backend.run(two_step_program, 2, seed=0)
        assert res.values == [6.0, 6.0]

    def test_failed_worker_start_leaks_no_worker(self, real_backend,
                                                 monkeypatch):
        """A pool whose second worker fails to start stops the first before
        the error surfaces, and the next run spawns a whole pool.  (p = 3:
        a one-shot run's rank 0 is the caller, so its workers are two.)"""
        ctx = multiprocessing.get_context(real_backend.start_method)
        real_start = ctx.Process.start
        starts = []

        def start(proc):
            starts.append(proc)
            if len(starts) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            real_start(proc)

        children_before = _children()
        with monkeypatch.context() as patch:
            patch.setattr(ctx.Process, "start", start)
            with pytest.raises(OSError):
                real_backend.run(two_step_program, 3, seed=0)
        assert _children() <= children_before
        res = real_backend.run(two_step_program, 2, seed=0)
        assert res.values == [6.0, 6.0]

    @needs_dev_shm
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_clean_run_reaps_workers_who_unlinked_their_own_arenas(
            self, start_method, caplog):
        require_mp()
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} on this platform")
        before, children_before = _shm_entries(), _children()
        backend = MpBackend(start_method=start_method, timeout=180.0)
        with caplog.at_level(logging.WARNING, logger="repro.runtime"):
            res = backend.run(two_step_program, 2, seed=0,
                              kwargs={"nwords": 1 << 16})
        assert res.values == [6.0, 6.0]
        stats = backend.last_transport_stats["total"]
        assert stats["segments_created"] > 0  # arenas were really in play
        assert _children() <= children_before
        assert _shm_entries() - before == set()
        assert "reclaimed" not in caplog.text  # nothing left for the sweep


_SPAWN_SMOKE = pytest.param("spawn", marks=pytest.mark.smoke)


class TestRankZeroIsTheCaller:
    """A one-shot run's rank 0 is the calling process: a fault aimed at it,
    or at a worker while it is blocked in a collective, raises its typed
    error in a caller that lives on, and leaves no process and no name in
    /dev/shm (``sem.*`` included).  Under ``spawn`` the matrix is a smoke
    (``-m smoke``): each run pays a fresh interpreter."""

    CASES = {  # faults and program kwargs -> error and what it carries
        "crash": ([FaultSpec("crash", rank=0, step=1)], {}, WorkerCrashError,
                  {"rank": 0, "superstep": 1, "exitcode": CRASH_EXIT_CODE}),
        "raise": (None, {"who": 0}, WorkerProgramError,
                  {"rank": 0, "exc_type": "ValueError"}),
        "drop": ([FaultSpec("drop", rank=0, step=1)], {}, WorkerTimeoutError,
                 {"missing": [0], "supersteps": {0: 1}}),
        "stall": ([FaultSpec("stall", rank=0, step=1, seconds=600.0)], {},
                  WorkerTimeoutError, {"missing": [0], "supersteps": {0: 1}}),
        "delay": ([FaultSpec("delay", rank=0, step=1, seconds=600.0)], {},
                  WorkerTimeoutError, {"missing": [0], "supersteps": {0: 1}}),
        "crash-peer": ([FaultSpec("crash", rank=1, step=1)], {},
                       WorkerCrashError, {"rank": 1, "superstep": 1}),
        "raise-peer": (None, {"who": 1}, WorkerProgramError,
                       {"rank": 1, "exc_type": "ValueError"}),
        # Rank 0 finds rank 1's report at its next wait: rank 1's error.
        "raise-peer-in-stall": (
            [FaultSpec("stall", rank=0, step=1, seconds=0.2)], {"who": 1},
            WorkerProgramError, {"rank": 1, "exc_type": "ValueError"}),
    }

    @staticmethod
    def _backend(start_method):
        require_mp()
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} on this platform")
        # Inactivity is measured from the workers' start: spawn's is slow.
        return MpBackend(start_method=start_method,
                         timeout=0.5 if start_method == "fork" else 8.0)

    @needs_dev_shm
    @pytest.mark.parametrize("start_method", ["fork", _SPAWN_SMOKE])
    @pytest.mark.parametrize("case", list(CASES))
    def test_typed_error_in_a_live_caller(self, start_method, case):
        faults, kwargs, error, stamps = self.CASES[case]
        backend = self._backend(start_method)
        before, children = _shm_entries(), _children()
        t0 = time.monotonic()
        with pytest.raises(error) as exc_info:
            program = raising_program if kwargs else two_step_program
            backend.run(program, 2, seed=0, faults=faults,
                        kwargs={"nwords": 1 << 16, **kwargs})
        # A fault's sleep in the caller is supervised: the timeout, not
        # the 600 s, ends it.
        assert time.monotonic() - t0 < 60.0
        for attr, want in stamps.items():
            assert getattr(exc_info.value, attr) == want
        assert _children() <= children
        assert _shm_entries() == before
        assert backend.run(two_step_program, 2, seed=0).values == [6.0, 6.0]

    @needs_dev_shm
    @pytest.mark.parametrize("start_method", ["fork", _SPAWN_SMOKE])
    @pytest.mark.parametrize("stall", [0.0, 0.3])
    def test_a_subgroups_fault_reaches_the_caller_as_itself(
            self, start_method, stall):
        """A superstep error in a group without rank 0 is raised unchanged
        while rank 0 waits elsewhere, or first stalls — not as a crash, nor
        as rank 0's."""
        backend = self._backend(start_method)
        backend.timeout = 60.0
        faults = stall and [FaultSpec("stall", rank=0, step=1, seconds=stall)]
        before, children = _shm_entries(), _children()
        with pytest.raises(ArithmeticError, match="fold failed"):
            backend.run(subgroup_fault_program, 3, seed=0, faults=faults)
        assert _children() <= children
        assert _shm_entries() == before

    @needs_dev_shm
    def test_a_hang_off_the_main_thread_times_out(self):
        """Rank 0's own code spinning in a caller that is not the main
        thread is interrupted all the same: the timeout names rank 0."""
        backend = self._backend("fork")
        before, children, got = _shm_entries(), _children(), []

        def call():
            try:
                backend.run(spinning_program, 2, seed=0)
            except Exception as exc:  # noqa: BLE001 - checked below
                got.append(exc)

        t0 = time.monotonic()
        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive()
        assert time.monotonic() - t0 < 60.0
        assert [type(e) for e in got] == [WorkerTimeoutError]
        assert got[0].missing == [0]
        assert _children() <= children
        assert _shm_entries() == before

    @needs_dev_shm
    @pytest.mark.parametrize("start_method", ["fork", _SPAWN_SMOKE])
    def test_ctrl_c_tears_the_pool_down(self, start_method):
        backend = self._backend(start_method)
        backend.timeout = 60.0
        before, children = _shm_entries(), _children()
        with pytest.raises(KeyboardInterrupt):
            backend.run(interrupted_program, 2, seed=0,
                        faults=[FaultSpec("stall", rank=1, step=0,
                                          seconds=600.0)])
        assert _children() <= children
        assert _shm_entries() == before


class TestWorkFault:
    def test_counter_parity_sim_vs_mp(self):
        require_mp()
        faults = [FaultSpec("work", rank=0, step=1, ops=12345.0)]

        def tally(backend):
            r = backend.run(two_step_program, 2, seed=0, faults=faults).report
            return (r.computation, r.total_ops, r.volume, r.total_volume,
                    r.wait, r.supersteps)

        assert tally(SimBackend()) == tally(MpBackend())

    def test_adopted_counters_match_across_backends(self):
        """The worker adopts the counters the coordinator's engine charged:
        report, per-rank counters (``ops_at_last_sync`` included) and trace
        events equal sim's with a work fault, fusion and tracing all on."""
        require_mp()
        faults = [FaultSpec("work", rank=1, step=1, ops=777.0)]

        def run(cls):
            backend = cls(tracer=RecordingTracer(), fuse=True)
            try:
                res = backend.run(merging_program, 3, seed=0, faults=faults)
            finally:
                getattr(backend, "close", lambda: None)()
            return res.values, res.report, strip_wall(res.trace)

        sim = run(SimBackend)
        assert sim[2][1].fused == ("allreduce", "allreduce", "allreduce")
        assert run(MpBackend) == sim
        assert run(WarmMpBackend) == sim

    def test_work_fault_changes_only_target_rank(self):
        base = SimBackend().run(two_step_program, 2, seed=0)
        res = SimBackend().run(
            two_step_program, 2, seed=0,
            faults=[FaultSpec("work", rank=0, step=1, ops=500.0)])
        assert res.values == base.values
        assert res.report.total_ops == base.report.total_ops + 500.0


class TestSleepFaults:
    def test_stall_preserves_results(self):
        res = SimBackend().run(
            two_step_program, 2, seed=0,
            faults=[FaultSpec("stall", rank=1, step=0, seconds=0.01)])
        assert res.values[0] == 6.0

    def test_delay_preserves_results_mp(self):
        require_mp()
        res = MpBackend().run(
            two_step_program, 2, seed=0,
            faults=[FaultSpec("delay", rank=1, step=0, seconds=0.01)])
        assert res.values[0] == 6.0


class TestNoFaultRegression:
    def test_faults_none_is_default_path(self):
        a = SimBackend().run(two_step_program, 2, seed=0)
        b = SimBackend().run(two_step_program, 2, seed=0, faults=None)
        c = SimBackend().run(two_step_program, 2, seed=0, faults=[])
        assert a.values == b.values == c.values
        assert a.report == b.report == c.report

    def test_faults_for_other_ranks_are_inert(self):
        require_mp()
        res = MpBackend().run(
            two_step_program, 2, seed=0,
            faults=[FaultSpec("crash", rank=7, step=0)])
        assert res.values[0] == 6.0
