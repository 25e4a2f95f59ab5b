"""Tests for the execution-backend layer (repro.runtime).

The SPMD programs below are module-level functions: the mp backend ships
them to worker processes by pickle, and the spawn start method re-imports
this module in the child.
"""

import operator
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.bsp.engine import Engine
from repro.bsp.errors import DeadlockError
from repro.runtime import (
    Backend,
    MpBackend,
    SimBackend,
    WarmMpBackend,
    WorkerCrashError,
    WorkerProgramError,
    WorkerTimeoutError,
    available_backends,
    default_start_method,
    resolve_backend,
)
from repro.runtime.transport import decode_payload, encode_payload
from tests.conftest import require_mp

_COUNTER_FIELDS = ("p", "computation", "volume", "supersteps", "misses",
                   "wait", "total_ops", "total_volume")


def assert_reports_equal(a, b):
    for f in _COUNTER_FIELDS:
        assert getattr(a, f) == getattr(b, f), f"counter {f} diverged"


# --- module-level SPMD programs (picklable) --------------------------------

def prog_collectives(ctx, scale):
    """Exercises every collective kind plus imbalance accounting."""
    comm = ctx.comm
    ctx.charge(ops=5 * (ctx.rank + 1))        # imbalance -> wait_ops
    total = yield from comm.allreduce(ctx.rank * scale, op=operator.add)
    arr = np.full(20_000, ctx.rank, dtype=np.int64)   # above shm threshold
    got = yield from comm.bcast(arr, root=1)
    gathered = yield from comm.gather(int(got[0]) + ctx.rank, root=0)
    everywhere = yield from comm.allgather(ctx.rank * 2)
    red = yield from comm.reduce(ctx.rank + 1, op=operator.mul, root=0)
    swapped = yield from comm.alltoall([ctx.rank * 100 + j
                                        for j in range(comm.size)])
    yield from comm.barrier()
    sub = yield from comm.split(ctx.rank % 2, ctx.rank)
    subsum = yield from sub.allreduce(ctx.rank, op=operator.add)
    return (total, int(got.sum()), gathered, everywhere, red, swapped,
            subsum)


def prog_trivial(ctx):
    yield from ctx.comm.barrier()
    return ctx.rank


def prog_loaded_modules(ctx):
    import sys

    yield from ctx.comm.barrier()
    return "scipy.sparse.csgraph" in sys.modules


def prog_crash(ctx):
    if ctx.rank == 2:
        os._exit(3)
    v = yield from ctx.comm.allreduce(1, op=operator.add)
    return v


def prog_raise(ctx):
    if ctx.rank == 1:
        raise ValueError("boom from rank 1")
    v = yield from ctx.comm.allreduce(1, op=operator.add)
    return v


def prog_hang(ctx):
    if ctx.rank == 0:
        time.sleep(120)
    v = yield from ctx.comm.allreduce(1, op=operator.add)
    return v


def prog_deadlock(ctx):
    if ctx.rank == 0:
        return "bailed"
    v = yield from ctx.comm.allreduce(1, op=operator.add)
    return v


def prog_cross_group_deadlock(ctx):
    """Rank 1 waits on sub-group {1, 2} while ranks 0 and 2 wait on the
    world: every live rank is blocked and no group is complete."""
    sub = yield from ctx.comm.split(int(ctx.rank > 0), ctx.rank)
    if ctx.rank == 1:
        yield from sub.barrier()
    yield from ctx.comm.barrier()


def prog_big_payloads(ctx, n):
    """Arrays big enough to ride shared-memory segments both directions."""
    comm = ctx.comm
    mine = np.arange(n, dtype=np.float64) * (ctx.rank + 1)
    blocks = yield from comm.allgather(mine)
    stacked = yield from comm.bcast(
        np.vstack(blocks) if ctx.rank == 0 else None, root=0
    )
    return float(stacked.sum())


# --- resolution ------------------------------------------------------------

class TestResolution:
    def test_available(self):
        names = available_backends()
        assert set(names) >= {"sim", "mp"}

    def test_default_is_sim(self):
        assert isinstance(resolve_backend(None), SimBackend)
        assert isinstance(resolve_backend("sim"), SimBackend)

    def test_mp_by_name(self):
        assert isinstance(resolve_backend("mp"), MpBackend)

    def test_instance_passthrough(self):
        b = SimBackend()
        assert resolve_backend(b) is b

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="sim"):
            resolve_backend("quantum")

    def test_backend_protocol(self):
        assert issubclass(SimBackend, Backend)
        assert issubclass(MpBackend, Backend)


# --- transport -------------------------------------------------------------

class TestTransport:
    def test_small_objects_pass_through(self):
        obj = {"a": [1, 2.5, "x"], "b": (None, np.arange(4))}
        enc = encode_payload(obj, 1 << 16)
        assert isinstance(enc["b"][1], np.ndarray)  # below threshold: inline
        dec = decode_payload(enc)
        assert np.array_equal(dec["b"][1], np.arange(4))

    def test_large_array_round_trip(self):
        arr = np.arange(50_000, dtype=np.int64)
        enc = encode_payload((arr, "tag"), 1 << 10)
        assert not isinstance(enc[0], np.ndarray)  # hoisted to a segment
        dec = decode_payload(enc)
        assert np.array_equal(dec[0], arr)
        assert dec[1] == "tag"

    def test_nested_structures(self):
        payload = [{"rows": np.ones((300, 300)), "k": 7}, (np.zeros(3),)]
        dec = decode_payload(encode_payload(payload, 1 << 12))
        assert np.array_equal(dec[0]["rows"], np.ones((300, 300)))
        assert dec[0]["k"] == 7


# --- sim backend -----------------------------------------------------------

class TestSimBackend:
    def test_matches_engine(self):
        direct = Engine().run(prog_collectives, 4, seed=3, args=(2,))
        via = SimBackend().run(prog_collectives, 4, seed=3, args=(2,))
        assert direct.values == via.values
        assert_reports_equal(direct.report, via.report)


# --- mp backend ------------------------------------------------------------

class TestMpBackend:
    def test_collectives_match_sim(self):
        require_mp()
        sim = SimBackend().run(prog_collectives, 4, seed=7, args=(3,))
        mp_ = MpBackend(timeout=120.0).run(prog_collectives, 4, seed=7,
                                           args=(3,))
        assert sim.values == mp_.values
        assert_reports_equal(sim.report, mp_.report)

    def test_measured_times(self):
        require_mp()
        res = MpBackend(timeout=120.0).run(prog_trivial, 2, seed=0)
        assert res.values == [0, 1]
        assert res.time.app_s >= 0.0
        assert res.time.mpi_s > 0.0  # the barrier blocked for real

    def test_shared_memory_payloads(self):
        require_mp()
        sim = SimBackend().run(prog_big_payloads, 3, seed=1, args=(30_000,))
        mp_ = MpBackend(timeout=120.0, shm_threshold=1 << 12).run(
            prog_big_payloads, 3, seed=1, args=(30_000,))
        assert sim.values == mp_.values

    def test_p_one(self):
        require_mp()
        res = MpBackend(timeout=120.0).run(prog_trivial, 1, seed=0)
        assert res.values == [0]

    def test_spawn_start_method(self):
        require_mp()
        res = MpBackend(start_method="spawn", timeout=180.0).run(
            prog_trivial, 2, seed=0)
        assert res.values == [0, 1]

    def test_fork_workers_inherit_the_kernels_lazy_import(self):
        """A caller that never ran a kernel still forks workers that hold
        ``scipy.sparse.csgraph``: the root does not re-import it per run."""
        require_mp()
        if default_start_method() != "fork":
            pytest.skip("spawned workers import from scratch regardless")
        script = (
            "import sys\n"
            "from repro.runtime import MpBackend\n"
            "from tests.test_runtime_backends import prog_loaded_modules\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules\n"
            "res = MpBackend(timeout=120.0).run(prog_loaded_modules, 2)\n"
            "assert res.values == [True, True], res.values\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", script], check=True,
                       timeout=180, env=env)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            MpBackend().run(prog_trivial, 0)
        with pytest.raises(TypeError):
            MpBackend().run(prog_trivial, 2.5)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MpBackend(timeout=0)
        with pytest.raises(ValueError):
            MpBackend(start_method="osc8")


class TestMpFaults:
    def test_crashed_worker_reported(self):
        require_mp()
        with pytest.raises(WorkerCrashError) as exc:
            MpBackend(timeout=60.0).run(prog_crash, 3, seed=0)
        assert exc.value.rank == 2
        assert exc.value.exitcode == 3
        assert "rank 2" in str(exc.value)

    def test_program_exception_forwarded(self):
        require_mp()
        with pytest.raises(WorkerProgramError) as exc:
            MpBackend(timeout=60.0).run(prog_raise, 3, seed=0)
        assert exc.value.rank == 1
        assert exc.value.exc_type == "ValueError"
        assert "boom from rank 1" in str(exc.value)

    def test_hung_worker_times_out(self):
        require_mp()
        t0 = time.monotonic()
        with pytest.raises(WorkerTimeoutError) as exc:
            MpBackend(timeout=2.0).run(prog_hang, 2, seed=0)
        assert time.monotonic() - t0 < 60.0  # bounded, never a hang
        assert exc.value.missing == [0]

    def test_deadlock_detected(self):
        require_mp()
        with pytest.raises(DeadlockError):
            MpBackend(timeout=60.0).run(prog_deadlock, 2, seed=0)

    @pytest.mark.parametrize("name", ["sim", "mp", "warm"])
    def test_cross_group_deadlock_detected(self, name):
        # The matcher is Engine._ready on every backend: the coordinator
        # raises as soon as the last live rank blocks, not at the timeout.
        if name != "sim":
            require_mp()
        backend = {"sim": SimBackend, "mp": MpBackend,
                   "warm": WarmMpBackend}[name]()  # mp/warm: 300 s timeout
        t0 = time.monotonic()
        try:
            with pytest.raises(DeadlockError, match="no collective can"):
                backend.run(prog_cross_group_deadlock, 3, seed=0)
        finally:
            getattr(backend, "close", lambda: None)()
        assert time.monotonic() - t0 < 20.0


# --- engine contract (satellite: p validation) -----------------------------

class TestEngineContract:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_engine_rejects_small_p(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            Engine().run(prog_trivial, bad)

    @pytest.mark.parametrize("bad", [2.0, "4", None])
    def test_engine_rejects_non_integer_p(self, bad):
        with pytest.raises(TypeError, match="integer"):
            Engine().run(prog_trivial, bad)

    def test_sim_backend_shares_contract(self):
        with pytest.raises(ValueError, match=">= 1"):
            SimBackend().run(prog_trivial, 0)
        with pytest.raises(TypeError, match="integer"):
            SimBackend().run(prog_trivial, 1.5)

    def test_numpy_integer_p_accepted(self):
        res = Engine().run(prog_trivial, np.int64(2))
        assert res.values == [0, 1]
