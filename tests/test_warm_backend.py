"""WarmMpBackend: persistent worker pool parity, warmth, crash recovery.

Every test needs real OS processes; all skip gracefully where fork/exec
or /dev/shm are unavailable (``require_mp``).
"""

import os
import sys

import numpy as np
import pytest

from tests.conftest import require_mp
from repro.faults import FaultSpec
from repro.graph import erdos_renyi
from repro.harness.experiment import run_algorithm
from repro.rng import philox_stream
from repro.runtime import WarmMpBackend
from repro.runtime.base import available_backends, resolve_backend
from repro.runtime.errors import WorkerCrashError

needs_dev_shm = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs /dev/shm"
)


@pytest.fixture
def g():
    return erdos_renyi(60, 300, philox_stream(3), weighted=True)


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm"))


def test_warm_is_registered():
    assert "warm" in available_backends()
    backend = resolve_backend("warm")
    assert isinstance(backend, WarmMpBackend)
    backend.close()


def test_warm_parity_with_sim_and_pool_stays_warm(g):
    require_mp()
    with WarmMpBackend() as warm:
        results = [run_algorithm("parallel_cc", g, p=2, seed=5,
                                 backend=warm) for _ in range(3)]
        sq = run_algorithm("square_root", g, p=2, seed=7, backend=warm)
        assert warm.pool_spawns == 1        # one spawn across all runs
    sim_cc = run_algorithm("parallel_cc", g, p=2, seed=5, backend="sim")
    sim_sq = run_algorithm("square_root", g, p=2, seed=7, backend="sim")
    for res in results:
        assert np.array_equal(res.labels, sim_cc.labels)
        assert res.report == sim_cc.report
    assert sq.value == sim_sq.value


def test_warm_scheduled_run_bit_identical_to_sim(g):
    require_mp()
    from repro.sched import TrialScheduler

    with WarmMpBackend() as warm:
        warm_res = TrialScheduler(wave_size=16).run(
            g, 2, backend=warm, seed=7)
        assert warm.pool_spawns == 1        # waves share one pool
    sim_res = TrialScheduler(wave_size=16).run(g, 2, backend="sim", seed=7)
    assert warm_res.value == sim_res.value
    assert warm_res.ledger.fingerprint() == sim_res.ledger.fingerprint()


def test_crash_discards_pool_then_respawns_transparently(g):
    require_mp()
    from repro.sched import TrialScheduler

    with WarmMpBackend() as warm:
        clean = TrialScheduler(wave_size=16).run(g, 2, backend=warm, seed=7)
        assert warm.pool_spawns == 1
        with pytest.raises(WorkerCrashError):
            warm.run(_crash_program, 2, seed=0,
                     faults=[FaultSpec("crash", rank=1, step=0)])
        assert warm._pool is None           # wedged peers discarded
        again = TrialScheduler(wave_size=16).run(g, 2, backend=warm, seed=7)
        assert warm.pool_spawns == 2        # fresh pool, same bits
    assert again.ledger.fingerprint() == clean.ledger.fingerprint()


def test_p_change_respawns(g):
    require_mp()
    with WarmMpBackend() as warm:
        run_algorithm("parallel_cc", g, p=2, seed=5, backend=warm)
        run_algorithm("parallel_cc", g, p=2, seed=5, backend=warm)
        assert warm.pool_spawns == 1
        warm.plans.put("plan", object())
        run_algorithm("parallel_cc", g, p=3, seed=5, backend=warm)
        assert warm.pool_spawns == 2
        assert "plan" in warm.plans         # a respawn keeps the plan store


@needs_dev_shm
def test_close_leaves_no_shm_and_is_idempotent(g):
    require_mp()
    before = _shm_entries()
    warm = WarmMpBackend()
    run_algorithm("parallel_cc", g, p=2, seed=5, backend=warm)
    warm.close()
    warm.close()
    assert _shm_entries() - before == set()


def _crash_program(ctx):
    import operator

    data = np.ones(4)
    total = yield from ctx.comm.allreduce(data, op=operator.add)
    return float(total[0])
