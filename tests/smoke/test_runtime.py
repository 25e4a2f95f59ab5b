"""Smokes of the mp runtime under spawn, and the leak check's own test."""
import os
import subprocess
import sys

import pytest

from repro import shmem
from repro.core.components import connected_components
from repro.faults import FaultSpec, parse_fault_plan
from repro.graph import erdos_renyi, two_cliques_bridge
from repro.harness import run_algorithm
from repro.rng import philox_stream
from repro.runtime import MpBackend, SimBackend, WarmMpBackend
from repro.runtime.errors import WorkerCrashError
from repro.sched import TrialScheduler
from repro.trace import RecordingTracer
from tests.smoke.conftest import no_shm_leaks
from tests.test_peer_supersteps import split_program
from tests.test_trace_backends import strip_wall
from tests.test_transport_arena import _forwarding_program


def test_arena():
    """Transport arena stress smoke (spawn, alltoallv-heavy, zero leaks)."""
    g = erdos_renyi(20_000, 80_000, philox_stream(5))
    sim = connected_components(g, p=2, seed=4, hybrid=True)
    # Forwarded descriptors leave this call three slab messages, each
    # still lent when the next is packed; the repeat on the kept pool must
    # run entirely on what the first one allocated.
    with WarmMpBackend(start_method="spawn", timeout=300.0,
                       shm_threshold=1 << 12) as mp_:
        for _ in range(2):
            res = connected_components(g, p=2, seed=4, hybrid=True,
                                       backend=mp_)
            assert res.n_components == sim.n_components
            assert (res.labels == sim.labels).all()
            assert res.report == sim.report
        stats = mp_.last_transport_stats
    assert stats["per_kind"].get("alltoallv", {}).get("messages", 0) > 0, stats
    assert stats["total"]["segments_reused"] > 0, stats
    assert stats["total"]["segments_created"] == 0, stats


def test_forwarding():
    """Descriptor-forwarding stress smoke (spawn, p = 3: allgatherv, bcast,
    allgather and gatherv in a loop, every slab read by its peers)."""
    args = (20_000, 12)
    mp_ = MpBackend(start_method="spawn", timeout=300.0, shm_threshold=1 << 12)
    res = mp_.run(_forwarding_program, 3, seed=1, args=args)
    sim = SimBackend().run(_forwarding_program, 3, seed=1, args=args)
    assert res.values == sim.values and res.report == sim.report
    stats = mp_.last_transport_stats["total"]
    assert stats["segments_reused"] > stats["segments_created"], stats


def test_crash():
    """Crash-injection smoke (spawn, recovery, zero leaked segments)."""
    g = two_cliques_bridge(8, bridge_weight=2.0)
    backend = MpBackend(start_method="spawn", timeout=300.0)
    plan = parse_fault_plan("crash:rank=1,step=1")  # killed mid-collective
    res = TrialScheduler(fault_plan=plan, backoff_s=0.0).run(
        g, 2, backend=backend, seed=7, trials=6)
    clean = TrialScheduler().run(g, 2, seed=7, trials=6)
    assert res.retries == 1, res.retries
    assert res.value == clean.value == 2.0
    # the retry reproduced the fault-free ledger
    assert res.ledger.fingerprint() == clean.ledger.fingerprint()


_LEFT_OPEN = """
import sys
from repro.runtime import WarmMpBackend
from tests.test_fault_injection_mp import two_step_program
warm = WarmMpBackend(timeout=300.0)
assert warm.run(two_step_program, 2, kwargs={"nwords": 1 << 16}).values \\
    == [6.0, 6.0]
"""


@pytest.mark.parametrize("end, code", [("raise KeyError('left open')", 1),
                                       ("sys.exit(3)", 3), ("", 0)])
def test_warm_pool_left_open(end, code):
    """A process that ends without closing its warm pool — by an exception,
    ``sys.exit`` or the end of the script — leaves /dev/shm as it found it:
    the pool's exit hook stops the workers and unlinks the control block
    and every slab."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _LEFT_OPEN + end], env=env,
                          timeout=300, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == code, proc.stderr
    assert "reclaimed" not in proc.stderr  # the workers unlinked their own


def test_peer_groups():
    """Peer-superstep smoke (spawn, p = 3): split subgroups settle their
    collectives among themselves, bit-identical to sim; then a crash in a
    subgroup collective; the control block and doorbells are released."""
    sim = SimBackend(tracer=RecordingTracer()).run(split_program, 3, seed=2)
    mp_ = MpBackend(start_method="spawn", timeout=300.0,
                    tracer=RecordingTracer())
    res = mp_.run(split_program, 3, seed=2)
    assert res.values == sim.values and res.report == sim.report
    assert strip_wall(res.trace) == strip_wall(sim.trace)
    with pytest.raises(WorkerCrashError) as err:
        mp_.run(split_program, 3, seed=2,
                faults=[FaultSpec("crash", rank=2, step=2)])
    assert (err.value.rank, err.value.superstep) == (2, 2)


def test_whole_slices():
    """Whole-slice CC smoke (spawn, p = 3): every rank ships its whole
    slice in round one, as a reference to its input.  With the plane off
    each worker unpickled its own copy of the slices, so the root joins
    its copies; with it on they are adjacent views of one segment, so the
    root takes a view.  Either way no gathered byte is copied and the
    answer is the simulator's, bit for bit."""
    g = erdos_renyi(4000, 40_000, philox_stream(11))
    sim = run_algorithm("parallel_cc", g, p=3, seed=4, backend="sim",
                        tracer=RecordingTracer())
    for plane in (False, True):
        mp_ = MpBackend(start_method="spawn", timeout=300.0,
                        graph_plane=plane, tracer=RecordingTracer())
        res = run_algorithm("parallel_cc", g, p=3, seed=4, backend=mp_)
        assert (res.labels == sim.labels).all()
        assert res.n_components == sim.n_components
        assert res.report == sim.report
        assert strip_wall(res.trace) == strip_wall(sim.trace)
        gatherv = mp_.last_transport_stats["per_kind"]["gatherv"]
        assert gatherv["bytes_copied"] == 0, gatherv


def test_leak_check_can_fail():
    """PR 20 found a CI check that could not: ``psm_*`` glob, ``rsh…`` slabs."""
    with pytest.raises(AssertionError, match="leaked shm segments"):
        with no_shm_leaks():
            seg = shmem.create_segment(64, name="rsh_smoke_planted")
    shmem.close_and_unlink(seg)
