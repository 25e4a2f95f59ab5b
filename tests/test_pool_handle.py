"""A backend is a pool handle: the first run starts the pool, later runs at
the same ``p`` reuse it, and whoever owns the instance ends it.

* **Ownership** — an entry point, ``run_algorithm``, ``TrialScheduler``
  or a ``DynamicGraph`` that builds a backend from a name closes it, so
  no call leaves a process or a ``/dev/shm`` name behind.
* **Collection** — an instance dropped unclosed ends its pool when its
  last reference goes, with the cyclic collector switched off.
* **Bit-identity** — one kept pool, through more graphs than it retains,
  a width change and a crash, answers exactly as the simulator.

The ``spawn`` cases are smokes (``-m smoke``): each pays fresh interpreters.
"""

import gc
import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro import approx_minimum_cut, connected_components, minimum_cut
from repro.dynamic import DynamicGraph
from repro.faults import FaultSpec
from repro.graph import erdos_renyi
from repro.graph import shm as plane
from repro.harness import run_algorithm
from repro.rng import philox_stream
from repro.runtime import MpBackend, SimBackend, WarmMpBackend
from repro.runtime import mp
from repro.runtime.errors import WorkerCrashError
from repro.sched import TrialScheduler
from repro.trace import RecordingTracer
from tests.conftest import require_mp
from tests.test_fault_injection_mp import two_step_program
from tests.test_trace_backends import strip_wall

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="needs /dev/shm")

_SPAWN_SMOKE = pytest.param("spawn", marks=pytest.mark.smoke)


def _shm() -> set:
    return set(os.listdir("/dev/shm"))


def _children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


def _graph(seed: int):
    """Above the plane's threshold (1500 edges x 24 bytes): staged runs
    publish it."""
    return erdos_renyi(300, 1500, philox_stream(seed), weighted=True)


def _start(start_method: str) -> None:
    require_mp()
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} on this platform")


#: Every owner of a name-built backend, one call each.
_OWNERS = {
    "connected_components": lambda g, b: connected_components(
        g, 2, seed=1, backend=b),
    "approx_minimum_cut": lambda g, b: approx_minimum_cut(
        g, 2, seed=1, backend=b),
    "minimum_cut": lambda g, b: minimum_cut(g, 2, seed=1, trials=2,
                                            backend=b),
    "run_algorithm": lambda g, b: run_algorithm("parallel_cc", g, p=2,
                                                seed=1, backend=b),
    "TrialScheduler.run": lambda g, b: TrialScheduler().run(
        g, 2, seed=1, trials=2, backend=b),
}


@pytest.mark.parametrize("start_method", ["fork", _SPAWN_SMOKE])
@pytest.mark.parametrize("name", ["mp", "warm"])
def test_a_backend_built_from_a_name_is_closed_on_return(name, start_method,
                                                         monkeypatch):
    _start(start_method)
    monkeypatch.setattr(mp, "default_start_method", lambda: start_method)
    # Every instance stays referenced, so only a close() ends its pool.
    built, init = [], MpBackend.__init__
    monkeypatch.setattr(MpBackend, "__init__", lambda self, **kw: (
        built.append(self), init(self, **kw))[1])
    g = _graph(1)
    gc.collect()  # pools other tests dropped in reference cycles
    before, children = _shm(), _children()
    for owner, call in _OWNERS.items():
        call(g, name)
        assert _children() == children, owner
        assert _shm() == before, owner
    with DynamicGraph(g, p=2, seed=1, backend=name) as dyn:
        dyn.query_cut("approx")
        assert dyn.backend.pool_spawns == 1
    assert _children() == children
    assert _shm() == before
    assert len(built) == len(_OWNERS) + 1


def test_an_instance_passed_in_stays_the_callers():
    require_mp()
    g = _graph(1)
    with MpBackend() as be:
        connected_components(g, 2, seed=1, backend=be)
        approx_minimum_cut(g, 2, seed=1, backend=be)
        with DynamicGraph(g, p=2, seed=1, backend=be) as dyn:
            dyn.query_cut("approx")
        assert be._pool is not None and be.pool_spawns == 1
    assert be._pool is None


@pytest.mark.parametrize("start_method", ["fork", _SPAWN_SMOKE])
@pytest.mark.parametrize("cls", [MpBackend, WarmMpBackend])
def test_a_dropped_backend_ends_its_pool(cls, start_method):
    _start(start_method)
    g = _graph(2)
    gc.collect()
    before, children = _shm(), _children()
    be = cls(start_method=start_method)
    for _ in range(2):  # the second run retains its published graph
        connected_components(g, 2, seed=1, backend=be)
    assert be.pool_spawns == 1 and plane.published()
    gc.disable()  # the last reference, not the collector, ends it
    try:
        del be
        assert _children() == children
        assert _shm() == before
        assert plane.published() == {}
    finally:
        gc.enable()


def _answers(backend, g, p: int):
    """CC, AppMC and the exact cut of ``g``, as comparable tuples."""
    cc = connected_components(g, p, seed=3, backend=backend)
    ap = approx_minimum_cut(g, p, seed=3, backend=backend)
    mc = minimum_cut(g, p, seed=3, trials=2, backend=backend)
    return [
        (cc.labels.tobytes(), cc.n_components, cc.report,
         strip_wall(cc.trace)),
        (ap.estimate, ap.witness_value, ap.witness_side.tobytes(), ap.report,
         strip_wall(ap.trace)),
        (mc.value, np.asarray(mc.side).tobytes(), mc.report,
         strip_wall(mc.trace)),
    ]


@pytest.mark.parametrize("cls", [MpBackend, WarmMpBackend])
def test_one_kept_pool_answers_as_the_simulator(cls):
    """More graphs than the pool retains, then another ``p``, then a crash
    and the recovery: every value, report and trace equals sim's."""
    require_mp()
    sim = SimBackend(tracer=RecordingTracer())
    gc.collect()
    before = _shm()
    be = cls(tracer=RecordingTracer())
    graphs = [_graph(seed) for seed in range(be.plane_retain + 2)]
    with be:
        for g in graphs:
            assert _answers(be, g, 2) == _answers(sim, g, 2)
        assert len(plane.published()) == be.plane_retain
        assert be.pool_spawns == 1
        assert _answers(be, graphs[0], 3) == _answers(sim, graphs[0], 3)
        assert be.pool_spawns == 2
        with pytest.raises(WorkerCrashError):
            be.run(two_step_program, 3, faults=[FaultSpec("crash", rank=1,
                                                          step=1)])
        assert be._pool is None and plane.published() == {}
        assert _answers(be, graphs[1], 3) == _answers(sim, graphs[1], 3)
        assert be.pool_spawns == 3
    assert plane.published() == {}
    assert _shm() == before
