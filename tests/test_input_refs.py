"""Whole slices stay put: run inputs travel by reference on mp and warm.

A CC round whose ranks ship their whole slices moves nothing the root
lacks: each slice is one of the run's inputs, which every worker already
holds (inherited under ``fork``, a graph-plane view on a warm pool).  So
the slice travels as an ``InputRef``, a gather of adjacent slices is a
read-only view of the input, and a rank whose slice went to the root
whole does not relabel it.  Results, reports and traces stay the
simulator's, bit for bit.
"""

import dataclasses
import multiprocessing
import operator

import numpy as np
import pytest

import repro.core.components as components
from repro.core.components import cc_program, connected_components
from repro.graph import EdgeList, erdos_renyi
from repro.graph.shm import plane_slices
from repro.rng import philox_stream
from repro.runtime import WarmMpBackend
from repro.runtime.errors import WorkerProgramError
from repro.runtime.mp import MpBackend, default_start_method
from repro.runtime.sim import SimBackend
from repro.trace import RecordingTracer
from tests.conftest import require_mp


def _strip_wall(events):
    return [dataclasses.replace(ev, wall_s=0.0) for ev in events]


def _sim_traced():
    return SimBackend(tracer=RecordingTracer())


@pytest.fixture(scope="module")
def g():
    # s = ceil(4000^1.25) = 31,623 >= m / 1.5: both ranks ship whole in
    # round one, 20k edges (320 KB) each — far above the slab threshold.
    return erdos_renyi(4000, 40_000, philox_stream(11))


@pytest.fixture(params=["mp", "warm"])
def backend(request):
    require_mp()
    cls = MpBackend if request.param == "mp" else WarmMpBackend
    be = cls(timeout=180.0, tracer=RecordingTracer())
    yield be
    if request.param == "warm":
        be.close()


def test_whole_slice_gather_copies_nothing(g, backend):
    sim = connected_components(g, p=2, seed=4, backend=_sim_traced())
    for _ in range(2):  # a warm pool's repeat run as well
        backend.tracer = RecordingTracer()
        got = connected_components(g, p=2, seed=4, backend=backend)
        gatherv = backend.last_transport_stats["per_kind"]["gatherv"]
        assert gatherv["bytes_copied"] == 0
        assert np.array_equal(got.labels, sim.labels)
        assert got.n_components == sim.n_components
        assert got.report == sim.report
        assert _strip_wall(got.trace) == _strip_wall(sim.trace)


def _write_gathered_program(ctx, slices):
    mine = slices[ctx.rank]
    got = yield from ctx.comm.gatherv(mine.u, mine.v, root=0)
    if ctx.rank == 0:
        su = got[0]
        su[0] = su[1]
    return None


def _write_input_program(ctx, slices):
    yield from ctx.comm.barrier()
    mine = slices[ctx.rank]
    mine.u[0] = mine.u[1]
    return None


@pytest.mark.parametrize("program", [_write_gathered_program,
                                     _write_input_program])
def test_writing_into_an_input_raises(backend, program):
    # A graph of its own: publishing (warm) freezes the parent's arrays.
    g = erdos_renyi(4000, 40_000, philox_stream(13))
    with pytest.raises(WorkerProgramError) as err:
        backend.run(program, 2, args=(plane_slices(g, 2),))
    assert err.value.exc_type == "ValueError"
    assert "read-only" in err.value.remote_traceback


def _skewed(g: EdgeList, big: int) -> list[EdgeList]:
    return [g.select(np.arange(0, big)), g.select(np.arange(big, g.m))]


@pytest.mark.parametrize("which", ["mp", "warm"])
def test_skewed_slices_mix_a_reference_and_a_slab(which, monkeypatch):
    """Rank 0 holds 50k edges and samples; rank 1 holds 200 and ships
    whole: the root's gathered column joins a slab part and an input
    reference.  Only rank 1 skips its relabel — and what it skips is
    nothing but loops."""
    require_mp()
    g = erdos_renyi(1000, 50_200, philox_stream(12))
    slices = _skewed(g, 50_000)
    calls = []
    real = components._relabel

    def spy(g_map, u, v, whole):
        full = real(g_map, u, v, False)
        if whole:
            assert full[0].size == 0 and full[1].size == 0
        calls.append((int(u.size), whole))
        return real(g_map, u, v, whole)

    monkeypatch.setattr(components, "_relabel", spy)
    sim = _sim_traced().run(cc_program, 2, seed=6, args=(slices, g.n))
    assert sorted(calls[:2]) == [(200, True), (50_000, False)]
    cls = MpBackend if which == "mp" else WarmMpBackend
    be = cls(timeout=180.0, tracer=RecordingTracer())
    try:
        got = be.run(cc_program, 2, seed=6, args=(slices, g.n))
    finally:
        if which == "warm":
            be.close()
    gatherv = be.last_transport_stats["per_kind"]["gatherv"]
    assert 0 < gatherv["bytes_copied"] < 8 * 2 * 50_000
    labels, count = got.root_value
    assert np.array_equal(labels, sim.root_value[0])
    assert count == sim.root_value[1]
    assert got.report == sim.report
    assert _strip_wall(got.trace) == _strip_wall(sim.trace)


def _own_inputs_program(ctx, arr, g):
    """Every rank ships the same two inputs — a bare array and a whole
    EdgeList's columns — to the root by reference."""
    got = yield from ctx.comm.gatherv(arr, g.u, g.w, root=0)
    total = yield from ctx.comm.allreduce(
        float(sum(c.sum() for c in got)) if ctx.rank == 0 else 0.0,
        op=operator.add)
    return total


@pytest.mark.parametrize("p", [1, 2])
def test_the_callers_inputs_stay_writeable(p, monkeypatch):
    """Rank 0 is the caller, so its registered inputs are the caller's own
    arrays: read-only during the run, writeable again after it.  At p = 1
    the run starts no process at all, and still equals the simulator."""
    require_mp()
    arr = np.arange(10_000, dtype=np.float64)
    g = erdos_renyi(2000, 10_000, philox_stream(14), weighted=True)
    ctx = multiprocessing.get_context(default_start_method())
    real_start, starts = ctx.Process.start, []
    monkeypatch.setattr(ctx.Process, "start",
                        lambda proc: (starts.append(proc), real_start(proc)))
    got = MpBackend(timeout=180.0).run(_own_inputs_program, p, args=(arr, g))
    want = SimBackend().run(_own_inputs_program, p, args=(arr, g))
    assert got.values == want.values and got.report == want.report
    assert len(starts) == p - 1
    assert all(a.flags.writeable for a in (arr, g.u, g.v, g.w))
    arr[0] = g.w[0] = -1.0  # the caller's own arrays again
