"""The shared graph plane: publish/pin lifecycle, O(1) handles, parity.

Four layers of guarantees:

* **Registry mechanics** — publish is idempotent, handles pickle in O(1)
  regardless of m, pin counts gate unlinking, and attached views are
  zero-copy and read-only.
* **Bit-identity** — sim / mp(plane on) / mp(plane off) / warm produce
  identical results, counters and traces: the plane is transport, not
  semantics.
* **Lifetime** — two owners: the run in flight and, between runs, the
  warm backend's retention window (one pin per retained graph).  They
  leave zero ``/dev/shm`` segments after normal shutdown *and* after a
  worker crash mid-run.
* **Store plumbing** — BoundedLRU's ``on_evict`` fires for every
  departure (eviction, pop, clear) and never for same-key replacement.
"""

import glob
import multiprocessing
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.cache.store import BoundedLRU
from repro.graph import EdgeList, erdos_renyi
from repro.graph import shm as plane
from repro.graph.fingerprint import cached_fingerprint, content_fingerprint
from repro.rng import philox_stream
from repro.trace import RecordingTracer

from .conftest import require_mp


def shm_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{plane.SEGMENT_PREFIX}*")


@pytest.fixture(autouse=True)
def clean_plane():
    """Every test starts and ends with an empty plane."""
    plane.shutdown_plane()
    yield
    plane.shutdown_plane()
    assert shm_segments() == []


@pytest.fixture
def big_graph():
    """Comfortably above PLANE_MIN_BYTES (4000 edges * 24 bytes)."""
    return erdos_renyi(400, 4000, philox_stream(7), weighted=True)


# -- registry mechanics ------------------------------------------------------

def test_publish_idempotent_and_pin_gated(big_graph):
    h1 = plane.publish(big_graph)
    h2 = plane.publish(big_graph)
    assert h1 is h2
    assert len(shm_segments()) == 1

    plane.pin(h1.fingerprint)
    assert not plane.unpublish(h1.fingerprint)   # pinned: stays
    assert shm_segments()
    plane.unpin(h1.fingerprint)
    assert plane.unpublish(h1.fingerprint)       # last pin gone: unlinked
    assert shm_segments() == []


def test_handle_pickles_in_o1(big_graph):
    small = erdos_renyi(400, 4000, philox_stream(8), weighted=True)
    huge = erdos_renyi(2000, 40_000, philox_stream(8), weighted=True)
    hs = plane.publish(small)
    hh = plane.publish(huge)
    bs, bh = pickle.dumps(hs), pickle.dumps(hh)
    # O(1): 10x the edges adds at most a few bytes of integer width.
    assert abs(len(bh) - len(bs)) <= 16
    assert len(bh) < 400
    plane.shutdown_plane()


def test_publisher_resolves_to_original_object(big_graph):
    h = plane.publish(big_graph)
    assert h.graph() is big_graph


def _resolve_in_child(handle, m):
    raise SystemExit(0 if plane.resolve_plane(handle).m == m else 1)


def test_fork_while_lock_held(big_graph):
    """A fork taken while another thread is inside the registry's critical
    section must not hand the child a lock nobody will ever release (the
    daemon forks its warm pool while request threads may read the
    registry)."""
    require_mp()
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    handle = plane.publish(big_graph)
    held = threading.Event()

    def hold():
        with plane._LOCK:
            held.set()
            time.sleep(0.3)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(10)
    child = multiprocessing.get_context("fork").Process(
        target=_resolve_in_child, args=(handle, big_graph.m), daemon=True)
    child.start()
    child.join(30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join(10)
    holder.join(10)
    assert not hung, "child deadlocked on a lock inherited held"
    assert child.exitcode == 0
    assert plane._LOCK.acquire(blocking=False)  # no thread holds it
    plane._LOCK.release()


def test_views_are_zero_copy_and_read_only(big_graph):
    h = plane.publish(big_graph)
    seg = plane._REGISTRY[h.fingerprint].seg
    g2 = plane._views_from_buffer(h, seg.buf)
    assert np.array_equal(g2.u, big_graph.u)
    assert np.array_equal(g2.v, big_graph.v)
    assert np.array_equal(g2.w, big_graph.w)
    for a in (g2.u, g2.v, g2.w):
        assert not a.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        g2.u[0] = 99
    # zero-copy: the views' memory lives inside the segment buffer
    base = np.frombuffer(seg.buf, dtype=np.uint8)
    assert g2.u.__array_interface__["data"][0] >= \
        base.__array_interface__["data"][0]


def test_small_graphs_stay_inline(tiny_path):
    assert not plane.eligible(tiny_path)
    pins = []
    staged = plane.stage_plane((plane.plane_slices(tiny_path, 2), 4), pins)
    slices, n = staged
    assert pins == []
    assert isinstance(slices, list)          # resolved, not a handle
    assert n == 4
    assert shm_segments() == []


def test_plane_slices_marker_refuses_pickle(big_graph):
    with pytest.raises(TypeError):
        pickle.dumps(plane.plane_slices(big_graph, 4))


def test_stage_and_resolve_round_trip(big_graph):
    pins = []
    staged = plane.stage_plane(
        {"a": (plane.plane_slices(big_graph, 4), 1)}, pins)
    assert pins == [cached_fingerprint(big_graph)]
    marker = staged["a"][0]
    assert isinstance(marker, plane.SlicedHandle)
    wire = pickle.loads(pickle.dumps(marker))   # O(1) across the wire
    out = plane.resolve_plane({"a": (wire, 1)})
    got = out["a"][0]
    want = big_graph.slices(4)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)
    # repeat resolution returns the identical cached objects
    assert plane.resolve_plane(wire) is got or \
        plane.resolve_plane(wire)[0] is got[0]
    plane.release_pins(pins)
    assert shm_segments() == []


def test_cached_fingerprint_matches_and_memoizes(big_graph):
    fp = content_fingerprint(big_graph)
    assert cached_fingerprint(big_graph) == fp
    assert cached_fingerprint(big_graph) == fp  # memo hit, same value


# -- bit-identity across backends -------------------------------------------

def _canon(rr):
    return (rr.root_value, rr.report)


def test_sim_mp_warm_bit_identity(big_graph):
    """Every input path gives the simulator's answer: a fork one-shot run
    inherits its slices, a spawn one-shot run attaches the published
    graph, a warm pool attaches and retains it."""
    require_mp()
    from repro.core.approx_mincut import approx_minimum_cut
    from repro.core.components import connected_components
    from repro.runtime.mp import MpBackend
    from repro.runtime.sim import SimBackend
    from repro.runtime.warm import WarmMpBackend
    from tests.test_trace_backends import strip_wall

    def answers(be):
        cc = connected_components(big_graph, p=2, seed=3, backend=be)
        cut = approx_minimum_cut(big_graph, p=2, seed=3, backend=be)
        return (cc.n_components, cc.labels.tolist(), cc.report,
                strip_wall(cc.trace), cut.estimate, cut.witness_value,
                cut.witness_side.tolist(), cut.report, strip_wall(cut.trace))

    ref = answers(SimBackend(tracer=RecordingTracer()))
    starts = [m for m in ("fork", "spawn")
              if m in multiprocessing.get_all_start_methods()]
    for make in [lambda m=m: MpBackend(start_method=m,
                                       tracer=RecordingTracer())
                 for m in starts] + [
                     lambda: WarmMpBackend(tracer=RecordingTracer())]:
        be = make()
        try:
            assert answers(be) == ref, (be.name, be.start_method)
        finally:
            be.close()
    assert shm_segments() == []


def test_fork_one_shot_publishes_and_pickles_nothing(big_graph, monkeypatch):
    """Fork workers inherit the run: no plane segment, no /dev/shm entry
    left behind, and the ``input`` stats kind reads 0 argument bytes."""
    require_mp()
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    from repro.core.components import connected_components
    from repro.runtime.mp import MpBackend

    def refuse(*args, **kwargs):
        raise AssertionError("a fork one-shot run published its input")

    monkeypatch.setattr(plane, "publish", refuse)
    before = set(os.listdir("/dev/shm"))
    be = MpBackend(start_method="fork")
    r = connected_components(big_graph, p=2, seed=3, backend=be)
    ref = connected_components(big_graph, p=2, seed=3, backend="sim")
    assert np.array_equal(r.labels, ref.labels)
    assert plane.published() == {}
    assert be.last_transport_stats["per_kind"]["input"]["pickle_bytes"] == 0
    be.close()  # the pool outlives the run; closing it leaves nothing
    assert set(os.listdir("/dev/shm")) == before


def test_mp_input_bytes_reduction(big_graph):
    """Under spawn a one-shot run still ships its input: the plane cuts
    it to handles."""
    require_mp()
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("no spawn start method on this platform")
    from repro.core.mincut import minimum_cut
    from repro.runtime.mp import MpBackend

    inputs = {}
    values = {}
    for label, on in (("off", False), ("on", True)):
        be = MpBackend(start_method="spawn", graph_plane=on)
        r = minimum_cut(big_graph, p=4, seed=5, trials=4, backend=be)
        values[label] = r.value
        inputs[label] = \
            be.last_transport_stats["per_kind"]["input"]["pickle_bytes"]
        be.close()  # the pool retains the published graph until then
    assert values["on"] == values["off"]
    assert inputs["off"] / inputs["on"] >= 5.0
    assert shm_segments() == []


def test_warm_retention_and_program_token(big_graph):
    require_mp()
    from repro.core.components import connected_components
    from repro.runtime.warm import WarmMpBackend

    be = WarmMpBackend(graph_plane=True)
    try:
        r1 = connected_components(big_graph, p=4, seed=3, backend=be)
        assert len(plane.published()) == 1      # retained between runs
        bytes1 = be.last_transport_stats["per_kind"]["input"]["pickle_bytes"]
        r2 = connected_components(big_graph, p=4, seed=3, backend=be)
        bytes2 = be.last_transport_stats["per_kind"]["input"]["pickle_bytes"]
        assert r1.n_components == r2.n_components
        assert r1.report == r2.report
        assert be.pool_spawns == 1              # pool survived both runs
        # repeat query ships no program body (token) and no arrays
        assert bytes2 <= bytes1
        assert bytes2 < 4096
    finally:
        be.close()
    assert plane.published() == {}
    assert shm_segments() == []


def test_warm_retention_window_evicts(big_graph):
    require_mp()
    from repro.core.components import connected_components
    from repro.runtime.warm import WarmMpBackend

    be = WarmMpBackend(graph_plane=True, plane_retain=1)
    try:
        g2 = erdos_renyi(400, 4000, philox_stream(11), weighted=True)
        connected_components(big_graph, p=2, seed=1, backend=be)
        connected_components(g2, p=2, seed=1, backend=be)
        assert len(plane.published()) == 1      # window of 1: first evicted
        assert list(plane.published()) == [cached_fingerprint(g2)]
    finally:
        be.close()
    assert shm_segments() == []


def test_worker_crash_leaks_no_segments(big_graph):
    require_mp()
    from repro.core.components import cc_program
    from repro.faults import FaultSpec
    from repro.runtime.errors import WorkerFailure
    from repro.runtime.mp import MpBackend

    be = MpBackend(graph_plane=True)
    with pytest.raises(WorkerFailure):
        be.run(cc_program, 2, seed=1,
               args=(plane.plane_slices(big_graph, 2), big_graph.n),
               faults=[FaultSpec("crash", rank=1, step=1)])
    assert plane.published() == {}              # run pin released on error
    assert shm_segments() == []


# -- one owner between runs ---------------------------------------------------

def test_warm_retention_is_the_only_owner_between_runs(big_graph):
    """A scheduled run's waves, repeat CC queries and a dynamic graph's
    epochs on one warm backend: between runs every published graph holds
    exactly the retention window's one pin, a repeat keeps its segment
    (published once), the window bounds what stays, and close() unlinks
    it all."""
    require_mp()
    from repro.core.components import connected_components
    from repro.dynamic import DynamicGraph
    from repro.runtime.warm import WarmMpBackend
    from repro.sched.scheduler import TrialScheduler

    be = WarmMpBackend(graph_plane=True, plane_retain=3)

    def between_runs() -> dict[str, str]:
        """fingerprint -> segment name, once the invariants are checked."""
        pins = plane.published()
        assert set(pins.values()) <= {1}, pins
        assert 1 <= len(pins) <= be.plane_retain
        assert len(shm_segments()) == len(pins)
        return {fp: plane._REGISTRY[fp].seg.name for fp in pins}

    try:
        sched = TrialScheduler(wave_size=2)
        run = sched.begin(big_graph, 2, backend=be, seed=3, trials=6)
        assert len(run.waves) == 3
        seen = []
        while run.step():
            seen.append(between_runs())
        assert sched.finish(run).completed == 6
        first = seen[0]
        assert list(first) == [cached_fingerprint(big_graph)]
        assert seen == [first] * 3               # one publish for 3 waves
        for _ in range(2):
            connected_components(big_graph, p=2, seed=1, backend=be)
            assert between_runs() == first
        with DynamicGraph(big_graph, p=2, seed=0, backend=be) as dyn:
            epochs = set()
            for i in range(3):
                dyn.update_edges([("insert", i, 399 - i, 1.0)])
                assert dyn.query_cut(mode="approx").epoch == i + 1
                epochs.add(dyn.fingerprint())
                assert dyn.fingerprint() in between_runs()
        # a window of 3: the three epochs pushed the base graph out
        assert len(epochs) == 3 and set(between_runs()) == epochs
    finally:
        be.close()
    assert plane.published() == {}
    assert shm_segments() == []


def test_graph_cache_plane_off_publishes_nothing(big_graph):
    from repro.serve.cache import GraphCache

    cache = GraphCache()
    cache.put_graph(big_graph)
    assert plane.published() == {}
    cache.close()


# -- BoundedLRU on_evict ------------------------------------------------------

def test_bounded_lru_on_evict_paths():
    gone = []
    lru = BoundedLRU(2, on_evict=lambda k, v: gone.append((k, v)))
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)            # same-key replace: no callback
    assert gone == []
    lru.put("c", 3)             # evicts LRU ("b")
    assert gone == [("b", 2)]
    assert lru.pop("a") == 10   # pop fires too
    assert gone == [("b", 2), ("a", 10)]
    lru.clear()                 # clear fires for the rest
    assert gone == [("b", 2), ("a", 10), ("c", 3)]
    assert lru.pop("missing", "d") == "d"
    assert len(gone) == 3


def test_bounded_lru_on_evict_reentrant():
    lru = BoundedLRU(1, on_evict=lambda k, v: len(lru))  # touches the lock
    lru.put("a", 1)
    lru.put("b", 2)             # eviction callback must not deadlock
    assert "b" in lru
