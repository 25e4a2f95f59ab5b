"""repro.dynamic: differential fuzz and determinism.

The load-bearing property is the determinism contract from
``docs/dynamic.md``: ``query_components()`` and both ``query_cut()``
modes are **history independent** — bit-identical to a from-scratch
computation on the same epoch's snapshot, no matter which queries
happened earlier and no matter which of incremental / forest /
cc_kernel paths answered.

Everything here fuzzes those claims against the trusted kernels on the
epoch snapshot, across both execution backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import (
    DynamicGraph,
    canonical_roots,
    update_stream,
)
from repro.dynamic.graph import _rank_roots
from repro.graph import (
    EdgeList,
    content_fingerprint,
    erdos_renyi,
    two_cliques_bridge,
)
from repro.kernels import cc_labels, flatten_parents
from repro.rng import philox_stream


def churn(n=80, m=240, seed=0, batches=6, batch_size=12, **kw):
    g = erdos_renyi(n, m, philox_stream(seed + 17), weighted=True)
    stream = list(update_stream(g, seed=seed + 1, batches=batches,
                                batch_size=batch_size, **kw))
    return g, stream


def reference_labels(snap: EdgeList) -> tuple[np.ndarray, int]:
    """Trusted from-scratch labels in the canonical cc_labels form."""
    labels, count = cc_labels(snap.n, snap.u, snap.v)
    return labels, count


# -- canonical_roots ----------------------------------------------------------


def test_canonical_roots_projects_any_dense_labelling():
    # two classes {0,2,4} and {1,3}; ids assigned in either order must
    # project onto the same min-vertex root array
    for labs in ([0, 1, 0, 1, 0], [1, 0, 1, 0, 1]):
        roots = canonical_roots(np.array(labs))
        assert roots.tolist() == [0, 1, 0, 1, 0]


def test_canonical_roots_matches_cc_labels_on_random_graphs():
    for seed in range(5):
        g = erdos_renyi(60, 90, philox_stream(seed))
        labels, count = cc_labels(g.n, g.u, g.v)
        roots = canonical_roots(labels)
        uniq, dense = np.unique(roots, return_inverse=True)
        assert uniq.size == count
        assert np.array_equal(dense, labels)
        # roots really are the minimum member of each class
        for r in uniq.tolist():
            members = np.flatnonzero(roots == r)
            assert members.min() == r


# -- update semantics ---------------------------------------------------------


def test_update_validation():
    g = EdgeList.from_pairs(4, [(0, 1), (1, 2)])
    dyn = DynamicGraph(g, p=2, seed=0)
    with pytest.raises(ValueError):
        dyn.update_edges([("frobnicate", 0, 1)])
    with pytest.raises(ValueError):
        dyn.update_edges([("insert", 0, 0, 1.0)])       # self-loop
    with pytest.raises(ValueError):
        dyn.update_edges([("insert", 0, 9, 1.0)])       # out of range
    with pytest.raises(ValueError):
        dyn.update_edges([("insert", 0, 3, -1.0)])      # bad weight
    with pytest.raises(KeyError):
        dyn.update_edges([("delete", 0, 3)])            # missing edge
    with pytest.raises(KeyError):
        dyn.update_edges([("reweight", 0, 3, 2.0)])     # missing edge


def test_insert_existing_edge_combines_weights():
    g = EdgeList.from_pairs(3, [(0, 1)])
    dyn = DynamicGraph(g, p=2, seed=0)
    dyn.update_edges([("insert", 1, 0, 2.5)])   # reversed orientation too
    snap = dyn.snapshot()
    assert snap.m == 1
    assert snap.w[0] == pytest.approx(3.5)


def test_epoch_closes_per_batch_and_snapshot_is_frozen():
    g = EdgeList.from_pairs(4, [(0, 1), (2, 3)])
    dyn = DynamicGraph(g, p=2, seed=0)
    assert dyn.epoch == 0
    fp0 = dyn.fingerprint()
    st = dyn.update_edges([("insert", 1, 2, 1.0), ("delete", 2, 3)])
    assert dyn.epoch == 1 and st["epoch"] == 1
    snap = dyn.snapshot()
    for a in (snap.u, snap.v, snap.w):
        assert not a.flags.writeable
    assert dyn.fingerprint() != fp0
    # canonical order: snapshot ignores arrival order of updates
    keys = list(zip(snap.u.tolist(), snap.v.tolist()))
    assert keys == sorted(keys)


def test_staleness_fingerprint_is_lazy():
    g, stream = churn(batches=2)
    dyn = DynamicGraph(g, p=2, seed=0)
    st = dyn.update_edges(stream[0])
    # no query materialized the snapshot yet: updates stay O(alpha)
    assert st["fingerprint"] is None
    assert dyn.query_components().fingerprint is None
    fp = dyn.fingerprint()                      # forces the snapshot
    assert dyn.staleness()["fingerprint"] == fp


# -- atomic batches -----------------------------------------------------------


def test_rejected_batch_leaves_no_trace():
    """A batch that fails on a later op applies none of its ops."""
    g, stream = churn(batches=4)
    dyn = DynamicGraph(g, p=2, seed=0)
    twin = DynamicGraph(g, p=2, seed=0)
    for d in (dyn, twin):
        d.update_edges(stream[0])
        d.query_cut(mode="approx")
    before = dyn.staleness()
    snap, fp, labels = dyn.snapshot(), dyn.fingerprint(), dyn.query_components()
    a, b = int(snap.u[0]), int(snap.v[0])
    for bad, exc in (
            ([["insert", 0, 3, 2.0], ["delete", a, b], ["delete", a, b]],
             KeyError),
            ([["delete", a, b], ["reweight", a, b, 1.0]], KeyError),
            ([["reweight", a, b, 3.0], ["insert", 0, 3, float("nan")]],
             ValueError),
            ([["delete", a, b], ["insert", 0]], ValueError),
            ([["delete", a, b], ["insert", "x", 1, 1.0]], ValueError),
            ([["delete", a, b], ["frobnicate", 0, 1]], ValueError)):
        with pytest.raises(exc):
            dyn.update_edges(bad)
        assert dyn.staleness() == before
        assert dyn.snapshot() is snap and dyn.fingerprint() == fp
        assert dyn.query_components() is labels
    # ... and the graph carries on exactly like one that never saw them
    for ops in stream[1:]:
        for d in (dyn, twin):
            d.update_edges(ops)
        assert dyn.fingerprint() == twin.fingerprint()
        assert np.array_equal(dyn.query_components().labels,
                              twin.query_components().labels)
        assert (dyn.query_cut(mode="approx").certificate
                == twin.query_cut(mode="approx").certificate)


def test_batch_ops_see_the_ops_before_them():
    g = EdgeList.from_pairs(5, [(0, 1), (1, 2)])
    dyn = DynamicGraph(g, p=2, seed=0)
    dyn.update_edges([("insert", 3, 4, 1.0), ("reweight", 4, 3, 2.0),
                      ("insert", 0, 4, 1.0), ("delete", 4, 0),
                      ("delete", 0, 1), ("insert", 0, 1, 7.0)])
    snap = dyn.snapshot()
    assert list(zip(snap.u.tolist(), snap.v.tolist(), snap.w.tolist())) == \
        [(0, 1, 7.0), (1, 2, 1.0), (3, 4, 2.0)]
    with pytest.raises(KeyError):
        dyn.update_edges([("delete", 1, 2), ("delete", 2, 1)])
    assert dyn.epoch == 1 and dyn.snapshot() is snap


@pytest.mark.parametrize("op", [
    ["insert", 0.9, 12, 1.0], ["insert", "3", "12", "1.5"],
    ["insert", 3, 12, "1.5"], ["insert", True, 12, 1.0],
    ["insert", np.bool_(True), 12, 1.0], ["reweight", 0, 1, True],
    ["insert", 3, 12, None], ["insert", 3, 12, [1.0]],
    ["insert", 3, 12, 10 ** 400], {"x": 1}, 7, "insert"])
def test_update_ops_are_typed_not_coerced(op):
    """Vertex ids are integers and weights real numbers: a float, string or
    bool is refused (``int``/``float`` used to coerce it), and so is an op
    that is not a sequence; the batch applies and logs nothing."""
    g = EdgeList.from_pairs(16, [(0, 1), (1, 2)])
    dyn = DynamicGraph(g, p=2, seed=0)
    logged = []
    dyn.on_batch = lambda epoch, ops: logged.append(epoch)
    fp = dyn.fingerprint()
    with pytest.raises(ValueError, match="malformed update op"):
        dyn.update_edges([["insert", 4, 5, 1.0], op])
    assert dyn.epoch == 0 and logged == [] and dyn.fingerprint() == fp
    # numpy integers and reals, and integer weights, are what they say
    dyn.update_edges([("insert", np.int64(3), np.int32(12), np.float32(1.5)),
                      ["reweight", 0, 1, 2]])
    snap = dyn.snapshot()
    assert list(zip(snap.u.tolist(), snap.v.tolist(), snap.w.tolist())) == \
        [(0, 1, 2.0), (1, 2, 1.0), (3, 12, 1.5)]
    assert dyn.epoch == 1


# -- differential: the array edge store vs. the sorted dict -------------------


class Mirror:
    """The pre-array-store edge state, kept as the oracle.

    A tuple-keyed dict sorted in the interpreter on every snapshot — the
    code ``repro.dynamic`` ran before the store became arrays.  Fed the
    same ops, it must produce the same bytes.
    """

    def __init__(self, g):
        self.n = g.n
        self.edges = {}
        for a, b, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
            key = (a, b) if a < b else (b, a)
            self.edges[key] = self.edges.get(key, 0.0) + float(w)

    def apply(self, ops):
        for op in ops:
            a, b = int(op[1]), int(op[2])
            key = (a, b) if a < b else (b, a)
            if op[0] == "insert":
                self.edges[key] = self.edges.get(key, 0.0) + float(op[3])
            elif op[0] == "delete":
                del self.edges[key]
            else:
                self.edges[key] = float(op[3])

    def snapshot(self):
        keys = sorted(self.edges)
        u = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
        v = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
        w = np.fromiter((self.edges[k] for k in keys), dtype=np.float64,
                        count=len(keys))
        return EdgeList(self.n, u, v, w, canonical=False, validate=False)


def assert_same_snapshot(dyn, mirror):
    got, want = dyn.snapshot(), mirror.snapshot()
    for a, b in zip((got.u, got.v, got.w), (want.u, want.v, want.w)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert dyn.fingerprint() == content_fingerprint(want)
    assert dyn.snapshot() is got                # repeats are free
    assert dyn.staleness()["m"] == want.m


@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_store_matches_sorted_dict_on_random_streams(seed, stride):
    """Snapshots agree at every ``stride``-th epoch (the rest are skipped,
    so one fold merges several batches, as WAL replay does)."""
    g, stream = churn(n=50, m=120, seed=seed, batches=21, batch_size=14,
                      insert_frac=0.4, delete_frac=0.4)
    dyn, mirror = DynamicGraph(g, p=2, seed=seed), Mirror(g)
    assert_same_snapshot(dyn, mirror)
    for epoch, ops in enumerate(stream, start=1):
        dyn.update_edges(ops)
        mirror.apply(ops)
        if epoch % stride == 0:
            assert_same_snapshot(dyn, mirror)


def test_store_fold_window_edge_cases():
    n = 6
    g = EdgeList(n, np.array([1, 2]), np.array([2, 3]), np.array([1.0, 2.0]))
    dyn, mirror = DynamicGraph(g, p=2, seed=0), Mirror(g)
    windows = [
        # insert + delete of one key: in one batch, then across two
        [[("insert", 0, 5, 1.0), ("delete", 0, 5)]],
        [[("insert", 0, 5, 1.0)], [("delete", 5, 0)]],
        # delete + reinsert of one key, same and different batch
        [[("delete", 1, 2), ("insert", 1, 2, 4.5)]],
        [[("delete", 2, 3)], [("insert", 3, 2, 0.25)]],
        # reweight of a just-inserted edge; insert combining into it
        [[("insert", 2, 4, 1.0)], [("reweight", 2, 4, 3.0)],
         [("insert", 4, 2, 0.5)]],
        # new first and new last key of the sorted store
        [[("insert", 0, 1, 1.0), ("insert", 4, 5, 1.0)]],
        [[]],                                   # an empty batch is an epoch
        # emptying the graph, then growing it back from nothing
        [[("delete", 0, 1), ("delete", 1, 2), ("delete", 2, 3)],
         [("delete", 2, 4), ("delete", 4, 5)]],
        [[("insert", 3, 5, 2.0)]],
    ]
    for window in windows:
        for ops in window:
            dyn.update_edges(ops)
            mirror.apply(ops)
        assert_same_snapshot(dyn, mirror)
    assert dyn.snapshot().m == 1 and dyn.epoch == 14


def test_fingerprint_is_a_function_of_the_edge_set():
    g, stream = churn(n=40, m=90, seed=4, batches=1, batch_size=20)
    ops = stream[0]
    a, b = DynamicGraph(g, p=2, seed=0), DynamicGraph(g, p=2, seed=0)
    a.update_edges(ops)
    # the same ops one per batch, keys in descending order, snapshots taken
    # along the way: another history, one edge set
    for op in sorted(ops, key=lambda op: (-min(op[1:3]), -max(op[1:3]))):
        b.update_edges([op])
        b.snapshot()
    assert a.epoch != b.epoch
    assert a.fingerprint() == b.fingerprint()


def test_duplicate_input_edges_combine_in_arrival_order():
    # float addition does not associate: the sum order is observable
    ws = [0.1, 0.2, 0.3]
    assert (ws[0] + ws[1]) + ws[2] != ws[0] + (ws[1] + ws[2])
    g = EdgeList(3, np.array([0, 1, 1, 0]), np.array([1, 0, 2, 1]),
                 np.array([ws[0], ws[1], 5.0, ws[2]]), validate=False)
    dyn = DynamicGraph(g, p=2, seed=0)
    assert dyn.snapshot().w.tolist() == [(ws[0] + ws[1]) + ws[2], 5.0]
    assert_same_snapshot(dyn, Mirror(g))


# -- differential fuzz: components --------------------------------------------


def test_components_match_scratch_every_epoch():
    g, stream = churn(n=120, m=360, seed=3, batches=10, batch_size=16)
    dyn = DynamicGraph(g, p=2, seed=3)
    vias = set()
    for ops in stream:
        dyn.update_edges(ops)
        cc = dyn.query_components()
        vias.add(cc.via)
        ref, count = reference_labels(dyn.snapshot())
        assert cc.n_components == count
        assert np.array_equal(cc.labels, ref)
        assert cc.epoch == dyn.epoch
    # the workload must actually exercise the incremental machinery
    assert dyn.counters["tree_deletes"] > 0
    assert "incremental" in vias


def test_components_heavy_delete_split_and_reconnect():
    # delete-heavy stream on a sparse graph: splits are guaranteed
    g, stream = churn(n=100, m=140, seed=5, batches=8, batch_size=12,
                      insert_frac=0.1, delete_frac=0.7)
    dyn = DynamicGraph(g, p=2, seed=5)
    for ops in stream:
        dyn.update_edges(ops)
        cc = dyn.query_components()
        ref, count = reference_labels(dyn.snapshot())
        assert cc.n_components == count
        assert np.array_equal(cc.labels, ref)
    assert dyn.counters["splits"] > 0
    assert dyn.counters["reconnects"] > 0


def test_tiny_reconnect_budget_falls_back_to_cc_kernel():
    g, stream = churn(n=100, m=140, seed=5, batches=6, batch_size=12,
                      insert_frac=0.1, delete_frac=0.7)
    dyn = DynamicGraph(g, p=2, seed=5, reconnect_budget=2)
    vias = set()
    for ops in stream:
        dyn.update_edges(ops)
        cc = dyn.query_components()
        vias.add(cc.via)
        ref, _count = reference_labels(dyn.snapshot())
        assert np.array_equal(cc.labels, ref)
    assert dyn.counters["cc_fallbacks"] > 0
    assert "cc_kernel" in vias


def test_connected_and_component_of_agree_with_labels():
    g, stream = churn(seed=7)
    dyn = DynamicGraph(g, p=2, seed=7)
    for ops in stream:
        dyn.update_edges(ops)
    cc = dyn.query_components()
    roots = canonical_roots(cc.labels)
    for x in range(0, g.n, 7):
        assert dyn.component_of(x) == roots[x]
        assert dyn.connected(x, (x * 3 + 1) % g.n) == \
            (cc.labels[x] == cc.labels[(x * 3 + 1) % g.n])


def test_every_answer_path_is_canonical():
    """One stream reaches all three paths; each answers the reference's
    int64 bytes, and ``component_of`` reads the same roots as plain ints."""
    g, stream = churn(n=60, m=80, seed=0, batches=30, batch_size=2,
                      insert_frac=0.2, delete_frac=0.6)
    dyn = DynamicGraph(g, p=2, seed=0, reconnect_budget=6)
    vias = set()
    for ops in stream:
        dyn.update_edges(ops)
        cc = dyn.query_components()
        vias.add(cc.via)
        ref, count = reference_labels(dyn.snapshot())
        assert cc.labels.dtype == np.int64
        assert cc.labels.tobytes() == ref.astype(np.int64).tobytes()
        assert cc.n_components == count
        roots = canonical_roots(cc.labels).tolist()
        got = [dyn.component_of(x) for x in range(g.n)]
        assert got == roots and {type(r) for r in got} == {int}
        assert dyn.query_components() is cc    # finds leave the answer be
        assert cc.labels.tobytes() == ref.astype(np.int64).tobytes()
    assert vias == {"incremental", "forest", "cc_kernel"}


@given(st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=60))
@settings(max_examples=150, deadline=None)
def test_root_ranking_is_the_sorted_unique_inverse(draws):
    """A forest whose every parent is at most its child (union by minimum
    builds one) flattens to min-member roots, which the prefix count ranks
    exactly as ``np.unique`` does."""
    parent = np.array([d % (i + 1) for i, d in enumerate(draws)], np.int64)
    roots = flatten_parents(parent)
    labels, count = _rank_roots(roots)
    uniq, inverse = np.unique(roots, return_inverse=True)
    assert labels.dtype == np.int64 and count == uniq.size
    assert np.array_equal(labels, inverse)


@pytest.mark.parametrize("x, exc", [(-1, ValueError), (4, ValueError),
                                    (1.9, TypeError), (True, TypeError),
                                    ("3", TypeError)])
def test_queries_refuse_ids_updates_refuse(x, exc):
    """``component_of`` / ``connected`` check a vertex id as an update does
    (a negative id would otherwise wrap to the last vertex)."""
    dyn = DynamicGraph(EdgeList.from_pairs(4, [(0, 1), (2, 3)]), p=2, seed=0)
    with pytest.raises(exc):
        dyn.component_of(x)
    with pytest.raises(exc):
        dyn.connected(x, 2)
    assert dyn.component_of(3) == dyn.component_of(np.int64(2)) == 2
    assert dyn.connected(np.int32(0), 1) and not dyn.connected(1, 2)


def test_components_backend_parity(backend):
    """Fallback answers are bit-identical under sim and mp."""
    g, stream = churn(n=90, m=130, seed=9, batches=5, batch_size=12,
                      insert_frac=0.1, delete_frac=0.7)
    dyn = DynamicGraph(g, p=2, seed=9, backend=backend,
                       reconnect_budget=2)   # force fallbacks
    shas = []
    for ops in stream:
        dyn.update_edges(ops)
        cc = dyn.query_components()
        ref, _count = reference_labels(dyn.snapshot())
        assert np.array_equal(cc.labels, ref)
        shas.append(cc.labels.tobytes())
    assert dyn.counters["cc_fallbacks"] > 0
    # the per-epoch byte strings are a pure function of the stream: the
    # sim run of this same test is the cross-backend witness
    assert len(shas) == len(stream)


# -- cut queries --------------------------------------------------------------


def test_exact_cut_matches_scratch_two_out():
    from repro.core.two_out import two_out_minimum_cut
    from repro.dynamic.graph import _CUT_SALT

    g, stream = churn(n=48, m=300, seed=11, batches=3, batch_size=8)
    dyn = DynamicGraph(g, p=2, seed=11, trial_scale=0.2)
    for ops in stream:
        dyn.update_edges(ops)
    res = dyn.query_cut(mode="exact")
    snap = dyn.snapshot()
    seed = dyn._streams.spawn(_CUT_SALT).seed
    ref = two_out_minimum_cut(snap, 2, seed=seed, trial_scale=0.2,
                              backend="sim")
    assert res.value == ref.value
    assert res.witness_value == res.value
    assert res.fingerprint == dyn.fingerprint()
    # repeat query at the same epoch reuses the cached plan
    again = dyn.query_cut(mode="exact")
    assert again.value == res.value
    assert again.certificate["plan_cached"]


def test_exact_cut_history_independence():
    """Interleaved approx queries never move the exact answer."""
    g, stream = churn(n=48, m=300, seed=13, batches=4, batch_size=8)
    plain = DynamicGraph(g, p=2, seed=13, trial_scale=0.2)
    noisy = DynamicGraph(g, p=2, seed=13, trial_scale=0.2)
    for ops in stream:
        plain.update_edges(ops)
        noisy.update_edges(ops)
        noisy.query_cut(mode="approx")    # extra history on one side
    a = plain.query_cut(mode="exact")
    b = noisy.query_cut(mode="exact")
    assert a.value == b.value
    assert a.fingerprint == b.fingerprint


def test_approx_cut_replay_determinism_with_query_schedule():
    """Approx answers replay bit-identically under the same history."""
    g, stream = churn(n=60, m=240, seed=15, batches=6, batch_size=10)

    def run():
        dyn = DynamicGraph(g, p=2, seed=15)
        answers = []
        for i, ops in enumerate(stream):
            dyn.update_edges(ops)
            if i % 2 == 1:
                r = dyn.query_cut(mode="approx")
                answers.append((r.value, r.witness_value, r.side.tobytes(),
                                r.certificate))
        return answers

    assert run() == run()


def test_approx_cut_is_history_independent(backend):
    """Approx answers depend on the epoch graph, seed and p alone.

    Two graphs fed one stream but queried on different schedules agree
    at the end, and both equal a from-scratch ``approx_minimum_cut`` on
    the epoch snapshot at the certificate's seed.
    """
    from repro.core.approx_mincut import approx_minimum_cut

    g, stream = churn(n=60, m=240, seed=25, batches=8, batch_size=10)
    every = DynamicGraph(g, p=2, seed=25, backend=backend)
    never = DynamicGraph(g, p=2, seed=25, backend=backend)
    for ops in stream:
        every.update_edges(ops)
        never.update_edges(ops)
        every.query_cut(mode="approx")
    a = every.query_cut(mode="approx")
    b = never.query_cut(mode="approx")
    ref = approx_minimum_cut(every.snapshot(), 2,
                             seed=a.certificate["query_seed"],
                             backend=backend)
    for res in (a, b):
        assert res.value == ref.estimate
        assert res.witness_value == ref.witness_value
        assert np.array_equal(res.side, ref.witness_side)
    assert a.certificate == b.certificate
    assert a.fingerprint == b.fingerprint == every.fingerprint()


def test_approx_cut_witness_is_exact_on_true_graph():
    g = two_cliques_bridge(10, bridge_weight=2.0)
    dyn = DynamicGraph(g, p=2, seed=0)
    res = dyn.query_cut(mode="approx")
    assert res.side is not None
    assert res.witness_value == pytest.approx(
        dyn.snapshot().cut_value(res.side))
    assert isinstance(res.certificate["query_seed"], int)


def test_disconnected_epoch_answers_zero_cut():
    g = EdgeList.from_pairs(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    dyn = DynamicGraph(g, p=2, seed=0)
    for mode in ("exact", "approx"):
        res = dyn.query_cut(mode=mode)
        assert res.value == 0.0 and res.witness_value == 0.0
        assert res.certificate["disconnected"]
        assert dyn.snapshot().cut_value(res.side) == 0.0


def test_cut_backend_parity(backend):
    g, stream = churn(n=40, m=200, seed=17, batches=2, batch_size=8)
    dyn = DynamicGraph(g, p=2, seed=17, backend=backend, trial_scale=0.2)
    for ops in stream:
        dyn.update_edges(ops)
    exact = dyn.query_cut(mode="exact")
    approx = dyn.query_cut(mode="approx")
    # sim reference: the full contract is value equality across backends
    ref = DynamicGraph(g, p=2, seed=17, backend="sim", trial_scale=0.2)
    for ops in stream:
        ref.update_edges(ops)
    assert exact.value == ref.query_cut(mode="exact").value
    r_approx = ref.query_cut(mode="approx")
    assert approx.value == r_approx.value
    assert approx.certificate == r_approx.certificate
    assert np.array_equal(approx.side, r_approx.side)


def test_sparsifier_certificate_estimates_cuts():
    # the approximate estimate of the bridge cut must be within a few
    # multiples on this easy instance (a sanity bound, not the proof)
    g = two_cliques_bridge(12, bridge_weight=4.0)
    dyn = DynamicGraph(g, p=2, seed=1)
    res = dyn.query_cut(mode="approx")
    assert res.witness_value is not None
    assert res.witness_value <= 6.0 * max(res.value, 4.0)


# -- plan cache integration ---------------------------------------------------


def test_plan_cache_invalidates_exactly_at_epoch_close():
    from repro.runtime import SimBackend

    g, stream = churn(n=40, m=200, seed=21, batches=2, batch_size=6)
    backend = SimBackend()
    dyn = DynamicGraph(g, p=2, seed=21, trial_scale=0.2, backend=backend)
    assert dyn.backend is backend
    assert not dyn.query_cut(mode="exact").certificate["plan_cached"]
    assert dyn.query_cut(mode="exact").certificate["plan_cached"]
    st = backend.plans.stats()
    assert st["entries"] == 1 and st["hits"] == 1
    dyn.update_edges(stream[0])
    res = dyn.query_cut(mode="exact")           # new epoch: new plan key
    assert not res.certificate["plan_cached"]
    st = backend.plans.stats()
    assert st["entries"] == 2 and st["hits"] == 1
    backend.close()
