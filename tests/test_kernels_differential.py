"""Differential tests: vectorized kernels vs their scalar references.

Every fast kernel in :mod:`repro.kernels` must return *byte-identical*
output to the scalar loop it replaced (weights excepted, which may differ
by float-summation order — see ``scalar_bulk_contract``).  The families
below exercise the shapes that break naive vectorizations: stars (deep
fan-in), paths (long chains), parallel-edge-heavy multigraphs, self-loop
heavy streams, the empty graph, and a single vertex — plus
hypothesis-generated random edge streams.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contraction import prefix_select
from repro.graph.contract import compress_labels
from repro.kernels import (
    bulk_contract_edges,
    cc_labels,
    cc_roots,
    combine_packed,
    earliest_forest,
    flatten_parents,
    prefix_select_labels,
    scalar_bulk_contract,
    scalar_cc_roots,
    scalar_earliest_forest,
    scalar_prefix_select,
    stable_sort_with_order,
)
from repro.kernels import unionfind

# ---------------------------------------------------------------------------
# Edge-set families
# ---------------------------------------------------------------------------


def _families():
    rng = np.random.default_rng(7)
    fams = {
        "empty": (5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        "single_vertex": (1, np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64)),
        "single_selfloop": (3, np.array([1]), np.array([1])),
        "star": (64, np.zeros(63, dtype=np.int64),
                 np.arange(1, 64, dtype=np.int64)),
        "reversed_star": (64, np.arange(1, 64, dtype=np.int64),
                          np.zeros(63, dtype=np.int64)),
        "path": (80, np.arange(79, dtype=np.int64),
                 np.arange(1, 80, dtype=np.int64)),
        "reversed_path": (80, np.arange(79, 0, -1, dtype=np.int64),
                          np.arange(78, -1, -1, dtype=np.int64)),
    }
    u = rng.integers(0, 12, size=300)
    v = rng.integers(0, 12, size=300)
    fams["parallel_heavy"] = (12, u, v)
    u = rng.integers(0, 40, size=200)
    v = np.where(rng.random(200) < 0.5, u, rng.integers(0, 40, size=200))
    fams["selfloop_heavy"] = (40, u, v)
    u = rng.integers(0, 500, size=400)
    v = rng.integers(0, 500, size=400)
    fams["sparse_random"] = (500, u, v)
    return fams


FAMILIES = _families()


@st.composite
def edge_streams(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    ints = st.integers(min_value=0, max_value=n - 1)
    u = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.int64)
    v = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.int64)
    return n, u, v


# ---------------------------------------------------------------------------
# Connected components / union-find
# ---------------------------------------------------------------------------


def scalar_cc_labels(n, u, v):
    """Dense labels + count from the scalar oracle's min-vertex roots."""
    return compress_labels(scalar_cc_roots(n, u, v))


@pytest.mark.parametrize("family", sorted(FAMILIES),
                         ids=lambda family: f"scipy-{family}")
def test_cc_roots_backends_exact(family):
    n, u, v = FAMILIES[family]
    np.testing.assert_array_equal(cc_roots(n, u, v),
                                  scalar_cc_roots(n, u, v))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cc_labels_backends_exact(family):
    n, u, v = FAMILIES[family]
    ref_labels, ref_count = scalar_cc_labels(n, u, v)
    labels, count = cc_labels(n, u, v)
    assert count == ref_count
    np.testing.assert_array_equal(labels, ref_labels)


@given(edge_streams())
@settings(max_examples=120, deadline=None)
def test_cc_roots_random_exact(stream):
    n, u, v = stream
    np.testing.assert_array_equal(cc_roots(n, u, v),
                                  scalar_cc_roots(n, u, v))


# ---------------------------------------------------------------------------
# Two-level cc_labels: sample -> contract -> filter, engaged at m >= 4n
# (and m >= 2^15, a speed floor the small families below switch off so the
# per-edge scalar oracle can check the composition itself)
# ---------------------------------------------------------------------------


@pytest.fixture
def no_edge_floor(monkeypatch):
    monkeypatch.setattr(unionfind, "_ENGAGE_MIN_EDGES", 0)


def _dense_families():
    rng = np.random.default_rng(11)

    def er(n, m):
        return rng.integers(0, n, size=m), rng.integers(0, n, size=m)

    fams = {}
    n = 400
    u, v = er(n, 8000)
    fams["dense_er"] = (n, u, v)
    order = np.lexsort((v, u))
    fams["dense_er_sorted"] = (n, u[order], v[order])
    fams["dense_er_reversed"] = (n, u[order][::-1], v[order][::-1])
    fams["dense_er_int32"] = (n, u.astype(np.int32), v.astype(np.int32))
    fams["dense_er_strided_view"] = (n, np.repeat(u, 2)[::2],
                                     np.repeat(v, 2)[1::2])
    path = np.arange(299, dtype=np.int64)
    fams["path"] = (300, path, path + 1)  # m < 4n: single pass
    fams["path_repeated"] = (300, np.tile(path, 5), np.tile(path + 1, 5))
    block = rng.integers(0, 20, size=6000) * 30
    fams["dense_blocks"] = (600, block + rng.integers(0, 30, size=6000),
                            block + rng.integers(0, 30, size=6000))
    du, dv = er(200, 3000)
    tail = np.arange(200, 399, dtype=np.int64)
    fams["dense_half_path_half"] = (400, np.r_[du, tail], np.r_[dv, tail + 1])
    u = rng.integers(0, 50, size=2000)
    fams["duplicates_and_loops"] = (
        50, u, np.where(rng.random(2000) < 0.5, u, (u * 7 + 1) % 50))
    for m in (399, 400, 401):  # around the engage threshold, n = 100
        fams[f"threshold_m{m}"] = (100,) + er(100, m)
    fams["ragged_stride"] = (100,) + er(100, 701)  # stride 3, 701 % 3 == 2
    # The strided sample (every 4th edge) is a spanning path on its own:
    # one supervertex, every edge a loop, no survivors.
    u, v = er(50, 400)
    u[::4] = np.arange(100) % 49
    v[::4] = np.arange(100) % 49 + 1
    fams["sample_spans"] = (50, u, v)
    # ...and the reverse: the sample is all loops and collapses nothing.
    u, v = er(50, 400)
    v[::4] = u[::4]
    fams["sample_all_loops"] = (50, u, v)
    loops = rng.integers(0, 10, size=100)
    fams["all_loops"] = (10, loops, loops)
    fams["n1"] = (1, np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64))
    fams["n2"] = (2, np.array([1, 0, 1, 1, 0, 1, 0, 0, 1, 0]),
                  np.array([1, 1, 0, 1, 0, 1, 0, 1, 1, 0]))
    fams["n2_loops"] = (2, np.array([0, 1] * 4), np.array([0, 1] * 4))
    return fams


DENSE_FAMILIES = _dense_families()


def _single_pass_calls(monkeypatch):
    """Spy on the private single-pass helper: records each call's m."""
    calls = []
    inner = unionfind._scipy_pass

    def spy(n, u, v):
        calls.append(int(u.size))
        return inner(n, u, v)

    monkeypatch.setattr(unionfind, "_scipy_pass", spy)
    return calls


@pytest.mark.parametrize("family", sorted(DENSE_FAMILIES))
def test_two_level_cc_matches_scalar_oracle(family, no_edge_floor):
    n, u, v = DENSE_FAMILIES[family]
    ref_labels, ref_count = scalar_cc_labels(n, u, v)
    labels, count = cc_labels(n, u, v)
    assert labels.dtype == np.int64 and labels.flags.c_contiguous
    assert isinstance(count, int) and count == ref_count
    np.testing.assert_array_equal(labels, ref_labels)
    roots = cc_roots(n, u, v)
    assert roots.dtype == np.int64
    np.testing.assert_array_equal(roots, scalar_cc_roots(n, u, v))


@pytest.mark.parametrize("m, passes", [(399, 1), (400, 2), (401, 2)])
def test_two_level_engages_at_four_edges_per_vertex(monkeypatch, m, passes,
                                                    no_edge_floor):
    calls = _single_pass_calls(monkeypatch)
    n, u, v = DENSE_FAMILIES[f"threshold_m{m}"]
    cc_labels(n, u, v)
    assert len(calls) == passes
    if passes == 2:
        assert calls[0] == u[::m // (2 * n)].size  # the strided sample


@pytest.mark.parametrize("m, passes", [((1 << 14) - 1, 1), (1 << 14, 2)])
def test_two_level_engages_at_the_edge_floor(monkeypatch, m, passes):
    calls = _single_pass_calls(monkeypatch)
    rng = np.random.default_rng(13)
    n = 1000
    u, v = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    v[: n // 2] = u[: n // 2]
    labels, count = cc_labels(n, u, v)
    assert len(calls) == passes
    ref_labels, ref_count = unionfind._scipy_pass(n, u, v)  # one pass, all m
    assert count == ref_count
    np.testing.assert_array_equal(labels, ref_labels)


def test_two_level_sample_extremes(monkeypatch, no_edge_floor):
    calls = _single_pass_calls(monkeypatch)
    n, u, v = DENSE_FAMILIES["sample_spans"]
    assert cc_labels(n, u, v)[1] == 1
    assert calls == [100, 0]  # one supervertex: nothing survives
    del calls[:]
    n, u, v = DENSE_FAMILIES["sample_all_loops"]
    cc_labels(n, u, v)
    assert calls == [100, int((u != v).sum())]  # nothing filtered but loops


@st.composite
def dense_edge_streams(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    m = draw(st.integers(min_value=4 * n, max_value=8 * n))
    ints = st.integers(min_value=0, max_value=n - 1)
    u = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.int64)
    v = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.int64)
    return n, u, v


@given(dense_edge_streams())
@settings(max_examples=150, deadline=None)
def test_two_level_labels_in_first_appearance_order(stream):
    n, u, v = stream
    with pytest.MonkeyPatch.context() as patch:  # fixtures outlive an example
        patch.setattr(unionfind, "_ENGAGE_MIN_EDGES", 0)
        labels, count = cc_labels(n, u, v)
    uniq, first_seen = np.unique(labels, return_index=True)
    np.testing.assert_array_equal(uniq, np.arange(count))
    assert np.all(np.diff(first_seen) > 0)
    np.testing.assert_array_equal(labels, scalar_cc_labels(n, u, v)[0])


def _golden_runs(backend):
    """Everything above the kernel that could move: values and reports."""
    import dataclasses

    from repro.core import approx_minimum_cut, connected_components
    from repro.dynamic import DynamicGraph
    from repro.graph import erdos_renyi
    from repro.rng import philox_stream

    g = erdos_renyi(600, 6000, philox_stream(31))
    gw = erdos_renyi(300, 2400, philox_stream(32), weighted=True)
    out = []
    cc = connected_components(g, p=3, seed=4, backend=backend)
    out.append((cc.labels.tobytes(), cc.n_components,
                dataclasses.asdict(cc.report)))
    for pipelined in (False, True):
        cut = approx_minimum_cut(gw, p=3, seed=4, pipelined=pipelined,
                                 backend=backend)
        out.append((cut.estimate, cut.witness_value,
                    cut.witness_side.tobytes(),
                    dataclasses.asdict(cut.report)))
    with DynamicGraph(g, p=2, seed=4, backend=backend,
                      reconnect_budget=0) as dyn:
        a, b = divmod(min(dyn._tree), dyn.n)   # keys are u * n + v
        dyn.update_edges([("delete", a, b)])
        res = dyn.query_components()
        assert res.via == "cc_kernel"
        out.append((res.labels.tobytes(), res.n_components))
    return out


def test_two_level_changes_nothing_above_the_kernel(backend, monkeypatch,
                                                    no_edge_floor):
    """Labels, estimate, witness and ``report`` are those of the single-pass
    kernel (the parent commit's), on sim and on forked mp workers."""
    calls = _single_pass_calls(monkeypatch)
    two_level = _golden_runs(backend)
    passes = len(calls)
    del calls[:]

    def single_pass(n, u, v):
        labels, count = unionfind._scipy_pass(n, u, v)
        return labels.astype(np.int64), count

    monkeypatch.setattr(unionfind, "_cc_labels_scipy", single_pass)
    assert _golden_runs(backend) == two_level
    if backend == "sim":  # forked workers do not report back to the spy
        assert passes > len(calls) > 0, "the two-level path never engaged"


ID_FAMILIES = ([("small", f) for f in sorted(FAMILIES)]
               + [("dense", f) for f in sorted(DENSE_FAMILIES)])


@pytest.mark.parametrize("table, family", ID_FAMILIES)
@pytest.mark.parametrize("ids", [np.int32, np.int64])
def test_ids_in_int32_or_int64_labels_out_int64(table, family, ids,
                                                monkeypatch, no_edge_floor):
    """int32 ids reach scipy as they are (no upcast) and give the int64
    labels and roots of the scalar oracle, byte for byte."""
    n, u, v = (FAMILIES if table == "small" else DENSE_FAMILIES)[family]
    u, v = u.astype(ids), v.astype(ids)
    seen = []
    inner = unionfind._scipy_pass

    def spy(k, su, sv):
        seen.append(su.dtype)
        return inner(k, su, sv)

    monkeypatch.setattr(unionfind, "_scipy_pass", spy)
    ref_labels, ref_count = scalar_cc_labels(n, u, v)
    labels, count = cc_labels(n, u, v)
    assert labels.dtype == np.int64 and count == ref_count
    assert labels.tobytes() == ref_labels.astype(np.int64).tobytes()
    roots = cc_roots(n, u, v)
    assert roots.dtype == np.int64
    assert roots.tobytes() == scalar_cc_roots(n, u, v).tobytes()
    assert seen[:1] in ([], [np.dtype(ids)])  # the first pass reads u as is


def test_flatten_parents_matches_naive():
    rng = np.random.default_rng(3)
    for n in (1, 2, 17, 200):
        # Random forest: parent[i] <= i guarantees acyclicity.
        parent = np.array([rng.integers(0, i + 1) for i in range(n)],
                          dtype=np.int64)
        naive = parent.copy()
        for x in range(n):
            r = x
            while naive[r] != r:
                r = naive[r]
            naive[x] = r
        np.testing.assert_array_equal(flatten_parents(parent), naive)


# ---------------------------------------------------------------------------
# Earliest-arrival forest and Prefix Selection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_earliest_forest_exact(family):
    n, u, v = FAMILIES[family]
    su, sv = scalar_earliest_forest(n, u, v)
    fu, fv = earliest_forest(n, u, v)
    np.testing.assert_array_equal(fu, su)
    np.testing.assert_array_equal(fv, sv)


@given(edge_streams())
@settings(max_examples=120, deadline=None)
def test_earliest_forest_random_exact(stream):
    n, u, v = stream
    su, sv = scalar_earliest_forest(n, u, v)
    fu, fv = earliest_forest(n, u, v)
    np.testing.assert_array_equal(fu, su)
    np.testing.assert_array_equal(fv, sv)


def _assert_matches_oracle(n, u, v, t):
    exp_labels, exp_count = scalar_prefix_select(n, u, v, t)
    labels, count = prefix_select_labels(n, u, v, t)
    assert count == exp_count
    assert labels.dtype == exp_labels.dtype == np.int64
    np.testing.assert_array_equal(labels, exp_labels)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_prefix_select_exact_all_targets(family):
    n, u, v = FAMILIES[family]
    for t in {1, 2, max(1, n // 2), max(1, n - 1), n}:
        _assert_matches_oracle(n, u, v, t)


@given(edge_streams(), st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_prefix_select_random_exact(stream, t):
    n, u, v = stream
    _assert_matches_oracle(n, u, v, min(t, n))


def test_prefix_select_entry_point_matches_oracle():
    n, u, v = FAMILIES["sparse_random"]
    exp_labels, exp_count = scalar_prefix_select(n, u, v, 50)
    labels, count = prefix_select(n, u, v, 50)
    assert count == exp_count
    np.testing.assert_array_equal(labels, exp_labels)


def test_prefix_select_small_k_sweep():
    """Every (n, t) the Karger–Stein recursion tail can ask for, on samples
    with self-loops and repeated pairs; also too-short and empty samples,
    strided views and int32 inputs."""
    rng = np.random.default_rng(21)
    for n in range(1, 25):
        u = rng.integers(0, n, size=4 * n)
        v = np.where(rng.random(4 * n) < 0.2, u, rng.integers(0, n, size=4 * n))
        u[n:2 * n], v[n:2 * n] = u[:n], v[:n]  # every early pair arrives twice
        wide_u, wide_v = np.repeat(u, 2), np.repeat(v, 2)
        for t in range(1, n + 1):
            _assert_matches_oracle(n, u, v, t)
            _assert_matches_oracle(n, u[:0], v[:0], t)
            _assert_matches_oracle(n, u[:n // 3], v[:n // 3], t)
            _assert_matches_oracle(n, wide_u[::2], wide_v[::2], t)
            _assert_matches_oracle(n, u.astype(np.int32), v.astype(np.int32), t)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_prefix_select_stops_around_block_boundary(monkeypatch, offset):
    """The merge that reaches ``t`` is the last edge of a block, the one
    before it, or the first edge of the next block."""
    from repro.kernels import unionfind

    block = 8
    monkeypatch.setattr(unionfind, "_SAMPLE_BLOCK", block)
    n = 40
    # A path: every edge merges, so edge i brings the count to n - 1 - i.
    u = np.arange(n - 1, dtype=np.int64)
    v = u + 1
    stop_edge = 2 * block - 1 + offset
    _assert_matches_oracle(n, u, v, n - 1 - stop_edge)


@pytest.mark.parametrize("s", [0, 1, 8, 9])
def test_prefix_select_sample_sizes_around_one_block(monkeypatch, s):
    from repro.kernels import unionfind

    monkeypatch.setattr(unionfind, "_SAMPLE_BLOCK", 8)
    rng = np.random.default_rng(s)
    n = 12
    u = rng.integers(0, n, size=s)
    v = rng.integers(0, n, size=s)
    for t in (1, 2, n - 1, n):
        _assert_matches_oracle(n, u, v, t)


@pytest.mark.parametrize("t", [2, 2000, 20_000])
def test_prefix_select_large_matches_oracle(t):
    """The other end of the size range: one kernel, no dispatch."""
    n, s = 20_000, 40_000
    rng = np.random.default_rng(17)
    _assert_matches_oracle(n, rng.integers(0, n, size=s),
                           rng.integers(0, n, size=s), t)


@pytest.mark.parametrize("n,s", [(1, 4), (9, 32), (14, 32), (81, 302)])
def test_prefix_select_stack_is_its_rows(monkeypatch, n, s):
    """A ``(B, s)`` sample is B single calls, byte for byte, and each row is
    the scalar oracle's: one target or one per row, rows that stop early,
    never reach ``t`` or cross a block."""
    monkeypatch.setattr(unionfind, "_SAMPLE_BLOCK", 16)
    rng = np.random.default_rng(n)
    su = rng.integers(0, n, size=(7, s))
    sv = np.where(rng.random((7, s)) < 0.2, su, rng.integers(0, n, size=(7, s)))
    su[2, :], sv[2, :] = su[2, 0], sv[2, 0]  # one edge, repeated: stalls
    t_row = rng.integers(1, n + 1, size=7)
    for t in (t_row, max(1, n // 2)):
        labels, counts = prefix_select_labels(n, su, sv, t)
        assert labels.shape == (7, n) and counts.shape == (7,)
        assert labels.dtype == counts.dtype == np.int64
        for b, tb in enumerate(np.broadcast_to(t, 7).tolist()):
            one, count = prefix_select_labels(n, su[b], sv[b], tb)
            assert counts[b] == count
            np.testing.assert_array_equal(labels[b], one)
            want, want_count = scalar_prefix_select(n, su[b], sv[b], tb)
            assert count == want_count
            np.testing.assert_array_equal(one, want)


def _assert_stack_rows(n, su, sv, t):
    """A ``(B, s)`` stack against the scalar oracle, row by row."""
    labels, counts = prefix_select_labels(n, su, sv, t)
    assert labels.shape == (len(su), n) and counts.shape == (len(su),)
    assert labels.dtype == counts.dtype == np.int64
    for b, tb in enumerate(np.broadcast_to(t, len(su)).tolist()):
        want, want_count = scalar_prefix_select(n, su[b], sv[b], tb)
        assert counts[b] == want_count
        np.testing.assert_array_equal(labels[b], want)
    return counts


def _head(n, t):
    """Columns the stack path converts for every row before any tail."""
    return 2 * (n - int(np.min(t))) + 8


@pytest.mark.parametrize("block", [3, 256])
def test_prefix_select_stack_rows_past_the_head(monkeypatch, block):
    """Rows that reach ``t`` on their last edge, never reach it, or need
    edges past the converted head (and, at a small block, several tail
    blocks), beside rows that stop early; self-loops and repeated pairs."""
    monkeypatch.setattr(unionfind, "_SAMPLE_BLOCK", block)
    n, t = 12, np.array([2, 11, 6, 2, 9])
    head = _head(n, t)
    s = head + 3 * n
    path_u = np.arange(n - 1)
    su = np.zeros((len(t), s), dtype=np.int64)
    sv = np.zeros((len(t), s), dtype=np.int64)  # self-loops everywhere
    # row 0: a path after a head of loops; merges into the tail blocks
    su[0, head:head + n - 1], sv[0, head:head + n - 1] = path_u, path_u + 1
    # row 1: one merge, the sample's last edge; row 3: the same pair repeated
    su[1, -1], sv[1, -1] = 4, 7
    su[3, :], sv[3, :] = 4, 7
    # row 2: a path whose (n - t)-th merge is the sample's last edge
    su[2, s - (n - 6):], sv[2, s - (n - 6):] = path_u[:6], path_u[:6] + 1
    # row 4: random pairs, a fifth of them loops, every pair twice
    rng = np.random.default_rng(4)
    u = rng.integers(0, n, size=s // 2)
    v = np.where(rng.random(s // 2) < 0.2, u, rng.integers(0, n, size=s // 2))
    su[4], sv[4] = np.repeat(u, 2)[:s], np.repeat(v, 2)[:s]
    counts = _assert_stack_rows(n, su, sv, t)
    assert counts.tolist()[:4] == [2, 11, 6, 11]
    for tb in (2, n, n + 3):  # one target for all, also at and above n
        _assert_stack_rows(n, su, sv, tb)


@pytest.mark.parametrize("n,s", [(2, 0), (2, 5), (1, 3), (14, 0)])
def test_prefix_select_stack_tiny(n, s):
    rng = np.random.default_rng(n + s)
    su = rng.integers(0, n, size=(6, s))
    sv = rng.integers(0, n, size=(6, s))
    _assert_stack_rows(n, su, sv, rng.integers(1, n + 1, size=6))
    _assert_stack_rows(n, su, sv, 1)
    _assert_stack_rows(n, su[:1], sv[:1], n)  # a one-row stack


@pytest.mark.parametrize("s", [0, 7])
def test_prefix_select_empty_stack(s):
    """No rows: ``(0, n)`` labels and no counts, whatever ``t``."""
    empty = np.zeros((0, s), dtype=np.int64)
    for t in (3, np.zeros(0, dtype=np.int64)):
        labels, counts = prefix_select_labels(5, empty, empty, t)
        assert labels.shape == (0, 5) and counts.shape == (0,)
        assert labels.dtype == counts.dtype == np.int64


def _mc_dense_levels():
    """``(k, B, s)`` of every contraction level of an 81-vertex matrix:
    2 rows of 81 vertices down to 128 rows of 14."""
    from repro.core import karger_stein as ks

    k, b = 81, 2
    while k > ks.KS_BASE_SIZE:
        yield k, b, ks._sample_size(k)
        k, b = math.ceil(1 + k / math.sqrt(2)), 2 * b


@pytest.mark.parametrize("k,b,s", list(_mc_dense_levels()))
def test_prefix_select_stack_at_mc_dense_levels(k, b, s):
    """Samples as the recursion draws them: keyed uniforms, weighted picks
    from a random integer matrix per row, split into vertex pairs."""
    from repro.core import karger_stein as ks

    rng = np.random.default_rng(k)
    w = np.triu(rng.integers(0, 5, size=(b, k, k)), 1).astype(float)
    w += w.transpose(0, 2, 1)
    cdf = w.reshape(b, -1).cumsum(axis=1)
    depth = b.bit_length() - 2
    picks = ks._weighted_picks(cdf, ks._keyed(11, depth, 0, b)(0, s))
    su, sv = divmod(picks, k)
    t = math.ceil(1 + k / math.sqrt(2))
    counts = _assert_stack_rows(k, su, sv, t)
    assert (counts == t).all()  # such samples reach the target
    _assert_stack_rows(k, su, sv, rng.integers(t, k + 1, size=b))


def test_prefix_select_rejects_bad_target():
    with pytest.raises(ValueError):
        prefix_select_labels(4, np.array([0]), np.array([1]), 0)
    with pytest.raises(ValueError):
        prefix_select_labels(4, np.zeros((2, 1), int), np.ones((2, 1), int),
                             np.array([2, 0]))
    with pytest.raises(ValueError):
        scalar_prefix_select(4, np.array([0]), np.array([1]), 0)


# ---------------------------------------------------------------------------
# Bulk contraction / combine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bulk_contract_matches_scalar(family):
    n, u, v = FAMILIES[family]
    rng = np.random.default_rng(11)
    w = rng.random(u.size) + 0.25
    n_new = max(1, n // 3)
    labels = rng.integers(0, n_new, size=n, dtype=np.int64)
    fu, fv, fw = bulk_contract_edges(u, v, w, labels, n_new)
    su, sv, sw = scalar_bulk_contract(u, v, w, labels, n_new)
    np.testing.assert_array_equal(fu, su)
    np.testing.assert_array_equal(fv, sv)
    np.testing.assert_allclose(fw, sw, rtol=1e-12, atol=0.0)


def test_combine_packed_reduceat_matches_argsort_formulation():
    """The sort+decode fast path must reproduce the original stable-argsort
    combine bit for bit (the BSP counter baselines depend on it)."""
    rng = np.random.default_rng(5)
    for m in (0, 1, 7, 1000, 5000):
        keys = rng.integers(0, 97, size=m).astype(np.int64)
        w = rng.random(m)
        got_k, got_w = combine_packed(keys, w)
        order = np.argsort(keys, kind="stable")
        ks, ws = keys[order], w[order]
        if m:
            starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            exp_k, exp_w = ks[starts], np.add.reduceat(ws, starts)
        else:
            exp_k, exp_w = keys, w
        np.testing.assert_array_equal(got_k, exp_k)
        np.testing.assert_array_equal(got_w, exp_w)  # bitwise, not allclose


def test_stable_sort_with_order_is_stable():
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 10, size=4000).astype(np.int64)
    sorted_keys, order = stable_sort_with_order(keys)
    expected = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, expected)
    np.testing.assert_array_equal(sorted_keys, keys[expected])
    # Overflow fallback: huge keys must still sort stably.
    big = (np.int64(1) << 62) + rng.integers(0, 3, size=100).astype(np.int64)
    sorted_big, order_big = stable_sort_with_order(big)
    np.testing.assert_array_equal(order_big, np.argsort(big, kind="stable"))
    np.testing.assert_array_equal(sorted_big, big[order_big])


# ---------------------------------------------------------------------------
# payload_words fast paths
# ---------------------------------------------------------------------------


def test_payload_words_fast_paths_match_generic():
    from repro.bsp.comm import payload_words

    class Custom:
        def __bsp_words__(self):
            return 17

    cases = [
        None,
        3,
        "x",
        np.zeros(5),
        (np.zeros(3), np.zeros(4, dtype=np.int64)),
        [np.zeros(2), None, 7, Custom()],
        [(np.zeros(3),), [np.zeros((2, 2))], {"a": np.zeros(6), "b": None}],
        {"k": [np.zeros(3), Custom()]},
        Custom(),
        [],
        (),
    ]
    expected = [0, 1, 1, 5, 7, 2 + 0 + 1 + 17, 3 + 4 + (1 + 6) + (1 + 0),
                1 + 3 + 17, 17, 0, 0]
    for x, e in zip(cases, expected):
        assert payload_words(x) == e, x
