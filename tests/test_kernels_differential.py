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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contraction import prefix_select
from repro.graph.contract import union_find_components
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
    scalar_prefix_select,
    stable_sort_with_order,
)
from repro.kernels.unionfind import _earliest_forest_scalar

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


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("backend", ["scipy", "jumping"])
def test_cc_roots_backends_exact(family, backend):
    n, u, v = FAMILIES[family]
    expected = scalar_cc_roots(n, u, v)
    np.testing.assert_array_equal(cc_roots(n, u, v, backend=backend), expected)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cc_labels_backends_exact(family):
    n, u, v = FAMILIES[family]
    ref_labels, ref_count = cc_labels(n, u, v, backend="scalar")
    for backend in ("scipy", "jumping", "auto"):
        labels, count = cc_labels(n, u, v, backend=backend)
        assert count == ref_count
        np.testing.assert_array_equal(labels, ref_labels)


@given(edge_streams())
@settings(max_examples=120, deadline=None)
def test_cc_roots_random_exact(stream):
    n, u, v = stream
    expected = scalar_cc_roots(n, u, v)
    np.testing.assert_array_equal(cc_roots(n, u, v, backend="scipy"), expected)
    np.testing.assert_array_equal(cc_roots(n, u, v, backend="jumping"),
                                  expected)


def test_union_find_components_fast_vs_slow():
    for n, u, v in FAMILIES.values():
        np.testing.assert_array_equal(
            union_find_components(n, u, v),
            union_find_components(n, u, v, slow=True),
        )


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
    su, sv = _earliest_forest_scalar(n, u, v)
    fu, fv = earliest_forest(n, u, v)
    np.testing.assert_array_equal(fu, su)
    np.testing.assert_array_equal(fv, sv)


@given(edge_streams())
@settings(max_examples=120, deadline=None)
def test_earliest_forest_random_exact(stream):
    n, u, v = stream
    su, sv = _earliest_forest_scalar(n, u, v)
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


def test_prefix_select_rejects_bad_target():
    with pytest.raises(ValueError):
        prefix_select_labels(4, np.array([0]), np.array([1]), 0)
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


def test_combine_packed_bincount_same_keys_close_weights():
    rng = np.random.default_rng(13)
    keys = rng.integers(0, 50, size=2000).astype(np.int64)
    w = rng.random(2000)
    k1, w1 = combine_packed(keys, w, method="reduceat")
    k2, w2 = combine_packed(keys, w, method="bincount")
    np.testing.assert_array_equal(k1, k2)
    np.testing.assert_allclose(w1, w2, rtol=1e-12)
    with pytest.raises(ValueError):
        combine_packed(keys, w, method="nope")


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
