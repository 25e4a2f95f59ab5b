"""Cost counters must be *unchanged* by vectorization.

The BSP cost model charges analytically from input sizes
(``ctx.charge_scan(m)``, ``ctx.charge_random(m)``, ...), never from the
Python loop structure that produces the values.  Swapping a scalar loop for
a vectorized kernel therefore may not move a single counter.  These tests
enforce that end to end: run each algorithm with the fast kernels, then
monkeypatch the scalar references into the same call sites and re-run —
every field of the :class:`~repro.bsp.counters.CountersReport` (and the
result itself) must match exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import repro.baselines.cc_async as cc_async_mod
import repro.core.components as components_mod
import repro.core.mincut as mincut_mod
from repro.baselines import galois_cc_parallel
from repro.cache.traced import AnalyticTracker
from repro.core import connected_components, minimum_cut
from repro.graph import erdos_renyi
from repro.graph.contract import compress_labels
from repro.kernels import (
    scalar_cc_roots,
    scalar_earliest_forest,
    scalar_prefix_select,
)
from repro.rng import philox_stream


def _report_fields(report):
    return dataclasses.asdict(report)


def _assert_reports_equal(a, b):
    fa, fb = _report_fields(a), _report_fields(b)
    assert fa == fb, {k: (fa[k], fb[k]) for k in fa if fa[k] != fb[k]}


def test_mincut_counters_unchanged_by_prefix_select_kernel(monkeypatch):
    g = erdos_renyi(96, 420, philox_stream(21), weighted=True)
    fast = minimum_cut(g, p=4, seed=5, trials=4)

    monkeypatch.setattr(mincut_mod, "prefix_select", scalar_prefix_select)
    slow = minimum_cut(g, p=4, seed=5, trials=4)

    assert fast.value == slow.value
    np.testing.assert_array_equal(fast.side, slow.side)
    _assert_reports_equal(fast.report, slow.report)


def test_cc_counters_unchanged_by_components_kernel(monkeypatch):
    g = erdos_renyi(512, 1200, philox_stream(22))
    fast = connected_components(g, p=4, seed=6)

    def slow_components(n, u, v):
        return compress_labels(scalar_cc_roots(n, u, v))

    monkeypatch.setattr(components_mod, "components_from_edges",
                        slow_components)
    slow = connected_components(g, p=4, seed=6)

    assert fast.n_components == slow.n_components
    np.testing.assert_array_equal(fast.labels, slow.labels)
    _assert_reports_equal(fast.report, slow.report)


def test_galois_counters_unchanged_by_forest_kernels(monkeypatch):
    g = erdos_renyi(512, 1200, philox_stream(23))
    fl, fc, frep, _ = galois_cc_parallel(g, p=4, seed=7)

    monkeypatch.setattr(cc_async_mod, "earliest_forest",
                        scalar_earliest_forest)
    monkeypatch.setattr(cc_async_mod, "cc_roots", scalar_cc_roots)
    sl, sc, srep, _ = galois_cc_parallel(g, p=4, seed=7)

    assert fc == sc
    np.testing.assert_array_equal(fl, sl)
    _assert_reports_equal(frep, srep)


def test_sequential_tracker_counts_unchanged_by_flatten_kernel(monkeypatch):
    """The traced union-find charges its final flatten as a flat scan plus
    ``2n`` ops regardless of how the flatten is computed; replacing the
    vectorized ``flatten_parents`` with the original scalar loop must leave
    labels and every tracked total exactly as they were."""
    from repro.core.components import cc_sequential

    g = erdos_renyi(200, 380, philox_stream(24))
    mem_a = AnalyticTracker()
    labels_a, count_a = cc_sequential(g, seed=9, mem=mem_a)

    def scalar_flatten(parent):
        parent = np.asarray(parent, dtype=np.int64).copy()
        for x in range(parent.size):
            r = x
            while parent[r] != r:
                r = parent[r]
            parent[x] = r
        return parent

    monkeypatch.setattr(components_mod, "flatten_parents", scalar_flatten)
    mem_b = AnalyticTracker()
    labels_b, count_b = cc_sequential(g, seed=9, mem=mem_b)

    assert count_a == count_b
    np.testing.assert_array_equal(labels_a, labels_b)
    assert mem_a.op_count == mem_b.op_count
    assert mem_a.miss_count == mem_b.miss_count
