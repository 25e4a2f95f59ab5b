"""Tests for Prefix Selection and sparse/dense Bulk Edge Contraction (§4.1)."""

import numpy as np
import pytest

from repro.core.contraction import (
    combine_sorted_run,
    dense_bulk_contract,
    prefix_select,
    row_block,
    sparse_bulk_contract,
)
from repro.graph import AdjacencyMatrix, EdgeList, complete_graph, erdos_renyi
from repro.graph.contract import combine_parallel_edges, relabel_edges
from repro.rng import philox_stream
from repro.runtime import SimBackend


class TestPrefixSelect:
    def test_stops_at_target(self):
        # path edges in order: contracting all gives 1 component
        su = np.array([0, 1, 2, 3])
        sv = np.array([1, 2, 3, 4])
        labels, k = prefix_select(5, su, sv, 3)
        assert k == 3
        # the prefix (0,1), (1,2) merges {0,1,2}
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] != labels[0]

    def test_insufficient_sample(self):
        labels, k = prefix_select(6, np.array([0]), np.array([1]), 2)
        assert k == 5  # only one merge possible

    def test_duplicate_edges_skipped(self):
        su = np.array([0, 0, 0, 1])
        sv = np.array([1, 1, 1, 2])
        labels, k = prefix_select(4, su, sv, 2)
        assert k == 2

    def test_labels_dense(self):
        labels, k = prefix_select(5, np.array([0, 2]), np.array([1, 3]), 3)
        assert sorted(np.unique(labels).tolist()) == list(range(k))

    def test_target_one_contracts_component(self):
        g = complete_graph(6)
        labels, k = prefix_select(6, g.u, g.v, 1)
        assert k == 1

    def test_empty_sample(self):
        labels, k = prefix_select(4, np.zeros(0, np.int64), np.zeros(0, np.int64), 2)
        assert k == 4

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            prefix_select(4, np.zeros(0, np.int64), np.zeros(0, np.int64), 0)

    def test_never_overshoots(self):
        rng = philox_stream(1)
        for seed in range(10):
            g = erdos_renyi(30, 100, philox_stream(seed))
            perm = philox_stream(seed + 100).permutation(g.m)
            labels, k = prefix_select(30, g.u[perm], g.v[perm], 10)
            assert k >= 10


class TestCombineSortedRun:
    def test_combines(self):
        keys = np.array([1, 1, 2, 5, 5, 5])
        w = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        k2, w2 = combine_sorted_run(keys, w)
        assert k2.tolist() == [1, 2, 5]
        assert w2.tolist() == [3.0, 3.0, 3.0]

    def test_empty(self):
        k2, w2 = combine_sorted_run(np.zeros(0, np.int64), np.zeros(0))
        assert k2.size == 0


def run_sparse_contract(g, labels, n_new, p, seed=0):
    slices = g.slices(p)

    def prog(ctx):
        sl = slices[ctx.rank]
        out = yield from sparse_bulk_contract(
            ctx, ctx.comm, sl.u, sl.v, sl.w, labels, n_new
        )
        return out

    res = SimBackend().run(prog, p, seed=seed)
    u = np.concatenate([v[0] for v in res.values])
    v_ = np.concatenate([v[1] for v in res.values])
    w = np.concatenate([v[2] for v in res.values])
    return EdgeList(n_new, u, v_, w, canonical=False), res


class TestSparseBulkContract:
    def _reference(self, g, labels, n_new):
        return combine_parallel_edges(relabel_edges(g, labels, n_new))

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_matches_sequential(self, p):
        g = erdos_renyi(40, 200, philox_stream(2), weighted=True)
        labels = philox_stream(3).integers(0, 10, 40)
        expected = self._reference(g, labels, 10)
        got, _ = run_sparse_contract(g, labels, 10, p)
        assert sorted(got.as_tuples()) == sorted(expected.as_tuples())

    def test_heavy_parallel_class_spanning_procs(self):
        """All edges collapse to one pair: the boundary fixup must combine
        weight spread over every processor."""
        pairs = [(i, i + 10, float(i + 1)) for i in range(10)]
        g = EdgeList.from_pairs(20, pairs)
        labels = np.array([0] * 10 + [1] * 10)
        got, _ = run_sparse_contract(g, labels, 2, 4)
        assert got.m == 1
        assert got.total_weight() == sum(i + 1 for i in range(10))

    def test_loops_removed(self):
        g = EdgeList.from_pairs(4, [(0, 1), (2, 3), (0, 2)])
        labels = np.array([0, 0, 1, 1])
        got, _ = run_sparse_contract(g, labels, 2, 2)
        assert got.m == 1
        assert got.as_tuples() == [(0, 1, 1.0)]

    def test_everything_contracts_away(self):
        g = complete_graph(6)
        labels = np.zeros(6, dtype=np.int64)
        got, _ = run_sparse_contract(g, labels, 1, 3)
        assert got.m == 0

    def test_identity_labels_only_combines(self):
        g = EdgeList.from_pairs(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
        got, _ = run_sparse_contract(g, np.arange(3), 3, 2)
        assert sorted(got.as_tuples()) == [(0, 1, 3.0), (1, 2, 1.0)]

    def test_constant_supersteps(self):
        g = erdos_renyi(60, 500, philox_stream(4), weighted=True)
        labels = philox_stream(5).integers(0, 20, 60)
        _, res = run_sparse_contract(g, labels, 20, 6)
        assert res.report.supersteps <= 5  # sort (3) + boundary allgather

    def test_total_weight_preserved_no_loops(self):
        """Contraction with injective-on-edges labels preserves weight."""
        g = erdos_renyi(50, 300, philox_stream(6), weighted=True)
        labels = np.arange(50) // 2  # merge pairs
        expected = self._reference(g, labels, 25)
        got, _ = run_sparse_contract(g, labels, 25, 4)
        assert got.total_weight() == pytest.approx(expected.total_weight())


class TestRowBlock:
    def test_partitions(self):
        n, p = 17, 4
        covered = []
        for r in range(p):
            lo, hi = row_block(r, p, n)
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_balanced(self):
        sizes = [row_block(r, 5, 23)[1] - row_block(r, 5, 23)[0] for r in range(5)]
        assert max(sizes) - min(sizes) <= 1


def run_dense_contract(a, labels, n_new, p, seed=0):
    n = a.shape[0]

    def prog(ctx):
        lo, hi = row_block(ctx.rank, ctx.p, n)
        out = yield from dense_bulk_contract(
            ctx, ctx.comm, a[lo:hi].copy(), n, labels, n_new
        )
        return out

    res = SimBackend().run(prog, p, seed=seed)
    return np.vstack(res.values), res


class TestDenseBulkContract:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_sequential(self, p):
        g = erdos_renyi(12, 40, philox_stream(7), weighted=True)
        a = AdjacencyMatrix.from_edgelist(g)
        labels = philox_stream(8).integers(0, 5, 12)
        expected = a.contract(labels, 5).a
        got, _ = run_dense_contract(a.a, labels, 5, p)
        assert np.allclose(got, expected)

    def test_identity(self):
        a = AdjacencyMatrix.from_edgelist(complete_graph(8)).a
        got, _ = run_dense_contract(a, np.arange(8), 8, 4)
        assert np.allclose(got, a)

    def test_diagonal_zeroed(self):
        a = AdjacencyMatrix.from_edgelist(complete_graph(6)).a
        got, _ = run_dense_contract(a, np.array([0, 0, 0, 1, 1, 1]), 2, 3)
        assert got[0, 0] == 0 and got[1, 1] == 0
        assert got[0, 1] == 9.0

    def test_more_procs_than_result_rows(self):
        a = AdjacencyMatrix.from_edgelist(complete_graph(6)).a
        got, _ = run_dense_contract(a, np.array([0, 0, 0, 1, 1, 1]), 2, 4)
        assert got.shape == (2, 2)
        assert got[0, 1] == 9.0

    def test_constant_supersteps(self):
        a = AdjacencyMatrix.from_edgelist(complete_graph(16)).a
        labels = np.arange(16) // 2
        _, res = run_dense_contract(a, labels, 8, 4)
        assert res.report.supersteps <= 2
