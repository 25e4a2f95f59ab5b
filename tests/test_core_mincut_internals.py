"""Unit tests for the distributed minimum-cut building blocks."""

import math

import numpy as np
import pytest

from repro.core.mincut import (
    _eager_target,
    _edges_to_dense,
    _pick_min,
    dense_iterated_sampling,
    edges_to_distributed_matrix,
    parallel_eager_step,
    recursive_step,
)
from repro.core.contraction import row_block
from repro.graph import (
    AdjacencyMatrix,
    EdgeList,
    complete_graph,
    erdos_renyi,
    two_cliques_bridge,
)
from repro.graph.validate import networkx_mincut
from repro.kernels import bulk_contract_edges
from repro.rng import philox_stream
from repro.runtime import SimBackend


class TestHelpers:
    def test_eager_target(self):
        assert _eager_target(100, 64) == 9  # ceil(sqrt(64)) + 1
        assert _eager_target(5, 1_000) == 5  # capped at n
        assert _eager_target(2, 0) == 2

    def test_pick_min_deterministic_ties(self):
        a = (1.0, "a")
        b = (1.0, "b")
        assert _pick_min(a, b) is a  # left wins ties

    def test_pick_min_orders(self):
        assert _pick_min((2.0, "x"), (1.0, "y"))[1] == "y"

    def test_relabel_combine(self):
        u = np.array([0, 1, 2, 0])
        v = np.array([1, 2, 3, 1])
        w = np.array([1.0, 1.0, 1.0, 2.0])
        labels = np.array([0, 0, 1, 1])
        u2, v2, w2 = bulk_contract_edges(u, v, w, labels, 2)
        # (0,1) and (0,1)x2 become loops; (1,2) and (2,3) -> (0,1) w=1, loop
        assert u2.tolist() == [0]
        assert v2.tolist() == [1]
        assert w2.tolist() == [1.0]

    def test_relabel_combine_all_loops(self):
        u = np.array([0, 1])
        v = np.array([1, 0])
        w = np.array([1.0, 1.0])
        u2, v2, w2 = bulk_contract_edges(u, v, w, np.zeros(2, dtype=np.int64), 1)
        assert u2.size == 0

    def test_edges_to_dense(self):
        u = np.array([0, 0])
        v = np.array([1, 1])
        w = np.array([2.0, 3.0])
        a = _edges_to_dense(u, v, w, 3)
        assert a[0, 1] == 5.0 and a[1, 0] == 5.0
        assert a[2].sum() == 0


def spmd(prog, p, seed=0, args=()):
    return SimBackend().run(prog, p, seed=seed, args=args)


class TestParallelEagerStep:
    def test_reaches_target(self):
        g = erdos_renyi(60, 400, philox_stream(1), weighted=True)
        target = 12
        slices = g.slices(4)

        def prog(ctx):
            sl = slices[ctx.rank]
            out = yield from parallel_eager_step(
                ctx, ctx.comm, sl.u, sl.v, sl.w, g.n, target
            )
            return out

        res = spmd(prog, 4, seed=2)
        for u, v, w, labels, k in res.values:
            assert k == target
            assert labels.shape == (g.n,)
            assert labels.max() < k
        # all ranks agree on the final labels
        l0 = res.values[0][3]
        for val in res.values[1:]:
            assert np.array_equal(val[3], l0)

    def test_total_weight_never_increases(self):
        g = erdos_renyi(40, 250, philox_stream(2), weighted=True)
        slices = g.slices(3)

        def prog(ctx):
            sl = slices[ctx.rank]
            u, v, w, labels, k = yield from parallel_eager_step(
                ctx, ctx.comm, sl.u, sl.v, sl.w, g.n, 8
            )
            return float(w.sum())

        res = spmd(prog, 3, seed=3)
        assert sum(res.values) <= g.total_weight() + 1e-9

    def test_disconnected_stops_with_extra_components(self):
        g = EdgeList.from_pairs(10, [(0, 1), (1, 2), (5, 6), (6, 7)])
        slices = g.slices(2)

        def prog(ctx):
            sl = slices[ctx.rank]
            out = yield from parallel_eager_step(
                ctx, ctx.comm, sl.u, sl.v, sl.w, g.n, 2
            )
            u, v, w, labels, k = out
            return k, int(u.size)

        res = spmd(prog, 2, seed=4)
        k, m_local = res.values[0]
        assert k > 2  # cannot reach 2: six components exist
        assert sum(v[1] for v in res.values) == 0  # no edges left


class TestEdgesToDistributedMatrix:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_dense(self, p):
        g = erdos_renyi(12, 40, philox_stream(5), weighted=True)
        expected = AdjacencyMatrix.from_edgelist(g).a
        slices = g.slices(p)

        def prog(ctx):
            sl = slices[ctx.rank]
            block = yield from edges_to_distributed_matrix(
                ctx, ctx.comm, sl.u, sl.v, sl.w, g.n
            )
            return block

        res = spmd(prog, p, seed=6)
        full = np.vstack(res.values)
        assert np.allclose(full, expected)

    def test_row_blocks_cover(self):
        g = complete_graph(9)
        slices = g.slices(4)

        def prog(ctx):
            sl = slices[ctx.rank]
            block = yield from edges_to_distributed_matrix(
                ctx, ctx.comm, sl.u, sl.v, sl.w, g.n
            )
            return block.shape

        res = spmd(prog, 4, seed=7)
        assert sum(shape[0] for shape in res.values) == g.n


class TestDenseIteratedSampling:
    def test_contracts_to_target(self):
        g = complete_graph(16)
        a = AdjacencyMatrix.from_edgelist(g).a

        def prog(ctx):
            lo, hi = row_block(ctx.rank, ctx.p, g.n)
            rows, labels, k, disc = yield from dense_iterated_sampling(
                ctx, ctx.comm, a[lo:hi].copy(), g.n, 5
            )
            return rows, labels, k, disc

        res = spmd(prog, 4, seed=8)
        rows, labels, k, disc = res.values[0]
        assert k == 5 and not disc
        full = np.vstack([v[0] for v in res.values])
        # the contraction of K16 by `labels` must equal the result
        expected = AdjacencyMatrix.from_edgelist(g).contract(labels, 5).a
        assert np.allclose(full, expected)

    def test_disconnected_flag(self):
        a = np.zeros((8, 8))
        a[0, 1] = a[1, 0] = 1.0  # 7 components, no way to reach 3

        def prog(ctx):
            lo, hi = row_block(ctx.rank, ctx.p, 8)
            out = yield from dense_iterated_sampling(
                ctx, ctx.comm, a[lo:hi].copy(), 8, 3
            )
            return out[2], out[3]

        res = spmd(prog, 2, seed=9)
        k, disc = res.values[0]
        assert disc and k > 3


class TestRecursiveStep:
    def run_recursive(self, g, p, seed):
        a = AdjacencyMatrix.from_edgelist(g).a

        def prog(ctx):
            lo, hi = row_block(ctx.rank, ctx.p, g.n)
            out = yield from recursive_step(ctx, ctx.comm, a[lo:hi].copy(), g.n)
            return out

        return spmd(prog, p, seed=seed)

    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_finds_valid_cut(self, p):
        g = erdos_renyi(24, 130, philox_stream(10), weighted=True)
        res = self.run_recursive(g, p, seed=11)
        val, side = res.values[0]
        assert g.cut_value(side) == pytest.approx(val)
        # every rank agrees
        for v2, s2 in res.values[1:]:
            assert v2 == val
            assert np.array_equal(s2, side)

    def test_best_of_seeds_finds_minimum(self):
        g = two_cliques_bridge(8, bridge_weight=2.0)
        best = math.inf
        for seed in range(6):
            res = self.run_recursive(g, 4, seed=seed)
            best = min(best, res.values[0][0])
        assert best == 2.0

    def test_small_matrix_brute_force_path(self):
        g = complete_graph(5)
        res = self.run_recursive(g, 4, seed=12)  # n <= max(base, q)
        val, side = res.values[0]
        assert val == 4.0

    def test_edgeless_returns_zero(self):
        def prog(ctx):
            lo, hi = row_block(ctx.rank, ctx.p, 6)
            rows = np.zeros((hi - lo, 6))
            out = yield from recursive_step(ctx, ctx.comm, rows, 6)
            return out

        res = spmd(prog, 3, seed=13)
        val, side = res.values[0]
        assert val == 0.0
        assert 0 < side.sum() < 6

    def test_never_below_truth(self):
        g = erdos_renyi(16, 60, philox_stream(14), weighted=True)
        truth = networkx_mincut(g)
        for seed in range(4):
            res = self.run_recursive(g, 3, seed=seed)
            assert res.values[0][0] >= truth - 1e-9
