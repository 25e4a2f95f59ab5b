"""Tests for communication-avoiding sparsification (§3.1, §3.2)."""

import numpy as np
import pytest

from repro.core.sparsify import sparsify_unweighted, sparsify_weighted
from repro.graph import EdgeList, erdos_renyi
from repro.rng import philox_stream
from repro.runtime import SimBackend


def run_weighted(g, p, s, seed=0):
    slices = g.slices(p)

    def prog(ctx):
        sl = slices[ctx.rank]
        out = yield from sparsify_weighted(ctx, ctx.comm, sl.u, sl.v, sl.w, s)
        return out

    return SimBackend().run(prog, p, seed=seed)


def run_unweighted(g, p, s, seed=0, delta=0.5):
    slices = g.slices(p)

    def prog(ctx):
        sl = slices[ctx.rank]
        out = yield from sparsify_unweighted(
            ctx, ctx.comm, sl.u, sl.v, s, n=g.n, delta=delta
        )
        return out

    return SimBackend().run(prog, p, seed=seed)


class TestWeightedSparsification:
    def test_sample_size(self):
        g = erdos_renyi(50, 200, philox_stream(0), weighted=True)
        res = run_weighted(g, 4, 64)
        su, sv, sw = res.root_value
        assert su.size == 64
        assert res.values[1] is None

    def test_samples_are_real_edges(self):
        g = erdos_renyi(30, 100, philox_stream(1), weighted=True)
        su, sv, sw = run_weighted(g, 3, 50).root_value
        edges = {(u, v): w for u, v, w in g.as_tuples()}
        for u, v, w in zip(su.tolist(), sv.tolist(), sw.tolist()):
            assert (min(u, v), max(u, v)) in edges

    def test_lemma_3_1_distribution(self):
        """Each sample position is ∝ weight (Lemma 3.1), across processors."""
        g = EdgeList.from_pairs(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 8.0)])
        counts = np.zeros(3)
        for seed in range(40):
            su, sv, _ = run_weighted(g, 3, 50, seed=seed).root_value
            for u, v in zip(su.tolist(), sv.tolist()):
                for i, (a, b, _w) in enumerate(g.as_tuples()):
                    if (min(u, v), max(u, v)) == (a, b):
                        counts[i] += 1
        frac = counts / counts.sum()
        assert abs(frac[2] - 0.8) < 0.03
        assert abs(frac[0] - 0.1) < 0.03

    def test_first_position_uniformity(self):
        """The permutation makes every position identically distributed."""
        g = EdgeList.from_pairs(3, [(0, 1, 1.0), (1, 2, 1.0)])
        first = np.zeros(2)
        for seed in range(200):
            su, sv, _ = run_weighted(g, 2, 4, seed=seed).root_value
            first[0 if (su[0], sv[0]) == (0, 1) else 1] += 1
        assert abs(first[0] / 200 - 0.5) < 0.12

    def test_constant_supersteps(self):
        g = erdos_renyi(100, 500, philox_stream(2), weighted=True)
        for p in (2, 4, 8):
            rep = run_weighted(g, p, 100).report
            assert rep.supersteps <= 4  # gather, scatter, gather (+slack)

    def test_zero_sample(self):
        g = erdos_renyi(20, 50, philox_stream(3))
        su, sv, sw = run_weighted(g, 2, 0).root_value
        assert su.size == 0

    def test_negative_sample_rejected(self):
        g = erdos_renyi(20, 50, philox_stream(3))
        with pytest.raises(ValueError):
            run_weighted(g, 2, -1)

    def test_zero_weight_graph_rejected(self):
        g = EdgeList.empty(5)
        with pytest.raises(ValueError):
            run_weighted(g, 2, 4)

    def test_skewed_distribution_across_procs(self):
        """Slices with zero weight are never asked for samples."""
        # all edges in the first slice; other procs' slices are empty
        g = EdgeList.from_pairs(4, [(0, 1, 1.0), (1, 2, 1.0)])
        su, sv, _ = run_weighted(g, 4, 20).root_value
        assert su.size == 20


class TestUnweightedSparsification:
    def test_small_slices_fully_included(self):
        """Below the Chernoff threshold every local edge is contributed."""
        g = erdos_renyi(30, 60, philox_stream(4))
        su, sv = run_unweighted(g, 3, 60).root_value
        # threshold >> mu here, so the sample is exactly the whole graph
        assert su.size == g.m

    def test_oversampling_large_slices(self):
        g = erdos_renyi(200, 4000, philox_stream(5))
        s = 400
        su, sv = run_unweighted(g, 2, s, delta=0.2).root_value
        # each processor contributes either all its edges or (1+delta)mu
        assert su.size <= g.m
        assert su.size >= s  # oversampled or full inclusion

    def test_samples_are_real_edges(self):
        g = erdos_renyi(40, 150, philox_stream(6))
        su, sv = run_unweighted(g, 4, 80).root_value
        edges = set(zip(g.u.tolist(), g.v.tolist()))
        for u, v in zip(su.tolist(), sv.tolist()):
            assert (min(u, v), max(u, v)) in edges

    def test_empty_graph(self):
        g = EdgeList.empty(10)
        su, sv = run_unweighted(g, 2, 16).root_value
        assert su.size == 0

    def test_constant_supersteps(self):
        g = erdos_renyi(100, 1000, philox_stream(7))
        rep = run_unweighted(g, 8, 200).report
        assert rep.supersteps <= 3  # allreduce + gather

    def test_invalid_delta(self):
        g = erdos_renyi(20, 40, philox_stream(8))
        with pytest.raises(ValueError):
            run_unweighted(g, 2, 10, delta=1.5)

    def test_invalid_s(self):
        g = erdos_renyi(20, 40, philox_stream(8))
        with pytest.raises(ValueError):
            run_unweighted(g, 2, -2)
