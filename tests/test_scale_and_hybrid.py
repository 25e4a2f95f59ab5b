"""Simulator scalability (paper-scale processor counts) and hybrid CC."""

import operator

import numpy as np
import pytest

from repro.core import approx_minimum_cut, connected_components
from repro.graph import erdos_renyi, verification_suite
from repro.graph.validate import networkx_components
from repro.rng import philox_stream
from repro.runtime import SimBackend


class TestSimulatorScale:
    """The engine must handle the paper's processor counts (up to 1008+)."""

    def test_barrier_at_1008_procs(self):
        def prog(ctx):
            yield from ctx.comm.barrier()
            total = yield from ctx.comm.allreduce(1, op=operator.add)
            return total

        res = SimBackend().run(prog, 1008)
        assert res.values[0] == 1008
        assert res.report.p == 1008

    def test_split_into_many_groups(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 36)
            s = yield from sub.allreduce(1, op=operator.add)
            return sub.size, s

        res = SimBackend().run(prog, 288)
        assert all(v == (8, 8) for v in res.values)

    def test_cc_at_144_procs(self):
        g = erdos_renyi(2_000, 8_000, philox_stream(70))
        res = connected_components(g, p=144, seed=1)
        assert res.n_components == networkx_components(g)
        # O(1) supersteps independent of the processor count
        small = connected_components(g, p=4, seed=1)
        assert res.report.supersteps <= small.report.supersteps + 8

    def test_appmc_at_72_procs(self):
        g = erdos_renyi(400, 3_000, philox_stream(71), weighted=True)
        res = approx_minimum_cut(g, p=72, seed=2, trials_per_level=3)
        assert res.estimate > 0

    def test_volume_bounded_in_p(self):
        g = erdos_renyi(1_000, 16_000, philox_stream(72))
        v4 = connected_components(g, p=4, seed=3).report.volume
        v16 = connected_components(g, p=16, seed=3).report.volume
        v64 = connected_components(g, p=64, seed=3).report.volume
        # The root's gathered sample dominates: volume is flat in p while
        # slices stay above the Chernoff threshold (p=4 vs p=16) ...
        assert v16 <= v4 * 1.5
        # ... and bounded by O(m) even once tiny slices fall below the
        # threshold and contribute themselves wholesale (p=64).
        assert v64 <= 2.2 * (2 * g.m)


class TestHybridCC:
    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_matches_truth(self, p):
        g = erdos_renyi(600, 900, philox_stream(73))
        truth = networkx_components(g)
        res = connected_components(g, p=p, seed=4, hybrid=True)
        assert res.n_components == truth
        assert (res.labels[g.u] == res.labels[g.v]).all()

    def test_verification_suite(self):
        for case in verification_suite():
            res = connected_components(case.graph, p=3, seed=5, hybrid=True)
            assert res.n_components == case.components, case.name

    def test_matches_pure_variant(self):
        g = erdos_renyi(300, 500, philox_stream(74))
        pure = connected_components(g, p=4, seed=6)
        hyb = connected_components(g, p=4, seed=6, hybrid=True)
        assert pure.n_components == hyb.n_components
        same_pure = pure.labels[g.u] == pure.labels[g.v]
        same_hyb = hyb.labels[g.u] == hyb.labels[g.v]
        assert (same_pure == same_hyb).all()

    def test_preconditioning_shrinks_hooking_instance(self):
        """The sparsified rounds must collapse the label space before the
        hooking algorithm runs, cutting its rounds vs running it raw."""
        from repro.baselines import pbgl_cc

        g = erdos_renyi(1_500, 6_000, philox_stream(75))
        hyb = connected_components(g, p=4, seed=7, hybrid=True)
        _, _, raw_report, _ = pbgl_cc(g, p=4, seed=7)
        assert hyb.report.supersteps < raw_report.supersteps

    def test_deterministic(self):
        g = erdos_renyi(200, 350, philox_stream(76))
        a = connected_components(g, p=3, seed=8, hybrid=True)
        b = connected_components(g, p=3, seed=8, hybrid=True)
        assert np.array_equal(a.labels, b.labels)
