"""Tests for the exact communication-avoiding minimum cut (§4)."""

import functools
import math

import numpy as np
import pytest

from repro.cache import LRUTracker
from repro.core import (
    karger_stein,
    mincut,
    minimum_cut,
    minimum_cut_sequential,
    minimum_cuts,
)
from repro.core.karger_stein import KS_BASE_SIZE
from repro.core.mincut import (
    _pick_min,
    mincut_trials_program,
    sequential_eager_step,
    sequential_trial,
)
from repro.graph import (
    EdgeList,
    complete_graph,
    erdos_renyi,
    two_cliques_bridge,
    verification_suite,
    weighted_cycle,
)
from repro.graph.validate import networkx_components, networkx_mincut
from repro.rng import philox_stream
from repro.runtime import SimBackend
from repro.sched import TrialScheduler


class TestVerificationSuite:
    @pytest.mark.parametrize("p", [1, 3])
    def test_known_cuts(self, p):
        for case in verification_suite():
            if case.mincut is None:
                continue
            r = minimum_cut(case.graph, p=p, seed=31)
            assert r.value == case.mincut, (case.name, p)
            assert case.graph.cut_value(r.side) == r.value, case.name

    def test_disconnected_graphs_zero(self):
        for case in verification_suite():
            if case.mincut is not None or case.graph.n < 2:
                continue
            r = minimum_cut(case.graph, p=2, seed=32)
            assert r.value == 0.0, case.name


class TestRandomGraphs:
    def test_matches_stoer_wagner(self):
        for seed in range(4):
            g = erdos_renyi(40, 250, philox_stream(seed + 40), weighted=True)
            if networkx_components(g) != 1:
                continue
            truth = networkx_mincut(g)
            r = minimum_cut(g, p=4, seed=seed)
            assert r.value == truth, seed
            assert g.cut_value(r.side) == r.value

    def test_witness_always_consistent(self):
        """Even when a scaled-down run misses the optimum, the witness must
        be a real cut of the reported value."""
        g = erdos_renyi(60, 300, philox_stream(50), weighted=True)
        r = minimum_cut(g, p=3, seed=1, trials=2)  # deliberately few trials
        assert g.cut_value(r.side) == pytest.approx(r.value)

    def test_value_never_below_truth(self):
        g = erdos_renyi(30, 120, philox_stream(51), weighted=True)
        truth = networkx_mincut(g)
        for trials in (1, 3):
            r = minimum_cut(g, p=2, seed=9, trials=trials)
            assert r.value >= truth - 1e-9


class TestParallelPaths:
    def test_group_parallel_trials(self):
        """p > trials exercises the distributed eager + recursive steps."""
        g = two_cliques_bridge(10, bridge_weight=2.0)
        r = minimum_cut(g, p=8, seed=3, trials=2)
        assert g.cut_value(r.side) == r.value
        assert r.value == 2.0

    def test_uneven_groups(self):
        g = two_cliques_bridge(8)
        r = minimum_cut(g, p=7, seed=4, trials=3)  # groups of 3/2/2
        assert g.cut_value(r.side) == r.value

    def test_single_group(self):
        g = weighted_cycle(12)
        r = minimum_cut(g, p=5, seed=5, trials=1)
        assert g.cut_value(r.side) == r.value

    def test_sequential_and_parallel_agree_on_easy_graph(self):
        g = two_cliques_bridge(9, bridge_weight=3.0)
        rs = minimum_cut(g, p=2, seed=6)           # p <= trials
        rp = minimum_cut(g, p=8, seed=6, trials=4)  # p > trials
        assert rs.value == rp.value == 3.0

    def test_disconnected_parallel(self):
        g = EdgeList.from_pairs(8, [(0, 1), (1, 2), (4, 5), (5, 6)])
        r = minimum_cut(g, p=6, seed=7, trials=2)
        assert r.value == 0.0
        assert g.cut_value(r.side) == 0.0


class TestBackends:
    """The same entry point on each execution backend (smoke-level)."""

    def test_known_cut_by_backend(self, backend):
        g = two_cliques_bridge(6, bridge_weight=2.0)
        r = minimum_cut(g, p=2, seed=33, trials=6, backend=backend)
        assert r.value == 2.0
        assert g.cut_value(r.side) == 2.0

    def test_backends_agree_exactly(self, backend):
        g = erdos_renyi(40, 200, philox_stream(52), weighted=True)
        ref = minimum_cut(g, p=3, seed=34, trials=4)  # sim oracle
        res = minimum_cut(g, p=3, seed=34, trials=4, backend=backend)
        assert res.value == ref.value
        assert np.array_equal(res.side, ref.side)
        assert res.report == ref.report


class TestGatheredRecursion:
    """A group with at least as many processors as matrix rows gathers the
    matrix at its rank 0, which finishes the recursion alone — by
    Karger–Stein above ``KS_BASE_SIZE``, never by enumerating ``q`` vertices."""

    @pytest.mark.parametrize("n,p,root", [(40, 64, 29), (30, 32, 22)])
    def test_more_processors_than_rows(self, monkeypatch, n, p, root):
        leaves = []
        leaf = mincut._recursion_leaf

        def spy(ctx, a):
            leaves.append(a.shape[0])
            return leaf(ctx, a)

        monkeypatch.setattr(mincut, "_recursion_leaf", spy)
        monkeypatch.setattr(karger_stein, "_SIDE_TABLES", {})
        g = complete_graph(n)
        r = minimum_cut(g, p=p, seed=0, trials=1)
        assert r.value == n - 1
        assert g.cut_value(r.side) == n - 1
        assert leaves == [root] and root > KS_BASE_SIZE  # gathered at once
        assert max(karger_stein._SIDE_TABLES) <= KS_BASE_SIZE

    def test_backends_agree_on_the_gathered_branch(self, backend):
        # K18 contracts to 14 rows on 14 processors: 14 > KS_BASE_SIZE, and
        # only a group of more than KS_BASE_SIZE processors can get there.
        g, p = complete_graph(18), 14
        assert KS_BASE_SIZE < math.ceil(math.sqrt(g.m)) + 1 <= p
        ref = minimum_cut(g, p=p, seed=2, trials=1)  # sim oracle
        res = minimum_cut(g, p=p, seed=2, trials=1, backend=backend)
        assert res.value == ref.value == 17.0
        assert np.array_equal(res.side, ref.side)
        assert res.report == ref.report


class TestDeterminism:
    def test_same_seed_same_cut(self):
        g = erdos_renyi(40, 160, philox_stream(60), weighted=True)
        a = minimum_cut(g, p=4, seed=11)
        b = minimum_cut(g, p=4, seed=11)
        assert a.value == b.value
        assert np.array_equal(a.side, b.side)

    def test_p_independent_when_sequential_trials(self):
        """With p <= trials the trial set is fixed, so the result does not
        depend on the processor count."""
        g = erdos_renyi(30, 120, philox_stream(61), weighted=True)
        values = {minimum_cut(g, p=p, seed=13).value for p in (1, 2, 4)}
        assert len(values) == 1


class TestEdgeCases:
    def test_two_vertices(self):
        g = EdgeList.from_pairs(2, [(0, 1, 7.0)])
        r = minimum_cut(g, p=2, seed=0)
        assert r.value == 7.0

    def test_empty_edge_set(self):
        g = EdgeList.empty(4)
        r = minimum_cut(g, p=2, seed=0, trials=1)
        assert r.value == 0.0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            minimum_cut(EdgeList.empty(1), p=1, seed=0)

    def test_parallel_edges_combine(self):
        g = EdgeList.from_pairs(3, [(0, 1, 1.0), (0, 1, 1.0), (1, 2, 3.0)])
        r = minimum_cut(g, p=2, seed=1)
        assert r.value == 2.0

    def test_trials_recorded(self):
        g = complete_graph(8)
        r = minimum_cut(g, p=2, seed=2, trials=5)
        assert r.trials == 5

    def test_trial_scale(self):
        g = complete_graph(8)
        full = minimum_cut(g, p=1, seed=3)
        scaled = minimum_cut(g, p=1, seed=3, trial_scale=0.5)
        assert scaled.trials <= full.trials


class TestSequentialInternals:
    def test_eager_step_reaches_target(self):
        g = erdos_renyi(50, 400, philox_stream(70), weighted=True)
        target = 12
        u, v, w, labels, k = sequential_eager_step(
            g.u, g.v, g.w, g.n, target, philox_stream(0)
        )
        assert k == target
        assert labels.max() < k
        # relabeled edges must live in the contracted space with no loops
        assert (u != v).all()
        assert u.max(initial=-1) < k

    def test_eager_step_weight_bound(self):
        g = erdos_renyi(40, 300, philox_stream(71), weighted=True)
        u, v, w, labels, k = sequential_eager_step(
            g.u, g.v, g.w, g.n, 8, philox_stream(1)
        )
        assert w.sum() <= g.total_weight() + 1e-9

    def test_trial_on_connected_graph(self):
        g = two_cliques_bridge(7)
        val, side = sequential_trial(g.u, g.v, g.w, g.n, philox_stream(2))
        assert g.cut_value(side) == pytest.approx(val)

    def test_minimum_cut_sequential_instrumented(self):
        g = erdos_renyi(25, 100, philox_stream(72), weighted=True)
        mem = LRUTracker(M=8192, B=8)
        val, side = minimum_cut_sequential(g, seed=4, trial_scale=0.2, mem=mem)
        assert g.cut_value(side) == pytest.approx(val)
        assert mem.miss_count > 0

    def test_minimum_cut_sequential_exact(self):
        g = weighted_cycle(10, np.arange(1.0, 11.0))
        val, side = minimum_cut_sequential(g, seed=5)
        assert val == 3.0  # weights 1 + 2
        assert g.cut_value(side) == 3.0


class TestOneTrialLoop:
    """minimum_cut / minimum_cuts / the scheduler / minimum_cut_sequential
    are four doors onto one per-rank trial loop."""

    @pytest.mark.parametrize("p,trials", [(2, 8), (3, 7), (4, 4)])
    def test_monolithic_fold_equals_fold_of_scheduled_trials(self, p, trials):
        g = erdos_renyi(40, 200, philox_stream(61), weighted=True)
        seed = 9
        whole = minimum_cut(g, p=p, seed=seed, trials=trials)
        per_trial = SimBackend().run(
            mincut_trials_program, p, seed=seed,
            args=(g.slices(p), g.n, tuple(range(trials)), seed),
        ).root_value
        assert [ti for ti, _, _ in per_trial] == list(range(trials))
        results = {ti: (val, side) for ti, val, side in per_trial}
        # mincut_program: rank r folds trials r, r+p, ... then the
        # allreduce folds the ranks' bests in rank order.
        rank_best = [
            functools.reduce(_pick_min, (results[ti] for ti in
                                         range(r, trials, p)))
            for r in range(p)
        ]
        value, side = functools.reduce(_pick_min, rank_best)
        assert whole.value == value
        assert whole.side.tobytes() == side.tobytes()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_override_validated_at_every_entry(self, trials):
        g = two_cliques_bridge(5)
        calls = [
            lambda: minimum_cut(g, p=2, trials=trials),
            lambda: minimum_cut(g, p=2, trials=trials,
                                scheduler=TrialScheduler()),
            lambda: minimum_cuts(g, p=2, trials=trials),
            lambda: minimum_cut_sequential(g, trials=trials),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="at least one trial"):
                call()

    @pytest.mark.parametrize("g", [
        EdgeList.empty(5),
        EdgeList.from_pairs(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                                (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]),
    ], ids=["edgeless", "two-triangles"])
    @pytest.mark.parametrize("p", [2, 8])  # p <= trials and p > trials
    def test_zero_cut_sides_agree_across_routes(self, g, p):
        plain = minimum_cuts(g, p=p, seed=0, trials=4)
        sched = minimum_cuts(g, p=p, seed=0, trials=4,
                             scheduler=TrialScheduler())
        assert plain.value == sched.value == 0.0
        assert len(plain.sides) == len(sched.sides) >= 1
        for a, b in zip(plain.sides, sched.sides):
            assert np.array_equal(a, b)
            assert not a[0]  # canonical_cut_key's orientation
