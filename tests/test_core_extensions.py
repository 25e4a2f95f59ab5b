"""Tests for the library extensions: all-minimum-cuts (Lemma 4.3),
weight preprocessing (§2.3), spanning forest, clustering, engine trace."""

import numpy as np
import pytest

from repro.bsp import Engine
from repro.core import (
    contract_heavy_edges,
    min_weighted_degree,
    mincut_clustering,
    minimum_cut,
    minimum_cuts,
    minimum_spanning_forest,
    relative_cut_criterion,
)
from repro.cache.traced import AnalyticTracker
from repro.core.karger_stein import (
    KS_BASE_SIZE,
    brute_force_matrix,
    canonical_cut_key,
    karger_stein_matrix,
)
from repro.graph import (
    AdjacencyMatrix,
    EdgeList,
    complete_graph,
    erdos_renyi,
    grid_graph,
    ring_of_cliques,
    two_cliques_bridge,
    weighted_cycle,
)
from repro.graph.validate import brute_force_mincut, networkx_components
from repro.rng import philox_stream
from repro.trace import RecordingTracer


class TestCanonicalCutKey:
    def test_complement_same_key(self):
        side = np.array([False, True, True, False])
        assert canonical_cut_key(side) == canonical_cut_key(~side)

    def test_distinct_cuts_distinct_keys(self):
        a = np.array([False, True, False])
        b = np.array([False, False, True])
        assert canonical_cut_key(a) != canonical_cut_key(b)


class TestBruteForceAll:
    def test_k4_four_singletons(self):
        a = AdjacencyMatrix.from_edgelist(complete_graph(4)).a
        val, sides = brute_force_matrix(a, collect=True)
        assert val == 3.0
        assert len(sides) == 4
        for s in sides:
            assert s.sum() in (1, 3)

    def test_tied_pair(self):
        # cuts: {0} -> 6, {1} -> 6, {2} -> 10: two tied minima
        g = EdgeList.from_pairs(3, [(0, 1, 1.0), (1, 2, 5.0), (0, 2, 5.0)])
        val, sides = brute_force_matrix(
            AdjacencyMatrix.from_edgelist(g).a, collect=True)
        assert val == 6.0
        assert len(sides) == 2

    def test_unique_minimum(self):
        g = EdgeList.from_pairs(3, [(0, 1, 1.0), (1, 2, 5.0), (0, 2, 7.0)])
        val, sides = brute_force_matrix(
            AdjacencyMatrix.from_edgelist(g).a, collect=True)
        assert val == 6.0
        assert len(sides) == 1


class TestKargerSteinAll:
    """On matrices of twice the base size: at or below ``KS_BASE_SIZE`` a
    call is one enumeration, which ``TestBruteForceAll`` already covers."""

    def test_collects_ties_on_cycle(self):
        n = 2 * KS_BASE_SIZE
        g = weighted_cycle(n)
        a = AdjacencyMatrix.from_edgelist(g).a
        found = {}
        for seed in range(12):
            val, cuts = karger_stein_matrix(a, philox_stream(seed), collect=True)
            if val == 2.0:
                found.update(cuts)
        assert len(found) == n * (n - 1) // 2  # pairs of cycle edges

    def test_values_match_single_variant(self):
        g = erdos_renyi(2 * KS_BASE_SIZE, 80, philox_stream(30), weighted=True)
        a = AdjacencyMatrix.from_edgelist(g).a
        val, cuts = karger_stein_matrix(a, philox_stream(0), collect=True)
        for side in cuts.values():
            assert g.cut_value(side) == pytest.approx(val)

    @pytest.mark.parametrize("seed", range(4))
    def test_collect_is_the_same_recursion(self, seed):
        """One recursion, two result shapes: on a tie-free matrix both modes
        draw the same random numbers and charge the tracker identically."""
        n = 30
        assert n >= 2 * KS_BASE_SIZE
        w = philox_stream(77).random((n, n)) + 0.5
        a = np.triu(w, 1)
        a = a + a.T
        single, collected = AnalyticTracker(), AnalyticTracker()
        rng, rng_all = philox_stream(seed), philox_stream(seed)
        val, side = karger_stein_matrix(a, rng, single)
        val_all, cuts = karger_stein_matrix(a, rng_all, collected, collect=True)
        assert val_all == val
        assert rng.random() == rng_all.random()  # both streams stand equal
        assert (single.op_count, single.miss_count) == \
            (collected.op_count, collected.miss_count)
        # the one cut both found (the stored side may be its complement)
        assert list(cuts) == [canonical_cut_key(side)]


class TestMinimumCuts:
    def test_cycle_all_cuts(self):
        g = weighted_cycle(5)
        res = minimum_cuts(g, p=3, seed=1, trials=60)
        assert res.value == 2.0
        assert len(res.sides) == 10  # C(5,2)
        for s in res.sides:
            assert g.cut_value(s) == 2.0

    def test_unique_cut(self):
        g = two_cliques_bridge(6)
        res = minimum_cuts(g, p=2, seed=1)
        assert res.value == 1.0
        assert len(res.sides) == 1

    def test_value_matches_single_cut_api(self):
        g = erdos_renyi(30, 150, philox_stream(31), weighted=True)
        single = minimum_cut(g, p=2, seed=5)
        multi = minimum_cuts(g, p=2, seed=5)
        assert multi.value == single.value

    def test_no_duplicate_sides(self):
        g = complete_graph(5)
        res = minimum_cuts(g, p=2, seed=3, trials=30)
        keys = {canonical_cut_key(s) for s in res.sides}
        assert len(keys) == len(res.sides) == 5

    def test_group_parallel_mode(self):
        g = weighted_cycle(6)
        res = minimum_cuts(g, p=6, seed=2, trials=2)  # p > trials
        assert res.value == 2.0
        assert len(res.sides) >= 1


class TestPreprocess:
    def test_min_weighted_degree(self):
        g = EdgeList.from_pairs(3, [(0, 1, 3.0), (1, 2, 5.0)])
        assert min_weighted_degree(g) == 3.0

    def test_contracts_provably_safe_edges(self):
        g = EdgeList.from_pairs(4, [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 1.0)])
        h, labels = contract_heavy_edges(g)
        assert h.n == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] != labels[0]

    def test_preserves_mincut_value(self):
        for seed in range(5):
            g = erdos_renyi(12, 36, philox_stream(seed + 40), weighted=True)
            # add a pendant so heavy edges exist
            g = EdgeList(
                13,
                np.concatenate([g.u, [0]]),
                np.concatenate([g.v, [12]]),
                np.concatenate([g.w, [0.5]]),
            )
            before = brute_force_mincut(g)
            h, labels = contract_heavy_edges(g)
            if h.n >= 2:
                assert brute_force_mincut(h) == pytest.approx(before)

    def test_nothing_to_contract(self):
        g = complete_graph(5)
        h, labels = contract_heavy_edges(g)
        assert h.n == 5
        assert np.array_equal(labels, np.arange(5))

    def test_disconnected_untouched(self):
        g = EdgeList.from_pairs(4, [(0, 1, 9.0)])  # isolated vertices
        h, labels = contract_heavy_edges(g)
        assert h.n == 4

    def test_minimum_cut_with_preprocess(self):
        g = EdgeList.from_pairs(5, [(0, 1, 20.0), (1, 2, 20.0), (2, 3, 2.0),
                                    (3, 4, 20.0), (0, 4, 3.0)])
        plain = minimum_cut(g, p=2, seed=1)
        pre = minimum_cut(g, p=2, seed=1, preprocess=True)
        assert pre.value == plain.value
        assert g.cut_value(pre.side) == pre.value


class TestSpanningForest:
    def _nx_msf_weight(self, g):
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        for u, v, w in g.as_tuples():
            if not h.has_edge(u, v) or h[u][v]["weight"] > w:
                h.add_edge(u, v, weight=w)
        forest = nx.minimum_spanning_edges(h, data=True)
        return sum(d["weight"] for _, _, d in forest)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_networkx(self, p):
        g = erdos_renyi(120, 400, philox_stream(50), weighted=True)
        res = minimum_spanning_forest(g, p=p, seed=1)
        assert res.total_weight == pytest.approx(self._nx_msf_weight(g))

    def test_forest_structure(self):
        g = erdos_renyi(80, 200, philox_stream(51), weighted=True)
        res = minimum_spanning_forest(g, p=3, seed=2)
        assert res.forest.m == g.n - res.n_components
        assert res.n_components == networkx_components(g)
        # forest edges connect exactly the input's components
        assert networkx_components(res.forest) == res.n_components

    def test_deterministic(self):
        g = erdos_renyi(60, 150, philox_stream(52), weighted=True)
        a = minimum_spanning_forest(g, p=2, seed=3)
        b = minimum_spanning_forest(g, p=4, seed=9)
        # Boruvka with edge-id tie-break: identical forest regardless of p/seed
        assert sorted(a.forest.as_tuples()) == sorted(b.forest.as_tuples())

    def test_parallel_edges(self):
        g = EdgeList.from_pairs(3, [(0, 1, 5.0), (0, 1, 1.0), (1, 2, 2.0)])
        res = minimum_spanning_forest(g, p=2, seed=0)
        assert res.total_weight == 3.0

    def test_unweighted_grid(self):
        g = grid_graph(5, 5)
        res = minimum_spanning_forest(g, p=3, seed=0)
        assert res.forest.m == 24
        assert res.total_weight == 24.0

    def test_empty_graph(self):
        g = EdgeList.empty(4)
        res = minimum_spanning_forest(g, p=2, seed=0)
        assert res.forest.m == 0
        assert res.n_components == 4

    def test_logarithmic_rounds(self):
        g = erdos_renyi(256, 1024, philox_stream(53), weighted=True)
        res = minimum_spanning_forest(g, p=4, seed=1)
        # Boruvka halves components per round: O(log n) * O(1) supersteps
        assert res.report.supersteps <= 12 * 4


class TestClustering:
    def test_ring_of_cliques(self):
        g = ring_of_cliques(5, 5)
        res = mincut_clustering(g, p=4, seed=1)
        assert res.n_clusters == 5
        sizes = sorted(len(c) for c in res.clusters())
        assert sizes == [5] * 5

    def test_labels_dense(self):
        g = ring_of_cliques(3, 4)
        res = mincut_clustering(g, p=2, seed=2)
        assert set(np.unique(res.labels)) == set(range(res.n_clusters))

    def test_disconnected_split_first(self):
        g = EdgeList.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        res = mincut_clustering(g, p=2, seed=3)
        assert res.n_clusters == 2
        assert res.labels[0] != res.labels[3]

    def test_max_clusters_cap(self):
        g = ring_of_cliques(6, 4)
        res = mincut_clustering(g, p=2, seed=4, max_clusters=3)
        assert res.n_clusters <= 3

    def test_min_cluster_floor(self):
        g = weighted_cycle(8)
        res = mincut_clustering(g, p=2, seed=5, min_cluster=8)
        assert res.n_clusters == 1

    def test_single_cluster_when_dense(self):
        g = complete_graph(10)
        res = mincut_clustering(g, p=2, seed=6)
        assert res.n_clusters == 1

    def test_custom_criterion(self):
        g = ring_of_cliques(4, 4)
        # never accept: splits all the way to min_cluster
        res = mincut_clustering(
            g, p=2, seed=7, accept=lambda sub, val: False, min_cluster=2
        )
        assert res.n_clusters >= 8

    def test_relative_cut_criterion(self):
        accept = relative_cut_criterion(0.5)
        dense = complete_graph(6)
        assert accept(dense, 5.0)       # K6: cut 5 vs density 5
        sparse = weighted_cycle(12)
        assert not accept(sparse, 0.5)  # cheap cut vs density 2


class TestEngineTrace:
    def test_trace_records_collectives(self):
        import operator

        def prog(ctx):
            yield from ctx.comm.barrier()
            x = yield from ctx.comm.allreduce(1, op=operator.add)
            return x

        eng = Engine(tracer=RecordingTracer())
        res = eng.run(prog, 3)
        assert res.trace_kinds() == ["barrier", "allreduce"]
        assert res.trace[1].participants == (0, 1, 2)

    def test_no_trace_by_default(self):
        def prog(ctx):
            yield from ctx.comm.barrier()

        res = Engine().run(prog, 2)
        assert res.trace is None
        with pytest.raises(ValueError):
            res.trace_kinds()

    def test_sparsification_schedule_visible(self):
        """The §3.1 schedule: scalar-weight gather, then the typed path —
        a counts scatterv and the sampled-edges gatherv."""
        from repro.core.sparsify import sparsify_weighted

        g = erdos_renyi(40, 120, philox_stream(54), weighted=True)
        slices = g.slices(2)

        def prog(ctx):
            sl = slices[ctx.rank]
            out = yield from sparsify_weighted(ctx, ctx.comm, sl.u, sl.v, sl.w, 16)
            return out

        eng = Engine(tracer=RecordingTracer())
        res = eng.run(prog, 2, seed=1)
        assert res.trace_kinds() == ["gather", "scatterv", "gatherv"]
