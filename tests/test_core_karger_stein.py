"""Tests for the sequential Karger–Stein recursion and its building blocks."""

import math

import numpy as np
import pytest

from repro.cache import AnalyticTracker, LRUTracker
from repro.core import karger_stein as ks
from repro.core.karger_stein import (
    KS_BASE_SIZE,
    brute_force_matrix,
    karger_stein_matrix,
    random_contract_matrix,
)
from repro.graph import AdjacencyMatrix, complete_graph, erdos_renyi, two_cliques_bridge
from repro.graph.validate import brute_force_mincut, networkx_mincut
from repro.rng import philox_stream

#: Recursion tests run well above the base case: at or below
#: ``KS_BASE_SIZE`` a call is one enumeration and would test nothing else.
N_REC = 2 * KS_BASE_SIZE


def matrix_of(g):
    return AdjacencyMatrix.from_edgelist(g).a


def random_matrix(n, seed, integer):
    """Symmetric zero-diagonal weights: small integers or floats in [0.5, 1.5)."""
    rng = philox_stream(seed)
    w = rng.integers(1, 50, size=(n, n)) if integer else rng.random((n, n)) + 0.5
    a = np.triu(w, 1).astype(np.float64)
    return a + a.T


def scalar_cut_values(a):
    """Reference enumeration: every cut with vertex 0 outside, summed edge by
    edge in plain Python floats, in the table order of the vectorized code."""
    n = a.shape[0]
    values = []
    for mask in range(1, 1 << (n - 1)):
        inside = [i for i in range(1, n) if mask >> (i - 1) & 1]
        outside = [j for j in range(n) if j not in inside]
        values.append(math.fsum(a[i, j] for i in inside for j in outside))
    return values


def add_at_contract_matrix(a, labels, n_new):
    """The two-pass ``np.add.at`` contraction the one-hot product replaced,
    kept as its oracle: rows combined in vertex order, then columns."""
    rows = np.zeros((n_new, a.shape[0]), dtype=np.float64)
    np.add.at(rows, labels, a)
    out = np.zeros((n_new, n_new), dtype=np.float64)
    np.add.at(out.T, labels, rows.T)
    np.fill_diagonal(out, 0.0)
    return out


class TestBruteForceMatrix:
    def test_triangle(self):
        val, side = brute_force_matrix(matrix_of(complete_graph(3)))
        assert val == 2.0
        assert side.sum() in (1, 2)

    def test_matches_edge_enumeration(self):
        for seed in range(6):
            g = erdos_renyi(7, 15, philox_stream(seed), weighted=True)
            val, side = brute_force_matrix(matrix_of(g))
            assert val == brute_force_mincut(g)
            if 0 < side.sum() < g.n:
                assert g.cut_value(side) == val

    def test_disconnected_zero(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        val, side = brute_force_matrix(a)
        assert val == 0.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            brute_force_matrix(np.zeros((1, 1)))

    @pytest.mark.parametrize("n", [2, 5, KS_BASE_SIZE])
    def test_integer_weights_bit_equal_to_scalar_reference(self, n):
        a = random_matrix(n, seed=n, integer=True)
        reference = scalar_cut_values(a)
        val, side = brute_force_matrix(a)
        assert val == min(reference)
        # first minimum in table order, like the reference's list.index
        mask = reference.index(val) + 1
        assert side.tolist() == [False] + [bool(mask >> i & 1)
                                           for i in range(n - 1)]
        val_all, sides = brute_force_matrix(a, collect=True)
        assert val_all == val
        assert len(sides) == reference.count(val)

    @pytest.mark.parametrize("n", [3, 7, KS_BASE_SIZE])
    def test_float_weights_within_rounding_of_scalar_reference(self, n):
        a = random_matrix(n, seed=100 + n, integer=False)
        val, side = brute_force_matrix(a)
        assert math.isclose(val, min(scalar_cut_values(a)), rel_tol=1e-12)
        assert math.isclose(AdjacencyMatrix(a).cut_value(side), val,
                            rel_tol=1e-12)

    def test_ties_resolve_to_a_valid_witness(self):
        """K_n has n tied minimum cuts (the singletons): the single-cut mode
        returns one of them, the collect mode all of them."""
        n = KS_BASE_SIZE
        a = matrix_of(complete_graph(n))
        val, side = brute_force_matrix(a)
        assert val == n - 1
        assert side.sum() in (1, n - 1)
        val_all, sides = brute_force_matrix(a, collect=True)
        assert val_all == val
        assert sorted(int(min(s.sum(), n - s.sum())) for s in sides) == [1] * n

    def test_limit_names_the_table_and_allocates_nothing(self):
        n = ks._ENUM_LIMIT + 1
        with pytest.raises(ValueError, match="MB"):
            brute_force_matrix(matrix_of(complete_graph(n)))
        with pytest.raises(ValueError, match="MB"):
            brute_force_matrix(matrix_of(complete_graph(n)), collect=True)
        assert max(ks._SIDE_TABLES, default=0) <= ks._ENUM_LIMIT
        assert KS_BASE_SIZE <= ks._ENUM_LIMIT


class TestRandomContract:
    def test_reaches_target(self):
        a = matrix_of(complete_graph(20))
        cur, labels, k = random_contract_matrix(a, 5, philox_stream(1))
        assert k == 5
        assert cur.shape == (5, 5)
        assert labels.max() < 5

    def test_weight_conservation_bound(self):
        """Contraction only removes weight (loops), never creates it."""
        g = erdos_renyi(15, 60, philox_stream(2), weighted=True)
        a = matrix_of(g)
        cur, _, _ = random_contract_matrix(a, 4, philox_stream(3))
        assert cur.sum() <= a.sum() + 1e-9

    def test_symmetry_preserved(self):
        a = matrix_of(complete_graph(12))
        cur, _, _ = random_contract_matrix(a, 4, philox_stream(4))
        assert np.allclose(cur, cur.T)
        assert (np.diag(cur) == 0).all()

    def test_disconnected_stops_early(self):
        g = two_cliques_bridge(4)
        a = matrix_of(g)
        a[0, 4] = a[4, 0] = 0.0  # remove the bridge: now disconnected
        cur, labels, k = random_contract_matrix(a, 2, philox_stream(5))
        # must stop at the two components with no edges left
        assert k == 2
        assert cur.sum() == 0

    def test_labels_consistent_with_matrix(self):
        g = erdos_renyi(12, 40, philox_stream(6), weighted=True)
        a = matrix_of(g)
        cur, labels, k = random_contract_matrix(a, 3, philox_stream(7))
        # contracting `a` by `labels` must reproduce `cur`
        expected = AdjacencyMatrix(a, validate=False).contract(labels, k).a
        assert np.allclose(cur, expected)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            random_contract_matrix(matrix_of(complete_graph(4)), 1, philox_stream(0))

    @pytest.mark.parametrize("n,n_new", [(14, 11), (30, 23), (81, 59)])
    def test_one_hot_contraction_matches_add_at_reference(self, n, n_new):
        labels = philox_stream(n).permutation(np.arange(n) % n_new)
        exact = random_matrix(n, seed=n, integer=True)
        assert np.array_equal(ks._contract_matrix(exact, labels, n_new),
                              add_at_contract_matrix(exact, labels, n_new))
        # float sums are taken in another order: equal to rounding, and the
        # structure (symmetry, zero diagonal) exactly
        rounded = random_matrix(n, seed=200 + n, integer=False)
        got = ks._contract_matrix(rounded, labels, n_new)
        want = add_at_contract_matrix(rounded, labels, n_new)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert (np.diag(got) == 0).all()


class TestKargerStein:
    def test_cut_value_never_below_truth(self):
        """Any returned cut is a real cut: value >= the true minimum."""
        for seed in range(8):
            g = erdos_renyi(N_REC, 4 * N_REC, philox_stream(seed + 10),
                            weighted=True)
            truth = networkx_mincut(g)
            val, side = karger_stein_matrix(matrix_of(g), philox_stream(seed))
            assert val >= truth - 1e-9
            assert g.cut_value(side) == pytest.approx(val)

    def test_finds_bridge_with_repetition(self):
        g = two_cliques_bridge(KS_BASE_SIZE)  # 2 * base vertices
        a = matrix_of(g)
        best = min(
            karger_stein_matrix(a, philox_stream(s))[0] for s in range(8)
        )
        assert best == 1.0

    def test_base_case_exact(self):
        g = complete_graph(KS_BASE_SIZE)
        val, _ = karger_stein_matrix(matrix_of(g), philox_stream(1))
        assert val == KS_BASE_SIZE - 1

    def test_base_case_draws_nothing(self):
        a = random_matrix(KS_BASE_SIZE, seed=1, integer=True)
        rng = philox_stream(1)
        karger_stein_matrix(a, rng)
        assert rng.random() == philox_stream(1).random()

    def test_disconnected_returns_zero(self):
        for n in (8, N_REC):  # enumerated, and through the recursion
            a = np.zeros((n, n))
            a[0, 1] = a[1, 0] = 3.0
            a[5, 6] = a[6, 5] = 2.0
            val, side = karger_stein_matrix(a, philox_stream(2))
            assert val == 0.0
            assert 0 < side.sum() < n
            assert AdjacencyMatrix(a).cut_value(side) == 0.0

    def test_edgeless_above_the_base(self):
        a = np.zeros((N_REC, N_REC))
        val, side = karger_stein_matrix(a, philox_stream(2))
        assert val == 0.0 and side.tolist() == [True] + [False] * (N_REC - 1)
        val, cuts = karger_stein_matrix(a, philox_stream(2), collect=True)
        assert val == 0.0 and len(cuts) == N_REC

    def test_witness_is_valid_partition(self):
        g = erdos_renyi(N_REC + 4, 100, philox_stream(20), weighted=True)
        val, side = karger_stein_matrix(matrix_of(g), philox_stream(3))
        assert side.dtype == bool
        assert 0 < side.sum() < g.n

    def test_tracker_records_work(self):
        g = erdos_renyi(N_REC + 8, 120, philox_stream(21), weighted=True)
        mem = AnalyticTracker()
        karger_stein_matrix(matrix_of(g), philox_stream(4), mem)
        assert mem.op_count > g.n * g.n
        assert mem.miss_count > 0

    def test_lru_tracker_compatible(self):
        g = erdos_renyi(N_REC, 80, philox_stream(22), weighted=True)
        mem = LRUTracker(M=1024, B=8)
        karger_stein_matrix(matrix_of(g), philox_stream(5), mem)
        assert mem.miss_count > 0
