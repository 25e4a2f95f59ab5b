"""Tests for the sequential Karger–Stein recursion and its building blocks."""

import math

import numpy as np
import pytest

from repro.cache import (AnalyticTracker, CacheParams, LRUTracker,
                         MemoryTracker)
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

        def one(a):
            return ks._contract_stack(a[None], labels[None], n_new)[0]

        exact = random_matrix(n, seed=n, integer=True)
        assert np.array_equal(one(exact),
                              add_at_contract_matrix(exact, labels, n_new))
        # float sums are taken in another order: equal to rounding, and the
        # structure (symmetry, zero diagonal) exactly
        rounded = random_matrix(n, seed=200 + n, integer=False)
        got = one(rounded)
        want = add_at_contract_matrix(rounded, labels, n_new)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert (np.diag(got) == 0).all()
        # a matrix contracts to the same bytes alone and inside a stack
        stack = np.stack([exact, rounded, rounded[::-1, ::-1]])
        both = ks._contract_stack(stack, np.stack([labels] * 3), n_new)
        assert np.array_equal(both[1], got)


class RoundLog(AnalyticTracker):
    """Records each round's (matrix size, sample size) per contraction, from
    the round's one charge for its whole stack."""

    def __init__(self):
        super().__init__()
        self.rounds = []

    def matrices(self, name, sizes, ops, picks=None, reads=None, moved=None):
        if picks is not None:
            self.rounds += zip(np.asarray(sizes).tolist(),
                               np.asarray(reads).tolist())
        super().matrices(name, sizes, ops, picks, reads, moved)


class TestRounds:
    def test_each_round_samples_at_its_own_size(self):
        """Round r samples s(k_r) entries, k_r the size the matrix has then;
        in a stack, rows of different sizes pad with loops and contract as
        they would alone."""
        a = random_matrix(40, seed=3, integer=True)
        b = a.copy()
        a[0, 1] = a[1, 0] = b[0, 1] = b[1, 0] = b[2, 3] = b[3, 2] = 1e7
        t = math.ceil(1 + 40 / math.sqrt(2))
        draws = ks._keyed(5, 0, 0, 2)
        mem = RoundLog()
        _, labels, n_new = random_contract_matrix(np.stack([a, b]), t, draws,
                                                  mem)
        assert (n_new == t).all()
        # round 1 finds the rows at two sizes below 40: one pads with loops
        assert [k for k, _ in mem.rounds[:2]] == [40, 40]
        assert len({k for k, _ in mem.rounds[2:4]} - {40}) == 2
        assert all(s == ks._sample_size(k) for k, s in mem.rounds)
        for i, m in enumerate((a, b)):
            _, alone, _ = random_contract_matrix(m[None], t,
                                                 ks._keyed(5, 0, i, 1))
            np.testing.assert_array_equal(alone[0], labels[i])


class PerMatrix(AnalyticTracker):
    """Closed-form charges made one matrix at a time, as before stacks were
    charged at once: the interface's row-by-row ``matrices``."""

    matrices = MemoryTracker.matrices


class TestStackCharges:
    """A stack charged at once costs what its matrices cost one by one."""

    @pytest.mark.parametrize("params", [CacheParams(), CacheParams(M=64, B=8)])
    def test_one_call_equals_the_per_matrix_calls(self, params):
        """Rows of different sizes, rows that do not move, reads of every
        length up to the row's picks; the matrix fits in cache or not."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            b = int(rng.integers(1, 40))
            sizes = rng.integers(2, 30, size=b)
            reads = rng.integers(0, 200, size=b)
            picks = rng.integers(0, 29 * 29, size=(b, 200))
            moved = rng.random(b) < 0.5
            ops = rng.integers(0, 10**6, size=b)
            totals = []
            for mem in (AnalyticTracker(params), PerMatrix(params)):
                mem.alloc("ks_matrix", 30 * 30)
                mem.matrices("ks_matrix", sizes, ops, picks=picks,
                             reads=reads, moved=moved)
                mem.matrices("ks_matrix", sizes, ops)  # leaves: scan, ops
                totals.append((mem._misses, mem.op_count))
            assert totals[0] == totals[1]

    @pytest.mark.parametrize("n", [30, 81])
    def test_recursion_charges_equal_the_per_matrix_calls(self, n):
        heavy = random_matrix(60, seed=11, integer=True)
        for i in range(0, 12, 2):  # several rounds, rows at several sizes
            heavy[i, i + 1] = heavy[i + 1, i] = 1e6
        for a in (random_matrix(n, seed=n, integer=False), heavy):
            for seed in range(3):
                totals = []
                for mem in (AnalyticTracker(), PerMatrix()):
                    found = karger_stein_matrix(a, philox_stream(seed), mem)
                    totals.append((found[0], mem._misses, mem.op_count))
                assert totals[0] == totals[1]

    def test_a_tracing_tracker_is_charged_one_matrix_at_a_time(self,
                                                               monkeypatch):
        """The LRU replay sees one matrix per contraction call and per leaf
        group: the call sequence of a per-matrix walk."""
        calls, contract = [], ks.random_contract_matrix

        class Spy(LRUTracker):
            def matrices(self, name, sizes, *args, **kwargs):
                calls.append(("charge", len(sizes)))
                super().matrices(name, sizes, *args, **kwargs)

        def recording(stack, *args):
            calls.append(("contract", len(stack)))
            return contract(stack, *args)

        monkeypatch.setattr(ks, "random_contract_matrix", recording)
        karger_stein_matrix(random_matrix(81, seed=2, integer=True),
                            philox_stream(2), Spy(M=1024, B=8))
        assert {b for _, b in calls} == {1}
        assert {what for what, _ in calls} == {"charge", "contract"}


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


class TracingAnalytic(AnalyticTracker):
    """Closed-form charges (order-free) that ask for the traced walk."""

    is_tracing = True


class TestTwoOrders:
    """By levels and depth-first in stacks of one: same draws, same answer,
    same charges."""

    @staticmethod
    def both(a, seed, collect=False):
        out = []
        for mem in (AnalyticTracker(), TracingAnalytic()):
            val, found = karger_stein_matrix(a, philox_stream(seed), mem,
                                             collect=collect)
            out.append((val, found, mem.op_count, mem.miss_count))
        return out

    @pytest.mark.parametrize("n", [30, 60, 81])
    def test_value_side_cuts_and_charges_agree(self, n):
        for seed in range(8):
            a = random_matrix(n, seed=1000 * n + seed, integer=seed % 2 == 0)
            (v1, s1, o1, m1), (v2, s2, o2, m2) = self.both(a, seed)
            assert (v1, o1, m1) == (v2, o2, m2)
            np.testing.assert_array_equal(s1, s2)
            (c1, k1, o1, m1), (c2, k2, o2, m2) = self.both(a, seed, True)
            assert (c1, sorted(k1), o1, m1) == (c2, sorted(k2), o2, m2)
            assert c1 == v1

    @pytest.mark.parametrize("isolated,components", [(0, 3), (20, 22)])
    def test_disconnected_agrees(self, isolated, components):
        """Three blocks reach the leaves; isolating the first block's 20
        vertices makes level 3 (target 19 < 22 components) run out of
        edges."""
        a = random_matrix(60, seed=7, integer=True)
        a[:20, 20:] = a[20:, :20] = 0.0
        a[40:, :40] = a[:40, 40:] = 0.0
        a[:isolated, :] = a[:, :isolated] = 0.0
        for seed in range(3):
            (v1, s1, o1, m1), (v2, s2, o2, m2) = self.both(a, seed)
            assert v1 == v2 == 0.0 and (o1, m1) == (o2, m2)
            np.testing.assert_array_equal(s1, s2)
            assert AdjacencyMatrix(a).cut_value(s1) == 0.0
            (_, k1, *_), (_, k2, *_) = self.both(a, seed, True)
            assert sorted(k1) == sorted(k2) and len(k1) == components

    def test_multi_round_contractions_agree(self):
        """Heavy edges make the first round merge little, so contractions
        take several rounds, each sampling at its own size."""
        a = random_matrix(60, seed=11, integer=True)
        for i in range(0, 12, 2):
            a[i, i + 1] = a[i + 1, i] = 1e6
        for seed in range(4):
            (v1, s1, o1, m1), (v2, s2, o2, m2) = self.both(a, seed)
            assert (v1, o1, m1) == (v2, o2, m2)
            np.testing.assert_array_equal(s1, s2)

    @pytest.mark.parametrize("chunk", [1, 2000])
    def test_chunked_walk_is_the_whole_level_walk(self, monkeypatch, chunk):
        """A small ``_CHUNK_ENTRIES`` walks each level in chunks (of one
        matrix, at 1): same value, side, cuts and charges, and no call takes
        more than the budget or one matrix.  Integer weights: leaves regroup
        by the budget too, and float sums may round differently."""
        contract, inputs = ks.random_contract_matrix, []

        def recording(stack, *args):
            inputs.append(stack.shape)
            return contract(stack, *args)

        def run(a, seed, entries, collect):
            monkeypatch.setattr(ks, "_CHUNK_ENTRIES", entries)
            mem = AnalyticTracker()
            val, found = karger_stein_matrix(a, philox_stream(seed), mem,
                                             collect=collect)
            return val, found, mem.op_count, mem.miss_count

        monkeypatch.setattr(ks, "random_contract_matrix", recording)
        for n, seed in [(40, 0), (60, 1), (81, 2), (81, 3)]:
            a = random_matrix(n, seed=50 + seed, integer=True)
            inputs.clear()
            whole = run(a, seed, ks._CHUNK_ENTRIES, False)
            assert max(b * k * k for b, k, _ in inputs) > chunk  # will split
            whole_cuts = run(a, seed, ks._CHUNK_ENTRIES, True)
            inputs.clear()
            (v, side, *charges) = run(a, seed, chunk, False)
            assert (v, *charges) == (whole[0], *whole[2:])
            np.testing.assert_array_equal(side, whole[1])
            assert all(b == 1 or b * k * k <= chunk for b, k, _ in inputs)
            (v, cuts, *charges) = run(a, seed, chunk, True)
            assert (v, sorted(cuts), *charges) == \
                (whole_cuts[0], sorted(whole_cuts[1]), *whole_cuts[2:])

    def test_contraction_draws_depend_on_position_only(self):
        """Level 1's child 3 reads row 3 of its round's block, whoever asks."""
        whole = ks._keyed(99, 1, 0, 4)(2, 40)
        np.testing.assert_array_equal(ks._keyed(99, 1, 3, 1)(2, 40), whole[3:])


class TestStackSampling:
    def test_per_matrix_frequencies_match_weights(self):
        """Totals 1, 1e3 and 1e6 with zero entries: every draw stays in its
        own matrix, never on a zero, at the weights' frequencies."""
        from scipy.stats import chisquare

        w = np.array([[0.0, 0.25, 0.0, 0.5, 0.25, 0.0],
                      [100.0, 0.0, 300.0, 0.0, 0.0, 600.0],
                      [0.0, 0.0, 0.0, 1e5, 4e5, 5e5]])
        draws = 100_000
        u = philox_stream(8).random((3, draws))
        # the largest uniform: a shared search over rows normalised and
        # offset by their index would round it into the next row
        u[:, 0] = np.nextafter(1.0, 0.0)
        picks = ks._weighted_picks(w.cumsum(axis=1), u)
        assert picks.shape == (3, draws)
        assert ((0 <= picks) & (picks < w.shape[1])).all()
        assert (np.take_along_axis(w, picks, axis=1) > 0).all()
        for row, got in zip(w, picks):
            nz = np.flatnonzero(row)
            freq = np.bincount(got, minlength=row.size)[nz]
            assert chisquare(freq, draws * row[nz] / row.sum()).pvalue > 1e-3
