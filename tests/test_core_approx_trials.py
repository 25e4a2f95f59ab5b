"""Tests for the approximate minimum cut (§3.3) and trial-count math."""

import math
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core import approx_minimum_cut, num_trials, eager_survival_probability
from repro.core import approx_mincut
from repro.core.approx_mincut import (
    _blocks_disconnected,
    _keep_probability,
    _sample_union,
)
from repro.core.trials import (
    achieved_success_probability,
    recursive_success_probability,
)
from repro.dynamic import DynamicGraph
from repro.graph import (
    EdgeList,
    complete_graph,
    erdos_renyi,
    two_cliques_bridge,
    verification_suite,
    write_edgelist,
)
from repro.graph.validate import networkx_components, networkx_mincut
from repro.kernels import cc_labels
from repro.rng import philox_stream
from repro.runtime.errors import WorkerProgramError
from tests.conftest import require_mp


class TestKeepProbability:
    def test_unit_weight(self):
        assert _keep_probability(np.array([1.0]), 1)[0] == pytest.approx(0.5)
        assert _keep_probability(np.array([1.0]), 3)[0] == pytest.approx(1 / 8)

    def test_heavy_edge_kept(self):
        # weight-100 edge at level 1 survives essentially always
        assert _keep_probability(np.array([100.0]), 1)[0] > 0.999999

    def test_monotone_in_level(self):
        w = np.array([5.0])
        ps = [_keep_probability(w, i)[0] for i in range(1, 10)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_weight(self):
        p = _keep_probability(np.array([1.0, 2.0, 10.0]), 4)
        assert p[0] < p[1] < p[2]

    def test_numerically_stable_at_deep_levels(self):
        p = _keep_probability(np.array([1.0]), 50)
        assert 0 < p[0] < 1e-10


def test_blocks_disconnected_matches_per_block_unique():
    rng = np.random.default_rng(5)
    n, n_blocks = 7, 60
    labels = rng.integers(0, 2, size=n * n_blocks)
    labels[: 10 * n] = np.repeat(np.arange(10), n)  # ten connected blocks
    expected = [np.unique(labels[b * n:(b + 1) * n]).size > 1
                for b in range(n_blocks)]
    assert 0 < sum(expected) < n_blocks
    assert _blocks_disconnected(labels, n, n_blocks).tolist() == expected


class _NoCharge:
    """Stands in for the rank context where only the sampler is under test."""

    def charge_scan(self, *_args, **_kwargs):
        pass

    charge_random = charge_scan


class TestCoupledSampling:
    """One uniform per (trial, edge) defines every level (§3.3 marginals,
    nested across levels)."""

    def _edge_sets(self, levels, trials=6, m=4000):
        """``(w, sets)``: ``sets[b][t]`` = edges of trial ``t`` at
        ``levels[b]``, on a cycle so ``u`` names the edge."""
        rng = np.random.default_rng(11)
        u = np.arange(m)
        v = (u + 1) % m
        w = rng.integers(1, 9, m).astype(float)
        draws = rng.random((trials, m))
        uu, vv = _sample_union(_NoCharge(), u, v, w, m, draws, levels)
        block = uu // m
        assert np.array_equal(block, vv // m)  # an edge stays in its block
        assert np.array_equal((uu + 1) % m, vv % m)
        return w, [[uu[block == b * trials + t] % m for t in range(trials)]
                   for b in range(len(levels))]

    def test_levels_are_nested_per_trial(self):
        _w, sets = self._edge_sets(list(range(1, 9)))
        for sparse, dense in zip(sets[1:], sets):
            for a, b in zip(sparse, dense):
                assert a.size < b.size and np.isin(a, b).all()

    def test_descent_draws_only_the_edges_above_lacks(self):
        """Below level ``hi``, the sample is the full one relabeled through
        ``hi``'s union labels, minus the edges already inside them."""
        rng = np.random.default_rng(12)
        n, trials = 300, 5
        u = rng.integers(0, n, 2000)
        v = (u + rng.integers(1, n, 2000)) % n
        w = rng.integers(1, 9, u.size).astype(float)
        draws = rng.random((trials, u.size))
        hi, lo = 4, 2
        uu, vv = _sample_union(_NoCharge(), u, v, w, n, draws, [hi])
        labels, _k = cc_labels(n * trials, uu, vv)
        full = _sample_union(_NoCharge(), u, v, w, n, draws, [lo])
        du, dv = _sample_union(_NoCharge(), u, v, w, n, draws, [lo],
                               (hi, labels))
        fu, fv = labels[full[0]], labels[full[1]]
        inside = fu == fv
        assert 0 < du.size < full[0].size and (du != dv).all()
        assert np.array_equal(du, fu[~inside])
        assert np.array_equal(dv, fv[~inside])

    def test_kept_fraction_matches_the_marginal(self):
        levels = [1, 2, 4, 7]
        w, sets = self._edge_sets(levels)
        for level, per_trial in zip(levels, sets):
            prob = _keep_probability(w, level)
            sigma = math.sqrt((prob * (1 - prob)).sum())
            for kept in per_trial:
                assert abs(kept.size - prob.sum()) <= 5 * sigma, level


class TestStagedSearch:
    """The staged schedule searches the nested levels; the pipelined one
    evaluates all of them on the same draws."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """Levels of every stage, as rank 0 sampled them, and the ``hi``
        each probe descended below (``None``: a full-union probe)."""
        stages, below = [], []

        def spy(ctx, u, v, w, n, draws, levels, *args):
            if ctx.rank == 0:
                stages.append(list(levels))
                below.append(args[0][0] if args and args[0] else None)
            return _sample_union(ctx, u, v, w, n, draws, levels, *args)

        monkeypatch.setattr(approx_mincut, "_sample_union", spy)
        return stages, below

    @pytest.fixture
    def probed(self, spied):
        return spied[0]

    @staticmethod
    def _stage_bound(g):
        n_levels = max(1, math.ceil(math.log(g.w.sum())))
        return n_levels, 2 * math.ceil(math.log2(n_levels)) + 1

    @staticmethod
    def _answer(r):
        side = None if r.witness_side is None else r.witness_side.tolist()
        return r.estimate, r.witness_value, side

    def test_staged_equals_pipelined_on_the_zoo(self):
        for case in verification_suite():
            if case.mincut is None:
                continue
            for p in (1, 2, 3, 4):
                for seed in range(16):
                    a = approx_minimum_cut(case.graph, p=p, seed=seed)
                    b = approx_minimum_cut(case.graph, p=p, seed=seed,
                                           pipelined=True)
                    assert self._answer(a) == self._answer(b), (
                        case.name, p, seed)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_descent_equals_pipelined(self, spied, p):
        """Graph A's density (m = 8n, weighted): a probe below a
        disconnected level descends — and returns the estimate and
        witness the full-union pipeline finds."""
        g = erdos_renyi(300, 2400, philox_stream(42), weighted=True)
        stages, below = spied
        descended = 0
        for seed in range(4):
            del stages[:], below[:]
            a = approx_minimum_cut(g, p=p, seed=seed)
            descended += below[-1] is not None
            assert below[0] is None  # nothing is known to be disconnected
            for probe, hi in zip(stages[1:], below[1:]):
                assert hi is None or probe[0] < hi, (stages, below)
            b = approx_minimum_cut(g, p=p, seed=seed, pipelined=True)
            assert self._answer(a) == self._answer(b), (p, seed)
        assert descended >= 2, p

    def test_small_cut_under_high_degree(self, probed):
        """Two cliques and a unit bridge: the degree rule starts above the
        answer and gallops down to level 1."""
        g = two_cliques_bridge(64)
        r = approx_minimum_cut(g, p=2, seed=3)
        _n_levels, bound = self._stage_bound(g)
        assert r.estimate == 2.0 and r.witness_value == 1.0
        assert probed == [[3], [2], [1]] and len(probed) <= bound

    def test_heavy_clique_never_disconnects(self, probed):
        g = complete_graph(8, weight=1e6)
        r = approx_minimum_cut(g, p=2, seed=3)
        n_levels, bound = self._stage_bound(g)
        assert r.estimate == 2.0 ** n_levels
        assert r.witness_value is None and r.witness_side is None
        assert probed == [[n_levels]] and len(probed) <= bound

    def test_disconnected_input_draws_nothing(self, probed):
        g = EdgeList.from_pairs(6, [(0, 1), (1, 2), (3, 4)])
        assert approx_minimum_cut(g, p=2, seed=3).estimate == 0.0
        assert probed == []

    @pytest.mark.parametrize("weight", [1.0, 40.0, 3e4])
    def test_stage_bound_whatever_the_answer(self, probed, monkeypatch, weight):
        """Drive the search with an oracle that disconnects every trial from
        level ``answer`` on: it must return ``2^answer`` (``2^n_levels`` for
        "never") within the stage bound, from any starting probe."""
        g = complete_graph(12, weight=weight)
        n_levels, bound = self._stage_bound(g)
        for answer in range(1, n_levels + 2):
            del probed[:]

            def oracle(labels, n, n_blocks, answer=answer):
                return np.full(n_blocks, probed[-1][0] >= answer)

            monkeypatch.setattr(approx_mincut, "_blocks_disconnected", oracle)
            r = approx_minimum_cut(g, p=1, seed=0)
            assert r.estimate == 2.0 ** min(answer, n_levels), answer
            assert len(probed) <= bound, (answer, probed)
            assert len(set(map(tuple, probed))) == len(probed)  # no re-probe


class TestApproxMinCut:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_approximation_ratio_bound(self, p):
        """Artifact observed ratios below 11; we allow the same slack both ways."""
        for case in verification_suite():
            if case.mincut is None:
                continue
            r = approx_minimum_cut(case.graph, p=p, seed=21)
            ratio = r.estimate / case.mincut
            bound = 11 * max(1.0, math.log2(case.graph.n))
            assert 1 / bound <= ratio <= bound, (case.name, ratio)

    def test_witness_value_exact_on_input(self):
        g = erdos_renyi(50, 300, philox_stream(80), weighted=True)
        r = approx_minimum_cut(g, p=3, seed=22)
        if r.witness_side is not None:
            assert g.cut_value(r.witness_side) == pytest.approx(r.witness_value)
            assert r.witness_value >= networkx_mincut(g) - 1e-9

    def test_disconnected_returns_zero(self):
        g = EdgeList.from_pairs(6, [(0, 1), (1, 2), (3, 4)])
        r = approx_minimum_cut(g, p=2, seed=23)
        assert r.estimate == 0.0
        assert g.cut_value(r.witness_side) == 0.0

    def test_pipelined_matches_ratio_bound(self):
        g = two_cliques_bridge(6, bridge_weight=2.0)
        r = approx_minimum_cut(g, p=3, seed=24, pipelined=True)
        assert 2.0 / 16 <= r.estimate <= 2.0 * 16

    def test_pipelined_constant_supersteps(self):
        """The pipelined schedule must not grow with the cut value."""
        small = two_cliques_bridge(6, bridge_weight=1.0)
        big = two_cliques_bridge(6, bridge_weight=64.0)
        s_small = approx_minimum_cut(small, p=2, seed=25, pipelined=True)
        s_big = approx_minimum_cut(big, p=2, seed=25, pipelined=True)
        # both answered by one CC call over the union
        assert abs(s_big.report.supersteps - s_small.report.supersteps) <= 16

    def test_staged_stops_early_for_small_cuts(self):
        """Staged supersteps grow with log(mu), so a tiny cut stops early."""
        small_cut = two_cliques_bridge(8, bridge_weight=1.0)
        r = approx_minimum_cut(small_cut, p=2, seed=26)
        assert r.estimate <= 8.0

    def test_deterministic(self):
        g = erdos_renyi(40, 200, philox_stream(81))
        a = approx_minimum_cut(g, p=3, seed=27)
        b = approx_minimum_cut(g, p=3, seed=27)
        assert a.estimate == b.estimate

    def test_trials_per_level_override(self):
        g = complete_graph(10)
        r = approx_minimum_cut(g, p=2, seed=28, trials_per_level=2)
        assert r.estimate > 0

    def test_estimate_scales_with_cut(self):
        """Bigger min cut -> larger (or equal) estimate, statistically."""
        thin = two_cliques_bridge(10, bridge_weight=1.0)
        fat = two_cliques_bridge(10, bridge_weight=32.0)
        e_thin = np.median([
            approx_minimum_cut(thin, p=2, seed=s).estimate for s in range(5)
        ])
        e_fat = np.median([
            approx_minimum_cut(fat, p=2, seed=s).estimate for s in range(5)
        ])
        assert e_fat > e_thin

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            approx_minimum_cut(EdgeList.empty(1), p=1, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("trials_per_level", -1),   # used to return 2^n_levels, no witness
        ("trials_per_level", 0),    # used to mean "default"
        ("trials_per_level", 2.5),  # used to die in range()
        ("trials_per_level", True),
        ("eps", 0.0), ("eps", math.inf), ("eps", "0.25"),
        ("delta", 0.0), ("delta", 1.0), ("delta", math.nan),
    ])
    def test_out_of_domain_option_rejected(self, field, value):
        """The library entry validates what the CLI and the daemon do."""
        with pytest.raises(ValueError, match=f"{field} must be"):
            approx_minimum_cut(complete_graph(5), p=2, seed=0, **{field: value})

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            approx_minimum_cut(EdgeList.empty(3), p=1, seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestOverflowingWeight:
    """A total weight past float64's range is refused like a zero one,
    not crashed on with an ``OverflowError`` in the level count."""

    @pytest.fixture
    def huge(self):
        return EdgeList.from_pairs(3, [(0, 1, 1e308), (1, 2, 1e308),
                                       (0, 2, 1e308)])

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_cli_refuses(self, huge, tmp_path, backend):
        if backend == "mp":
            require_mp()
        path = tmp_path / "huge.txt"
        write_edgelist(huge, path)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises((ValueError, WorkerProgramError)) as info:
            main(["approx_cut", str(path), "--procs", "2",
                  "--backend", backend])
        kind = getattr(info.value, "exc_type", type(info.value).__name__)
        assert kind == "ValueError"
        assert set(os.listdir("/dev/shm")) == before

    def test_dynamic_approx_query_refuses(self, huge):
        dyn = DynamicGraph(huge, p=2, seed=0)
        with pytest.raises(ValueError, match="finite total edge weight"):
            dyn.query_cut("approx")


class TestBackends:
    """The same entry point on each execution backend (smoke-level)."""

    def test_ratio_bound_by_backend(self, backend):
        g = two_cliques_bridge(6, bridge_weight=2.0)
        r = approx_minimum_cut(g, p=2, seed=29, backend=backend)
        assert 2.0 / 16 <= r.estimate <= 2.0 * 16

    def test_backends_agree_exactly(self, backend):
        g = erdos_renyi(60, 300, philox_stream(82), weighted=True)
        ref = approx_minimum_cut(g, p=3, seed=30)  # sim oracle
        res = approx_minimum_cut(g, p=3, seed=30, backend=backend)
        assert res.estimate == ref.estimate
        assert res.witness_value == ref.witness_value
        assert res.report == ref.report


class TestTrialMath:
    def test_survival_probability_formula(self):
        assert eager_survival_probability(10, 10) == 1.0
        assert eager_survival_probability(10, 12) == 1.0
        assert eager_survival_probability(4, 2) == pytest.approx(2 / 12)

    def test_survival_validation(self):
        with pytest.raises(ValueError):
            eager_survival_probability(1, 2)
        with pytest.raises(ValueError):
            eager_survival_probability(5, 1)

    def test_recursive_success_probability(self):
        assert recursive_success_probability(2) == 1.0
        assert 0 < recursive_success_probability(10 ** 6) < 0.06

    def test_num_trials_monotone_in_density(self):
        """Denser graphs need fewer trials: t = Theta(n^2/m log^2 n)."""
        sparse = num_trials(1000, 2000)
        dense = num_trials(1000, 100_000)
        assert dense < sparse

    def test_num_trials_monotone_in_prob(self):
        assert num_trials(100, 500, success_prob=0.99) > \
            num_trials(100, 500, success_prob=0.5)

    def test_num_trials_scale(self):
        full = num_trials(100, 500)
        assert num_trials(100, 500, scale=0.1) <= max(1, full // 5)

    def test_num_trials_at_least_one(self):
        assert num_trials(4, 6, scale=1e-9) == 1

    def test_num_trials_validation(self):
        with pytest.raises(ValueError):
            num_trials(10, 20, success_prob=1.0)
        with pytest.raises(ValueError):
            num_trials(10, 20, scale=0)
        with pytest.raises(ValueError):
            num_trials(10, 0)

    @pytest.mark.parametrize("prob", [1.0, 0.0, 1.5, -0.1])
    def test_num_trials_out_of_range_prob_message(self, prob):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            num_trials(10, 20, success_prob=prob)

    def test_num_trials_prob_one_explains_why(self):
        """p=1 would need infinitely many Monte-Carlo trials; say so."""
        with pytest.raises(ValueError, match="infinitely many"):
            num_trials(10, 20, success_prob=1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_num_trials_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            num_trials(10, 20, scale=scale)

    def test_num_trials_nan_prob_rejected(self):
        with pytest.raises(ValueError):
            num_trials(10, 20, success_prob=math.nan)


class TestAchievedSuccessProbability:
    def test_zero_completed_is_zero(self):
        assert achieved_success_probability(100, 500, 0) == 0.0

    def test_full_budget_meets_request(self):
        for prob in (0.5, 0.9, 0.99):
            planned = num_trials(100, 500, success_prob=prob)
            achieved = achieved_success_probability(100, 500, planned)
            assert achieved >= prob

    def test_monotone_in_completed(self):
        probs = [achieved_success_probability(100, 500, k)
                 for k in range(0, 40, 5)]
        assert probs == sorted(probs)
        assert all(0.0 <= q < 1.0 for q in probs)

    def test_partial_budget_falls_short(self):
        planned = num_trials(100, 500, success_prob=0.9)
        partial = achieved_success_probability(100, 500, planned // 2)
        assert partial < 0.9

    def test_negative_completed_rejected(self):
        with pytest.raises(ValueError, match="completed"):
            achieved_success_probability(100, 500, -1)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError):
            achieved_success_probability(100, 0, 1)
