"""Tests for the random 2-out contraction preprocessing (repro.core.two_out).

Covers the kernel (fast == scalar reference, byte for byte), the
preprocessing plan (p-/backend-invariance of the contracted graphs), the
end-to-end ``variant="2out"`` pipeline (exact values on the verification
suite and on planted-cut dense graphs, degrade bit-identity with the
default pipeline) and the CLI surface.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    minimum_cut,
    minimum_cut_sequential,
    plan_two_out,
    replica_count,
    singleton_cut,
    two_out_minimum_cut,
)
from repro.core.karger_stein import KS_BASE_SIZE
from repro.core.two_out import (
    _REPLICA_SEED_SALT,
    MIN_DEGREE_GUARD,
    PRESERVATION_PROB,
    REPLICA_TRIAL_PROB,
)
from repro.graph import (
    EdgeList,
    clustered_er,
    complete_graph,
    erdos_renyi,
    star_graph,
    two_cliques_bridge,
    verification_suite,
    weighted_cycle,
)
from repro.kernels import scalar_two_out_sample, two_out_sample
from repro.rng import RngStreams, philox_stream
from repro.runtime import SimBackend, resolve_backend
from repro.sched import TrialScheduler
from tests.conftest import require_mp

SEED = 11


@pytest.fixture
def dense_clustered():
    """Dense two-cluster graph with a planted non-singleton min cut of 4."""
    return clustered_er(256, 24, philox_stream(77))


class TestTwoOutSampleKernel:
    def graphs(self):
        rng = philox_stream(5)
        yield erdos_renyi(40, 160, rng, weighted=True)
        yield erdos_renyi(64, 96, rng)  # sparse, some isolated vertices
        yield weighted_cycle(12, np.arange(1.0, 13.0))
        yield star_graph(9)
        yield EdgeList.from_pairs(5, [(0, 1, 2.5), (0, 1, 0.5), (2, 3, 1.0)])

    def test_fast_matches_scalar_reference(self):
        for i, g in enumerate(self.graphs()):
            fast = two_out_sample(
                g.n, g.u, g.v, g.w, philox_stream(100 + i))
            slow = scalar_two_out_sample(
                g.n, g.u, g.v, g.w, philox_stream(100 + i).random(2 * g.n))
            for a, b in zip(fast, slow):
                assert a.dtype == b.dtype == np.int64
                assert a.tobytes() == b.tobytes()

    def test_consumes_exactly_2n_draws(self):
        g = erdos_renyi(30, 90, philox_stream(6), weighted=True)
        rng_a, rng_b = philox_stream(9), philox_stream(9)
        two_out_sample(g.n, g.u, g.v, g.w, rng_a)
        rng_b.random(2 * g.n)
        assert rng_a.random() == rng_b.random()

    def test_sampled_edges_are_incident(self):
        g = erdos_renyi(50, 200, philox_stream(7), weighted=True)
        e1, e2 = two_out_sample(g.n, g.u, g.v, g.w, philox_stream(8))
        for x in range(g.n):
            for e in (e1[x], e2[x]):
                assert e >= 0
                assert x in (g.u[e], g.v[e])

    def test_isolated_vertices_get_minus_one(self):
        g = EdgeList.from_pairs(4, [(0, 1)])
        e1, e2 = two_out_sample(g.n, g.u, g.v, g.w, philox_stream(3))
        assert list(e1[2:]) == [-1, -1] and list(e2[2:]) == [-1, -1]
        assert set(e1[:2]) == set(e2[:2]) == {0}

    def test_scalar_reference_direct(self):
        g = erdos_renyi(20, 60, philox_stream(4), weighted=True)
        draws = philox_stream(2).random(2 * g.n)
        e1, e2 = scalar_two_out_sample(g.n, g.u, g.v, g.w, draws)
        assert len(e1) == len(e2) == g.n


class TestPlanInvariance:
    def test_plan_invariant_to_p(self, dense_clustered):
        plans = [plan_two_out(dense_clustered, p, seed=SEED)
                 for p in (1, 2, 5)]
        ref = plans[0]
        for plan in plans[1:]:
            assert plan.contracted_n == ref.contracted_n
            assert plan.trials_per_replica == ref.trials_per_replica
            for (au, av, aw, al, ak), (bu, bv, bw, bl, bk) in zip(
                    plan.contractions, ref.contractions):
                assert ak == bk
                assert au.tobytes() == bu.tobytes()
                assert av.tobytes() == bv.tobytes()
                assert aw.tobytes() == bw.tobytes()
                assert al.tobytes() == bl.tobytes()

    def test_plan_bit_identical_sim_vs_mp(self, dense_clustered):
        require_mp()
        sim = plan_two_out(dense_clustered, 2, seed=SEED, backend="sim")
        mp = plan_two_out(dense_clustered, 2, seed=SEED, backend="mp")
        assert sim.contracted_n == mp.contracted_n
        assert sim.contracted_m == mp.contracted_m
        assert sim.trials_per_replica == mp.trials_per_replica
        for (su, sv, sw, sl, sk), (mu, mv, mw, ml, mk) in zip(
                sim.contractions, mp.contractions):
            assert sk == mk
            assert su.tobytes() == mu.tobytes()
            assert sv.tobytes() == mv.tobytes()
            assert sw.tobytes() == mw.tobytes()
            assert sl.tobytes() == ml.tobytes()

    def test_seed_changes_contractions(self, dense_clustered):
        a = plan_two_out(dense_clustered, 2, seed=1)
        b = plan_two_out(dense_clustered, 2, seed=2)
        assert any(
            x[3].tobytes() != y[3].tobytes()
            for x, y in zip(a.contractions, b.contractions)
        )

    def test_dense_plan_wins_big(self, dense_clustered):
        plan = plan_two_out(dense_clustered, 4, seed=SEED)
        assert not plan.degraded
        assert all(k >= 2 for k in plan.contracted_n)
        assert all(t >= 1 for t in plan.trials_per_replica)
        assert plan.reduction >= 3.0
        assert plan.total_trials * 3 <= plan.default_trials

    def test_sparse_plan_degrades(self):
        plan = plan_two_out(weighted_cycle(32), 2, seed=SEED)
        # cycle degree 2 < MIN_DEGREE_GUARD: no round runs, budgets match
        # the uncontracted graph and the default pipeline wins
        assert plan.degraded
        assert plan.contracted_n == (32,) * plan.replicas
        assert plan.reduction == 1.0


class TestUnits:
    def test_replica_count_monotone(self):
        assert replica_count(0.5) <= replica_count(0.9) <= replica_count(0.999)
        assert replica_count(0.9) >= 1

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_replica_count_domain(self, bad):
        with pytest.raises(ValueError):
            replica_count(bad)

    def test_constants_sane(self):
        assert 0 < PRESERVATION_PROB < 1
        assert 0 < REPLICA_TRIAL_PROB < 1
        assert MIN_DEGREE_GUARD >= 3

    def test_singleton_cut_star(self):
        value, side = singleton_cut(star_graph(6))
        assert value == 1.0
        assert side.sum() == 1 and not side[0]  # a leaf, not the hub

    def test_singleton_cut_needs_two_vertices(self):
        with pytest.raises(ValueError):
            singleton_cut(EdgeList.empty(1))

    def test_checkpointing_scheduler_rejected(self, dense_clustered, tmp_path):
        sched = TrialScheduler(checkpoint=str(tmp_path / "ledger.jsonl"))
        with pytest.raises(ValueError, match="checkpoint"):
            two_out_minimum_cut(dense_clustered, 2, seed=SEED,
                                scheduler=sched)

    def test_variant_validation(self, dense_clustered):
        with pytest.raises(ValueError, match="variant"):
            minimum_cut(dense_clustered, 2, seed=SEED, variant="3out")
        with pytest.raises(ValueError, match="trial budget"):
            minimum_cut(dense_clustered, 2, seed=SEED, variant="2out",
                        trials=5)


class TestEndToEnd:
    def test_verification_suite_exact(self, backend):
        if backend == "mp":
            require_mp()
        for case in verification_suite():
            res = minimum_cut(case.graph, 2, seed=SEED, variant="2out",
                              backend=backend)
            want = (case.mincut if case.mincut is not None
                    else minimum_cut_sequential(case.graph, seed=SEED)[0])
            assert res.value == want, case.name
            assert res.variant == "2out"
            assert res.two_out is not None

    def test_planted_cut_found(self, dense_clustered):
        res = minimum_cut(dense_clustered, 4, seed=SEED, variant="2out")
        assert res.value == 4.0
        assert dense_clustered.cut_value(res.side) == 4.0
        assert not res.two_out.degraded
        assert res.two_out.reduction >= 3.0
        assert res.achieved_success_prob >= 0.9
        assert res.ledger is None

    def test_statistical_exactness(self):
        """The pipeline is exact across families and seeds, not just lucky."""
        rng = philox_stream(21)
        graphs = [
            clustered_er(96, 16, rng, bridges=2),
            clustered_er(120, 20, rng, clusters=3, bridges=3),
            erdos_renyi(48, 288, rng, weighted=True),
        ]
        for gi, g in enumerate(graphs):
            truth = minimum_cut_sequential(g, seed=3)[0]
            for s in range(4):
                res = minimum_cut(g, 3, seed=200 + s, variant="2out")
                assert res.value == truth, (gi, s)
                assert abs(g.cut_value(res.side) - res.value) < 1e-12

    def test_result_invariant_to_p_and_backend(self, dense_clustered):
        ref = minimum_cut(dense_clustered, 1, seed=SEED, variant="2out")
        for p in (2, 5):
            res = minimum_cut(dense_clustered, p, seed=SEED, variant="2out")
            assert res.value == ref.value
            assert res.side.tobytes() == ref.side.tobytes()
            assert res.two_out == ref.two_out

    def test_result_invariant_to_wave_size(self, dense_clustered):
        ref = minimum_cut(dense_clustered, 2, seed=SEED, variant="2out")
        waved = minimum_cut(dense_clustered, 2, seed=SEED, variant="2out",
                            scheduler=TrialScheduler(wave_size=1))
        assert waved.value == ref.value
        assert waved.side.tobytes() == ref.side.tobytes()

    def test_degraded_matches_default_bitwise(self):
        g = weighted_cycle(24, np.arange(2.0, 26.0))
        default = minimum_cut(g, 2, seed=SEED)
        res = minimum_cut(g, 2, seed=SEED, variant="2out")
        assert res.two_out.degraded
        assert res.value == default.value
        assert res.side.tobytes() == default.side.tobytes()
        assert res.trials == default.trials
        assert res.variant == "2out" and default.variant == "default"

    def test_summary_accounting(self, dense_clustered):
        res = minimum_cut(dense_clustered, 2, seed=SEED, variant="2out")
        s = res.two_out
        assert s.total_trials == sum(s.trials_per_replica)
        # every replica lands at 2 vertices: a leaf, enumerated, no trials
        assert s.contracted_n == (2,) * s.replicas
        assert s.replica_completed == (0,) * s.replicas
        assert len(s.contracted_n) == s.replicas
        assert res.trials == s.total_trials


def _two_blobs():
    """Two dense clusters and no edge between them: every replica
    contracts to 2 vertices with no edge left."""
    g = clustered_er(64, 16, philox_stream(9), bridges=2)
    keep = (g.u < 32) == (g.v < 32)
    return EdgeList(64, g.u[keep], g.v[keep], g.w[keep])


def _leaf_graphs():
    for case in verification_suite():
        if 2 <= case.graph.n <= KS_BASE_SIZE:
            yield case.name, case.graph
    yield "serve_mix_B", clustered_er(512, 64, philox_stream(4))
    yield "two_blobs", _two_blobs()


class CountingSim(SimBackend):
    """The simulator, counting its dispatches."""

    runs = 0

    def run(self, *args, **kwargs):
        self.runs += 1
        return super().run(*args, **kwargs)


class TestLeafReplicas:
    """A replica at or under ``KS_BASE_SIZE`` is enumerated in the plan;
    the oracle is the trial dispatch it replaces."""

    @staticmethod
    def _graph(cu, cv, cw, k):
        return EdgeList(int(k), cu, cv, cw, canonical=False, validate=False)

    @pytest.mark.parametrize("backend_name", ["sim", "mp", "warm"])
    def test_leaf_equals_its_trial_dispatch(self, backend_name):
        if backend_name != "sim":
            require_mp()
        runtime = resolve_backend(backend_name)
        seed, p, seen_edgeless = 5, 2, False
        try:
            for name, g in _leaf_graphs():
                plan = plan_two_out(g, p, seed=seed, replicas=3,
                                    backend=runtime)
                streams = RngStreams(seed ^ _REPLICA_SEED_SALT)
                for r, (cu, cv, cw, labels, k) in enumerate(
                        plan.contractions):
                    assert 2 <= k <= KS_BASE_SIZE, name
                    seen_edgeless |= cu.size == 0
                    replica = self._graph(cu, cv, cw, k)
                    want = TrialScheduler().run(
                        replica, p, backend=runtime,
                        seed=streams.spawn(r).seed,
                        trials=plan.trials_per_replica[r])
                    value, side = plan.leaves[r]
                    assert value == want.value, (name, r)
                    assert side.dtype == np.bool_
                    # ties may break differently; the side must cut `value`
                    assert replica.cut_value(side) == value, (name, r)
        finally:
            runtime.close()
        assert seen_edgeless

    @pytest.mark.parametrize("g, value, side_hex, k, completed", [
        (complete_graph(13, weight=2.0), 24.0, "8000", 13, 8),
        # zoo bridge_k7_x3
        (two_cliques_bridge(7, bridges=3), 3.0, "01fc", 14, 14),
    ], ids=["k13", "bridge_k7_x3"])
    def test_above_base_size_still_dispatches(self, g, value, side_hex, k,
                                              completed):
        """Pinned to the answers from before leaves existed, when these
        replicas ran a dense trial program; the sparse one agrees."""
        assert k > KS_BASE_SIZE
        runtime = CountingSim()
        res = two_out_minimum_cut(g, 2, seed=0, backend=runtime, force=True)
        s = res.two_out
        assert s.contracted_n == (k,) * s.replicas
        assert s.replica_completed == (completed,) * s.replicas
        assert runtime.runs == 1 + s.replicas
        assert res.report.supersteps == 1 + 2 * s.replicas
        assert res.value == value
        assert np.packbits(res.side).tobytes().hex() == side_hex

    def test_all_leaf_query_runs_only_the_plan(self, dense_clustered):
        runtime = CountingSim()
        res = two_out_minimum_cut(dense_clustered, 4, seed=SEED,
                                  backend=runtime)
        plan = runtime.plans.peek(next(runtime.plans.keys()))
        assert not plan.degraded and None not in plan.leaves
        assert runtime.runs == 1  # the plan's own dispatch, nothing after
        assert res.report.supersteps == plan.report.supersteps == 1
        assert res.report.total_ops == plan.report.total_ops
        # enumeration is exact: x_r = 1 for every replica
        assert res.achieved_success_prob == pytest.approx(
            1.0 - (1.0 - PRESERVATION_PROB) ** plan.replicas)
        assert res.trials == plan.total_trials  # the price list stands


class OneDispatch(SimBackend):
    """The simulator, refusing every dispatch after its first."""

    runs = 0

    def run(self, *args, **kwargs):
        self.runs += 1
        if self.runs > 1:
            raise AssertionError("a cached all-leaf plan dispatched")
        return super().run(*args, **kwargs)


class TestPlanStore:
    """Each backend instance owns a plan store; the pipeline owns the key."""

    def test_hit_is_bit_identical_to_a_fresh_plan(self):
        bridge = two_cliques_bridge(12, bridges=2)
        fresh = two_out_minimum_cut(bridge, 2, seed=5, backend="sim",
                                    force=True)
        runtime = OneDispatch()
        for _ in range(2):
            reused = two_out_minimum_cut(bridge, 2, seed=5, backend=runtime,
                                         force=True)
        assert (runtime.plans.hits, runtime.plans.misses) == (1, 1)
        assert reused.value == fresh.value
        assert reused.side.tobytes() == fresh.side.tobytes()
        assert reused.two_out == fresh.two_out
        assert reused.achieved_success_prob == fresh.achieved_success_prob
        assert reused.report == fresh.report

    def test_changed_trial_scale_misses(self):
        bridge = two_cliques_bridge(12, bridges=2)
        runtime = SimBackend()
        for scale in (1.0, 0.5):
            res = two_out_minimum_cut(bridge, 2, seed=5, backend=runtime,
                                      trial_scale=scale)
            assert res.trials == plan_two_out(
                bridge, 2, seed=5, trial_scale=scale).total_trials
        plans = runtime.plans
        assert (plans.hits, plans.misses, len(plans)) == (0, 2, 2)

    def test_a_second_backend_misses(self):
        bridge = two_cliques_bridge(12, bridges=2)
        first, second = SimBackend(), SimBackend()
        for runtime in (first, second):
            two_out_minimum_cut(bridge, 2, seed=5, backend=runtime)
            assert (runtime.plans.hits, runtime.plans.misses) == (0, 1)

    def test_traced_hit_still_sums_to_its_report(self):
        from repro.trace import RecordingTracer, aggregate_trace

        bridge = two_cliques_bridge(12, bridges=2)
        runtime = SimBackend(tracer=RecordingTracer())
        first = two_out_minimum_cut(bridge, 2, seed=5, backend=runtime)
        hit = two_out_minimum_cut(bridge, 2, seed=5, backend=runtime)
        assert runtime.plans.hits == 1
        assert hit.trace == first.trace and hit.trace
        assert aggregate_trace(hit.trace) == hit.report

    @pytest.mark.parametrize("backend_name", ["sim", "mp", "warm"])
    def test_close_empties_the_store(self, backend_name):
        bridge = two_cliques_bridge(12, bridges=2)
        runtime = resolve_backend(backend_name)
        runtime.plans.put("k", object())
        if backend_name == "sim":
            two_out_minimum_cut(bridge, 2, seed=5, backend=runtime)
        runtime.close()
        assert len(runtime.plans) == 0
        if backend_name == "sim":
            two_out_minimum_cut(bridge, 2, seed=5, backend=runtime)
            assert runtime.plans.misses == 2 and runtime.plans.hits == 0


class TestCli:
    @pytest.fixture
    def dense_file(self, tmp_path):
        from repro.graph import write_edgelist

        path = tmp_path / "dense.txt"
        write_edgelist(clustered_er(128, 16, philox_stream(31)), str(path))
        return path

    def test_variant_2out_runs(self, dense_file, capsys):
        rc = main(["square_root", str(dense_file), "--procs", "2",
                   "--seed", "7", "--variant", "2out"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "two_out:" in out
        assert "reduction" in out

    def test_variant_default_prints_no_summary(self, dense_file, capsys):
        rc = main(["square_root", str(dense_file), "--procs", "2",
                   "--seed", "7", "--trial-scale", "0.05"])
        assert rc == 0
        assert "two_out:" not in capsys.readouterr().out

    def test_unknown_variant_is_usage_error(self, dense_file):
        with pytest.raises(SystemExit) as exc:
            main(["square_root", str(dense_file), "--variant", "3out"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        ["--trials", "5"],
        ["--checkpoint", "ledger.jsonl"],
        ["--checkpoint", "ledger.jsonl", "--resume"],
    ])
    def test_incompatible_flags_are_usage_errors(self, dense_file, extra,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            main(["square_root", str(dense_file), "--variant", "2out"]
                 + extra)
        assert exc.value.code == 2
        assert "--variant 2out" in capsys.readouterr().err

    def test_retry_flags_still_work_with_2out(self, dense_file, capsys):
        rc = main(["square_root", str(dense_file), "--procs", "2",
                   "--seed", "7", "--variant", "2out", "--max-retries", "1"])
        assert rc == 0
        assert "two_out:" in capsys.readouterr().out
