"""Statistical validation of the randomized lemmas the algorithms rest on.

These tests estimate success frequencies over many seeded repetitions and
compare against the paper's probabilistic guarantees with generous slack
(the bounds are lower bounds; empirical rates sit well above them).
"""

import json
import math

import numpy as np
import pytest

from benchmarks import audit_probabilistic
from repro.core.karger_stein import (
    KS_BASE_SIZE,
    karger_stein_matrix,
    random_contract_matrix,
)
from repro.core.mincut import sequential_trial
from repro.core.trials import (
    eager_survival_probability,
    num_trials,
    recursive_success_probability,
)
from repro.graph import AdjacencyMatrix, erdos_renyi, two_cliques_bridge, weighted_cycle
from repro.graph.validate import networkx_mincut
from repro.rng import philox_stream


class TestLemma21SurvivalProbability:
    """Random contraction to t vertices preserves a given minimum cut with
    probability at least t(t-1)/(n(n-1))."""

    def test_cycle_cut_survival(self):
        # weighted cycle with a unique minimum cut: the two weight-1 edges.
        n = 10
        weights = np.full(n, 5.0)
        weights[0] = 1.0
        weights[4] = 1.0
        g = weighted_cycle(n, weights)
        a = AdjacencyMatrix.from_edgelist(g).a
        t = 4
        bound = eager_survival_probability(n, t)
        reps = 300
        survived = 0
        for seed in range(reps):
            cur, labels, k = random_contract_matrix(a, t, philox_stream(seed))
            # the cut survives iff neither weight-1 edge was contracted,
            # i.e. the contracted graph still has a cut of value 2
            side = labels[: n // 2 + 1]
            # check minimum cut of contracted graph equals 2
            from repro.core.karger_stein import brute_force_matrix

            val, _ = brute_force_matrix(cur)
            if val == 2.0:
                survived += 1
        rate = survived / reps
        assert rate >= bound * 0.9, (rate, bound)

    def test_survival_decreases_with_deeper_contraction(self):
        g = two_cliques_bridge(6)
        a = AdjacencyMatrix.from_edgelist(g).a
        from repro.core.karger_stein import brute_force_matrix

        rates = []
        for t in (8, 4, 2):
            ok = 0
            for seed in range(200):
                cur, _, k = random_contract_matrix(a, t, philox_stream(seed))
                val, _ = brute_force_matrix(cur) if cur.shape[0] >= 2 else (0, None)
                ok += val == 1.0
            rates.append(ok / 200)
        assert rates[0] >= rates[2] - 0.05, rates


class TestLemma22RecursiveContraction:
    """One recursive contraction finds a given minimum cut with probability
    Omega(1/log n)."""

    def test_success_rate_above_bound(self):
        assert 24 >= 2 * KS_BASE_SIZE  # a recursion, not one enumeration
        g = erdos_renyi(24, 100, philox_stream(60), weighted=True)
        truth = networkx_mincut(g)
        a = AdjacencyMatrix.from_edgelist(g).a
        bound = recursive_success_probability(g.n)
        reps = 120
        hits = sum(
            karger_stein_matrix(a, philox_stream(seed))[0] == truth
            for seed in range(reps)
        )
        rate = hits / reps
        assert rate >= bound, (rate, bound)


class TestTrialBudget:
    """The §4 trial count actually reaches the requested success rate."""

    def test_trials_reach_success_probability(self):
        g = erdos_renyi(60, 600, philox_stream(61), weighted=True)
        # the Eager Step must hand the recursion more than one enumeration
        assert math.ceil(math.sqrt(g.m)) + 1 >= 2 * KS_BASE_SIZE
        truth = networkx_mincut(g)
        trials = num_trials(g.n, g.m, success_prob=0.9)
        execs = 25
        hits = 0
        for run in range(execs):
            best = math.inf
            from repro.rng.streams import RngStreams

            streams = RngStreams(1000 + run)
            for ti in range(trials):
                val, _ = sequential_trial(g.u, g.v, g.w, g.n, streams.aux(ti))
                best = min(best, val)
                if best == truth:
                    break
            hits += best == truth
        # binomial(25, 0.9): P[hits <= 18] < 1%, so 19 is a safe floor
        assert hits >= 19, f"only {hits}/{execs} executions found the minimum"


class TestProbabilisticAudit:
    """What ``minimum_cut`` and one recursion deliver against what Lemmas
    2.1/2.2 claim for them (``benchmarks/audit_probabilistic.py``)."""

    def test_never_worse_than_claimed(self):
        for row in audit_probabilistic.audit(seeds=range(10)):
            for claim in ("minimum_cut_trials2", "karger_stein_matrix"):
                cell = row[claim]
                assert cell["rate"] >= cell["bound"], (row["graph"], claim, cell)

    def test_two_out_never_worse_than_claimed(self):
        """Leaf replicas claim ``x_r = 1``; the pipeline must deliver."""
        rows = audit_probabilistic.audit_two_out(seeds=range(10))
        assert len(rows) == 4
        for row in rows:
            assert row["contracted_n_max"] <= KS_BASE_SIZE   # all leaves
            assert row["bound"] >= 0.9
            assert row["rate"] >= row["bound"], row

    def test_appmc_estimate_inside_theorem_34_band(self):
        """§3.3's estimate stays within O(log n) of the minimum cut, every
        witness is a real cut, and seeds 0-9 fall inside the published
        64-seed range (a stale record would not contain them for long)."""
        published = {row["graph"]: row for row in json.loads(
            audit_probabilistic.RESULT_PATH.read_text())["appmc_rows"]}
        rows = audit_probabilistic.audit_appmc(seeds=range(10))
        assert len(rows) == 5
        for row in rows:
            assert audit_probabilistic.appmc_in_band(row), row
            assert row["witness_ratio_min"] >= 1.0, row
            wide = published[row["graph"]]
            assert wide["ratio_min"] <= row["ratio_min"], "re-run the audit"
            assert row["ratio_max"] <= wide["ratio_max"], "re-run the audit"

    def test_published_audit_is_of_this_base_and_holds(self):
        record = json.loads(audit_probabilistic.RESULT_PATH.read_text())
        assert record["ks_base_size"] == KS_BASE_SIZE, "re-run the audit"
        assert record["holds"] and record["seeds"] >= 10
        for row in record["rows"]:
            for claim in ("minimum_cut_trials2", "karger_stein_matrix"):
                cell = row[claim]
                assert min(cell["rate"], cell["rate_former_base"]) >= cell["bound"]
        assert len(record["two_out_rows"]) == 4
        for row in record["two_out_rows"]:
            assert row["holds"] and row["rate"] >= row["bound"], row
        assert len(record["appmc_rows"]) == 5
        for row in record["appmc_rows"]:
            assert row["holds"] and audit_probabilistic.appmc_in_band(row), row
            # coupling the levels widened no graph's worst miss
            assert row["worst_log2"] <= row["before"]["worst_log2"], row


class TestSamplingConcentration:
    """The unweighted sampler's Chernoff oversampling covers the demand."""

    def test_oversample_covers_expectation(self):
        from repro.core.sparsify import sparsify_unweighted
        from repro.runtime import SimBackend

        g = erdos_renyi(400, 8000, philox_stream(62))
        slices = g.slices(4)
        s = 1200
        sizes = []
        for seed in range(20):
            def prog(ctx):
                sl = slices[ctx.rank]
                out = yield from sparsify_unweighted(
                    ctx, ctx.comm, sl.u, sl.v, s, n=g.n, delta=0.5
                )
                return None if out is None else out[0].size

            res = SimBackend().run(prog, 4, seed=seed)
            sizes.append(res.root_value)
        # every execution must gather at least s edges (w.h.p. by Chernoff:
        # each slice oversamples (1+delta)*mu_i, so the union covers s)
        assert min(sizes) >= s
        # and not more than the (1+delta) oversampling plus rounding slack
        assert max(sizes) <= int(1.5 * s) + 64
