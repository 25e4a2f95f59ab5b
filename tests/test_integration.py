"""End-to-end integration tests across modules.

Mirrors the artifact's verification methodology (§A.6.2): corner cases with
known answers, agreement with deterministic baselines on small inputs, and
multi-seed agreement on larger ones where each randomized execution
succeeds with probability >= 0.9.
"""

import numpy as np
import pytest

from repro import (
    MachineModel,
    approx_minimum_cut,
    connected_components,
    minimum_cut,
)
from repro.baselines import bgl_cc, galois_cc_parallel, karger_stein, pbgl_cc, stoer_wagner
from repro.bsp import fit_model
from repro.cache import CacheParams
from repro.graph import (
    barabasi_albert,
    erdos_renyi,
    rmat,
    two_cliques_bridge,
    watts_strogatz,
)
from repro.graph.validate import networkx_components
from repro.rng import philox_stream
from repro.runtime import SimBackend


class TestCrossAlgorithmAgreement:
    """All five CC implementations agree on every graph family."""

    @pytest.mark.parametrize("family,args", [
        ("er", (400, 800)),
        ("ws", (256, 6)),
        ("ba", (300, 3)),
        ("rmat", (256, 1200)),
    ])
    def test_cc_implementations_agree(self, family, args):
        rng = philox_stream(hash(family) % 2 ** 31)
        g = {
            "er": lambda: erdos_renyi(*args, rng),
            "ws": lambda: watts_strogatz(*args, rng),
            "ba": lambda: barabasi_albert(*args, rng),
            "rmat": lambda: rmat(*args, rng),
        }[family]()
        truth = networkx_components(g)
        assert connected_components(g, p=4, seed=1).n_components == truth
        assert bgl_cc(g)[1] == truth
        assert galois_cc_parallel(g, p=4)[1] == truth
        assert pbgl_cc(g, p=4)[1] == truth

    def test_mincut_implementations_agree(self):
        g = erdos_renyi(50, 350, philox_stream(200), weighted=True)
        assert networkx_components(g) == 1
        sw, _ = stoer_wagner(g)
        ks, _ = karger_stein(g, seed=3)
        mc = minimum_cut(g, p=4, seed=3)
        assert sw == ks == mc.value

    def test_appmc_brackets_exact(self):
        g = two_cliques_bridge(16, bridge_weight=4.0)
        mc = minimum_cut(g, p=4, seed=5)
        ap = approx_minimum_cut(g, p=4, seed=5)
        assert mc.value == 4.0
        assert ap.witness_value >= mc.value
        # artifact: approximation ratio stayed below 11
        assert ap.estimate / mc.value <= 11
        assert mc.value / ap.estimate <= 11


class TestMultiSeedConsistency:
    """Artifact §A.6.2: compare multiple randomly seeded runs; with per-run
    success >= 0.9, twenty runs agreeing is overwhelming evidence."""

    def test_mc_multi_seed_agreement(self):
        g = erdos_renyi(40, 240, philox_stream(201), weighted=True)
        values = {minimum_cut(g, p=2, seed=s).value for s in range(10)}
        assert len(values) == 1

    def test_cc_multi_seed_agreement(self):
        g = rmat(300, 900, philox_stream(202))
        counts = {connected_components(g, p=4, seed=s).n_components
                  for s in range(10)}
        assert len(counts) == 1


class TestCostModelIntegration:
    def test_counters_flow_into_time(self):
        g = erdos_renyi(300, 1500, philox_stream(203))
        res = connected_components(g, p=4, seed=1)
        assert res.time.total_s > 0
        assert res.report.volume > 0
        assert res.report.supersteps > 0

    def test_custom_machine_model(self):
        g = erdos_renyi(200, 800, philox_stream(204))
        fast = SimBackend(machine=MachineModel(op_s=1e-12))
        slow = SimBackend(machine=MachineModel(op_s=1e-6))
        t_fast = connected_components(g, p=2, seed=1, backend=fast).time
        t_slow = connected_components(g, p=2, seed=1, backend=slow).time
        assert t_slow.app_s > t_fast.app_s

    def test_custom_cache_params(self):
        g = erdos_renyi(200, 800, philox_stream(205))
        tiny = SimBackend(cache=CacheParams(M=1 << 12, B=8))
        huge = SimBackend(cache=CacheParams(M=1 << 26, B=8))
        m_tiny = connected_components(g, p=2, seed=1, backend=tiny).report.misses
        m_huge = connected_components(g, p=2, seed=1, backend=huge).report.misses
        assert m_tiny >= m_huge

    def test_model_fit_roundtrip(self):
        """Fit the §5.3 model on simulated strong-scaling runs."""
        g = erdos_renyi(400, 3000, philox_stream(206), weighted=True)
        reports = []
        measured = []
        truth_model = MachineModel()
        for p in (1, 2, 4, 8):
            res = minimum_cut(g, p=p, seed=2, trials=4)
            reports.append(res.report)
            measured.append(truth_model.predict(res.report).total_s)
        fitted = fit_model(reports, measured)
        for r, m in zip(reports, measured):
            assert fitted.predict(r).total_s == pytest.approx(m, rel=0.5)


class TestScalingBehaviour:
    def test_mc_computation_decreases_with_p(self):
        """Strong scaling: per-processor computation shrinks as p grows."""
        g = erdos_renyi(60, 350, philox_stream(207), weighted=True)
        comp = {}
        for p in (1, 4):
            res = minimum_cut(g, p=p, seed=3, trials=8)
            comp[p] = res.report.computation
        assert comp[4] < comp[1]

    def test_cc_supersteps_flat_in_p(self):
        g = erdos_renyi(500, 2500, philox_stream(208))
        steps = [connected_components(g, p=p, seed=4).report.supersteps
                 for p in (2, 4, 8)]
        assert max(steps) - min(steps) <= 6

    def test_appmc_cheaper_than_mc(self):
        """§5.2: AppMC uses a fraction of MC's work on the same input."""
        g = erdos_renyi(80, 500, philox_stream(209), weighted=True)
        mc = minimum_cut(g, p=4, seed=5)
        ap = approx_minimum_cut(g, p=4, seed=5)
        assert ap.report.total_ops < mc.report.total_ops
