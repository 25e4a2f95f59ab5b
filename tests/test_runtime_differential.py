"""Differential tests: sim and mp backends must agree byte-for-byte.

For a fixed root seed the algorithmic results (labels, estimates, cut
values, witness partitions) and every BSP counter must be identical
across backends — only the time estimate (analytic vs measured) may
differ.  This is the acceptance gate that lets the multiprocess runtime
claim the simulator's correctness arguments.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import approx_mincut, approx_minimum_cut
from repro.graph import erdos_renyi, two_cliques_bridge
from repro.rng import philox_stream
from repro.runtime import MpBackend, SimBackend, WarmMpBackend
from repro.trace import RecordingTracer
from tests.conftest import require_mp
from tests.parity import (
    ALGORITHMS,
    BackendParityError,
    assert_backend_parity,
    compare_backends,
)


@pytest.fixture(scope="module")
def parity_graph():
    return erdos_renyi(250, 900, philox_stream(42), weighted=True)


class TestParity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_parallel_cc(self, parity_graph, p):
        require_mp()
        report = assert_backend_parity("parallel_cc", parity_graph,
                                       p=p, seed=3)
        assert report.ok
        assert report.backends == ("sim", "mp")

    @pytest.mark.parametrize("p", [2, 4])
    def test_approx_cut(self, parity_graph, p):
        require_mp()
        assert_backend_parity("approx_cut", parity_graph, p=p, seed=5)

    @pytest.mark.parametrize("p", [2, 4])
    def test_square_root(self, parity_graph, p):
        require_mp()
        assert_backend_parity("square_root", parity_graph, p=p, seed=7,
                              trials=4)

    def test_square_root_structured(self):
        require_mp()
        g = two_cliques_bridge(7, bridge_weight=2.0)
        assert_backend_parity("square_root", g, p=2, seed=1, trials=6)

    def test_all_algorithms_covered(self):
        assert set(ALGORITHMS) == {"parallel_cc", "approx_cut",
                                   "square_root"}


class TestDescendingApproxCut:
    """``parity_graph`` is disconnected, so its AppMC stops at the
    precheck.  This one is connected at graph A's density: the staged
    search finds a disconnected level and probes below it on its
    supervertices, with the label map riding the stage's broadcast."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(300, 2400, philox_stream(42), weighted=True)

    @staticmethod
    def _run(g, p, backend):
        r = approx_minimum_cut(g, p=p, seed=5, backend=backend)
        events = [dataclasses.replace(e, wall_s=0.0) for e in r.trace]
        return (r.estimate, r.witness_value, r.witness_side.tolist(),
                r.report, events)

    @pytest.mark.parametrize("fuse", [None, True])
    @pytest.mark.parametrize("p", [2, 3])
    def test_sim_mp_warm_identical(self, graph, monkeypatch, p, fuse):
        require_mp()
        below = []
        sample = approx_mincut._sample_union

        def spy(ctx, *args):
            if ctx.rank == 0:
                below.append(args[6:] and args[6])
            return sample(ctx, *args)

        # Twice on one backend: a tracer numbers steps across its runs,
        # and the warm repeat reads its label map from a recycled slab.
        sim_be = SimBackend(tracer=RecordingTracer(), fuse=fuse)
        with monkeypatch.context() as m:
            m.setattr(approx_mincut, "_sample_union", spy)
            sim = [self._run(graph, p, sim_be) for _ in range(2)]
        assert any(below), "expected a probe below a disconnected level"
        mp = self._run(graph, p, MpBackend(tracer=RecordingTracer(),
                                           fuse=fuse))
        with WarmMpBackend(tracer=RecordingTracer(), fuse=fuse) as warm:
            assert [self._run(graph, p, warm) for _ in range(2)] == sim
        assert mp == sim[0]


class TestHarnessItself:
    def test_sim_vs_sim_trivially_ok(self, parity_graph):
        report = compare_backends("parallel_cc", parity_graph, p=2, seed=1,
                                  backends=("sim", "sim"))
        assert report.ok

    def test_seed_mismatch_is_detected(self, parity_graph):
        """The comparator must actually see differences, not vacuously pass."""
        a = compare_backends("parallel_cc", parity_graph, p=2, seed=1,
                             backends=("sim", "sim"))
        assert a.ok
        from repro.core import approx_minimum_cut

        # A connected graph, so AppMC draws its sparsity levels (CC on the
        # parity graph ships whole slices: no draw, seed-independent);
        # different seeds give different counter trajectories.
        g = erdos_renyi(250, 2000, philox_stream(42), weighted=True)
        ra = approx_minimum_cut(g, 2, seed=1)
        rb = approx_minimum_cut(g, 2, seed=2)
        assert ra.report != rb.report

    def test_unknown_algorithm_rejected(self, parity_graph):
        with pytest.raises(ValueError, match="unknown algorithm"):
            compare_backends("tsp", parity_graph)

    def test_error_message_names_field(self, parity_graph, monkeypatch):
        require_mp()
        import tests.parity as diff

        real_cmp = diff._cmp_counters

        def poisoned(out, a, b):
            real_cmp(out, a, b)
            out.append("counters.supersteps: injected mismatch")

        monkeypatch.setattr(diff, "_cmp_counters", poisoned)
        with pytest.raises(BackendParityError, match="supersteps"):
            assert_backend_parity("parallel_cc", parity_graph, p=2, seed=1)


class TestHarnessRunAlgorithm:
    def test_dispatch(self, parity_graph):
        from repro.harness import run_algorithm

        res = run_algorithm("parallel_cc", parity_graph, p=2, seed=1)
        assert res.n_components >= 1

    def test_backend_flows_through(self, parity_graph):
        require_mp()
        from repro.harness import run_algorithm

        sim = run_algorithm("parallel_cc", parity_graph, p=2, seed=1)
        mp_ = run_algorithm("parallel_cc", parity_graph, p=2, seed=1,
                            backend="mp")
        assert sim.n_components == mp_.n_components
        assert np.array_equal(sim.labels, mp_.labels)

    def test_unknown_rejected(self, parity_graph):
        from repro.harness import run_algorithm

        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm("sssp", parity_graph)
