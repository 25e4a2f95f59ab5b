"""Dense bulk-contraction trial routing (scheduler + 2-out pipeline).

``dense=True`` densifies the wave's edge slice once and runs the
matrix-contraction Karger–Stein kernel per trial instead of the sparse
edge-list trials.  The two kernels follow different RNG trajectories, so
per-trial values may differ between exactly tied cuts — what must agree
(and what these tests pin) is the **final minimum-cut value**, which
both pipelines find with the same success probability for the same
budget, and bit-identical *self*-consistency: dense runs are invariant
to wave size, interleaving, and plan reuse.
"""

import numpy as np
import pytest

from repro.core.two_out import (
    DENSE_TRIAL_THRESHOLD,
    plan_two_out,
    two_out_minimum_cut,
)
from repro.graph import erdos_renyi, two_cliques_bridge
from repro.rng import philox_stream
from repro.runtime import SimBackend
from repro.sched import TrialScheduler


@pytest.fixture
def bridge():
    # two K12 cliques joined by 2 unit bridges: min cut value exactly 2
    return two_cliques_bridge(12, bridges=2)


def test_dense_threshold_exported():
    assert DENSE_TRIAL_THRESHOLD == 64


def test_dense_and_sparse_find_same_cut_value(bridge):
    sparse = TrialScheduler().run(bridge, 2, backend="sim", seed=3)
    dense = TrialScheduler().run(bridge, 2, backend="sim", seed=3,
                                 dense=True)
    assert sparse.value == dense.value == 2.0
    assert dense.completed == sparse.completed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_differential_on_random_graphs(seed):
    g = erdos_renyi(24, 96, philox_stream(seed), weighted=True)
    sparse = TrialScheduler().run(g, 2, backend="sim", seed=seed)
    dense = TrialScheduler().run(g, 2, backend="sim", seed=seed,
                                 dense=True)
    assert dense.value == sparse.value


def test_dense_invariant_to_wave_size(bridge):
    whole = TrialScheduler().run(bridge, 2, backend="sim", seed=3,
                                 dense=True)
    waved = TrialScheduler(wave_size=3).run(bridge, 2, backend="sim",
                                            seed=3, dense=True)
    assert whole.value == waved.value
    assert (whole.ledger.fingerprint() == waved.ledger.fingerprint())


def test_dense_invariant_to_p(bridge):
    a = TrialScheduler().run(bridge, 2, backend="sim", seed=3, dense=True)
    b = TrialScheduler().run(bridge, 5, backend="sim", seed=3, dense=True)
    assert a.ledger.fingerprint() == b.ledger.fingerprint()


def test_two_out_routes_tiny_replicas_densely():
    """A replica above the base size and under the threshold dispatches
    on the dense kernel — same cut value as forcing the sparse path."""
    bridge = two_cliques_bridge(7, bridges=1)  # contracted_n = 14
    dense_res = two_out_minimum_cut(bridge, 2, seed=5, backend="sim",
                                    force=True)
    sparse_res = two_out_minimum_cut(bridge, 2, seed=5, backend="sim",
                                     force=True, dense_threshold=0)
    assert dense_res.two_out.replica_completed == \
        sparse_res.two_out.replica_completed == \
        dense_res.two_out.trials_per_replica
    assert dense_res.value == sparse_res.value == 1.0
    assert dense_res.two_out.replicas == sparse_res.two_out.replicas
    assert dense_res.two_out.total_trials == sparse_res.two_out.total_trials


def test_two_out_plan_reuse_is_bit_identical(bridge):
    plan = plan_two_out(bridge, 2, seed=5, backend="sim")
    fresh = two_out_minimum_cut(bridge, 2, seed=5, backend="sim",
                                force=True)

    class NoDispatch(SimBackend):
        def run(self, *args, **kwargs):
            raise AssertionError("a reused all-leaf plan dispatched")

    # every replica is a leaf (k = 2): the reused plan folds, runs nothing
    assert None not in plan.leaves
    reused = two_out_minimum_cut(bridge, 2, seed=5, backend=NoDispatch(),
                                 force=True, plan=plan)
    assert reused.value == fresh.value
    assert np.array_equal(reused.side, fresh.side)
    assert reused.two_out == fresh.two_out
    assert reused.achieved_success_prob == fresh.achieved_success_prob


def test_dense_counters_are_charged(bridge):
    res = TrialScheduler().run(bridge, 2, backend="sim", seed=3, dense=True)
    assert res.report.total_ops > 0
    assert res.report.misses > 0
