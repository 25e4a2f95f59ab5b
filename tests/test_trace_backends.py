"""Differential trace tests: sim and mp emit identical event sequences.

The coordinator runs the simulator's ``Engine._execute`` on the counters
each worker ships with its request, and the canonical Lamport order is
a function of per-rank program order only — so for a fixed seed the two
backends' traces must be *equal*, event for event, with ``wall_s`` as the
single exempt field (measured on mp, zero on sim).
"""

import dataclasses

import pytest

from repro.graph import erdos_renyi
from repro.harness import run_algorithm
from repro.rng import philox_stream
from repro.trace import FINAL, RecordingTracer, aggregate_trace
from tests.conftest import require_mp


def strip_wall(events):
    return [dataclasses.replace(ev, wall_s=0.0) for ev in events]


def traced(algorithm, g, p, seed, backend):
    tracer = RecordingTracer()
    # Two trials split the world into two concurrent sub-communicators —
    # the interleaving-sensitive case the canonical order must absorb.
    kwargs = {"trials": 2} if algorithm == "square_root" else {}
    return run_algorithm(algorithm, g, p=p, seed=seed, backend=backend,
                         tracer=tracer, **kwargs)


@pytest.fixture
def graph():
    return erdos_renyi(80, 200, philox_stream(42), weighted=True)


class TestTraceParity:
    def test_cc_traces_identical(self, graph):
        require_mp()
        sim = traced("parallel_cc", graph, p=4, seed=3, backend="sim")
        mp = traced("parallel_cc", graph, p=4, seed=3, backend="mp")
        assert strip_wall(sim.trace) == strip_wall(mp.trace)
        assert sim.report == mp.report

    def test_square_root_traces_identical(self, graph):
        # square_root splits the world into per-trial sub-communicators
        # that run concurrently: the strongest ordering test, since the
        # two schedulers interleave those groups completely differently.
        require_mp()
        sim = traced("square_root", graph, p=4, seed=3, backend="sim")
        mp = traced("square_root", graph, p=4, seed=3, backend="mp")
        assert strip_wall(sim.trace) == strip_wall(mp.trace)
        assert sim.report == mp.report
        assert any(len(ev.participants) < 4 for ev in sim.trace), (
            "expected sub-communicator collectives in the trace"
        )

    def test_approx_cut_traces_identical(self, graph):
        require_mp()
        sim = traced("approx_cut", graph, p=3, seed=9, backend="sim")
        mp = traced("approx_cut", graph, p=3, seed=9, backend="mp")
        assert strip_wall(sim.trace) == strip_wall(mp.trace)

    def test_mp_trace_aggregates_exactly(self, graph):
        require_mp()
        mp = traced("parallel_cc", graph, p=4, seed=3, backend="mp")
        assert aggregate_trace(mp.trace) == mp.report
        assert mp.trace[-1].kind == FINAL

    def test_mp_wall_clock_is_measured(self, graph):
        require_mp()
        mp = traced("parallel_cc", graph, p=2, seed=1, backend="mp")
        assert all(ev.wall_s >= 0.0 for ev in mp.trace)
        assert any(ev.wall_s > 0.0 for ev in mp.trace)

    def test_untraced_mp_unchanged(self, graph):
        """Tracing off: mp still matches sim bit-for-bit (the wire carries
        the same counters either way)."""
        require_mp()
        sim = run_algorithm("parallel_cc", graph, p=3, seed=6, backend="sim")
        mp = run_algorithm("parallel_cc", graph, p=3, seed=6, backend="mp")
        assert mp.trace is None and sim.trace is None
        assert mp.report == sim.report
        assert (mp.labels == sim.labels).all()
