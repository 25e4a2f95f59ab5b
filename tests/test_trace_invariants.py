"""The trace layer's cornerstone invariants, enforced with zero tolerance.

For every algorithm, backend and seed::

    aggregate_trace(result.trace) == result.report

bit-exactly — no tolerance, no rounding.  Plus the structural guarantees
that make a trace trustworthy: per-rank superstep indices are dense and
monotone, deltas replay to the cumulative counters via
:func:`~repro.trace.events.exact_delta`, the JSON-lines serialization is
lossless, and the pre-existing ``RunResult.trace_kinds`` API keeps its
list-of-kinds shape.
"""

import math
import operator

import numpy as np
import pytest

from repro.bsp.engine import Engine
from repro.graph import erdos_renyi
from repro.harness import run_algorithm
from repro.rng import philox_stream
from repro.runtime import MpBackend, SimBackend
from repro.trace import (
    FINAL,
    RecordingTracer,
    TraceEvent,
    aggregate_trace,
    exact_delta,
    format_summary,
    kind_counts,
    read_jsonl,
    write_jsonl,
)
from tests.conftest import require_mp

ALGORITHMS = ["parallel_cc", "approx_cut", "square_root"]


def random_graph(seed, n=80, m=200, weighted=False):
    return erdos_renyi(n, m, philox_stream(seed), weighted=weighted)


def traced_run(algorithm, g, p, seed):
    tracer = RecordingTracer()
    kwargs = {"trial_scale": 0.05} if algorithm == "square_root" else {}
    res = run_algorithm(algorithm, g, p=p, seed=seed, tracer=tracer, **kwargs)
    return res


def assert_dense_supersteps(events):
    """Every rank's superstep indices, in canonical order, are 1, 2, ..."""
    per_rank = {}
    for ev in sorted(events, key=TraceEvent.order_key):
        if ev.kind == FINAL:
            continue
        for i, r in enumerate(ev.participants):
            per_rank.setdefault(r, []).append(ev.supersteps[i])
    assert per_rank, "trace has no collectives"
    for r, seq in per_rank.items():
        assert seq == list(range(1, len(seq) + 1)), (
            f"rank {r} superstep indices not dense/monotone: {seq}"
        )


class TestAggregationInvariant:
    """aggregate_trace(trace) == report, exactly, across the matrix."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_exact_for_algorithms(self, algorithm, seed):
        g = random_graph(seed + 11, weighted=(algorithm == "square_root"))
        res = traced_run(algorithm, g, p=4, seed=seed)
        assert res.trace is not None
        assert res.trace[-1].kind == FINAL
        assert aggregate_trace(res.trace) == res.report

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_exact_across_processor_counts(self, p):
        g = random_graph(3)
        res = traced_run("parallel_cc", g, p=p, seed=5)
        assert aggregate_trace(res.trace) == res.report

    def test_random_program_property(self):
        """Seeded property test: random charge patterns (including awkward
        float magnitudes) still aggregate exactly."""
        rng = np.random.default_rng(1234)
        for trial in range(10):
            charges = rng.uniform(0.1, 1e9, size=(4, 6)).tolist()

            def prog(ctx, charges):
                import operator
                mine = charges[ctx.rank]
                for i, c in enumerate(mine):
                    ctx.counters.charge(ops=c, misses=c / 3.0)
                    yield from ctx.comm.allreduce(ctx.rank + i, operator.add)
                ctx.counters.charge(ops=mine[0])  # tail charge -> FINAL
                return ctx.rank

            eng = Engine(tracer=RecordingTracer())
            res = eng.run(prog, 4, seed=trial, args=(charges,))
            assert aggregate_trace(res.trace) == res.report
            assert_dense_supersteps(res.trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trace([])

    def test_tampered_trace_rejected(self):
        """Dropping a collective breaks the dense-superstep validation."""
        g = random_graph(3)
        res = traced_run("parallel_cc", g, p=2, seed=5)
        body = [ev for ev in res.trace if ev.kind != FINAL]
        assert len(body) >= 2
        tampered = body[1:] + [ev for ev in res.trace if ev.kind == FINAL]
        with pytest.raises(ValueError, match="superstep index"):
            aggregate_trace(tampered)


class TestSuperstepStructure:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_dense_monotone_per_rank(self, algorithm):
        g = random_graph(21, weighted=(algorithm == "square_root"))
        res = traced_run(algorithm, g, p=3, seed=2)
        assert_dense_supersteps(res.trace)

    def test_lamport_steps_monotone_per_rank(self):
        g = random_graph(21)
        res = traced_run("square_root", g, p=4, seed=2)
        per_rank = {}
        for ev in res.trace:
            for r in ev.participants:
                per_rank.setdefault(r, []).append(ev.step)
        for r, steps in per_rank.items():
            assert steps == sorted(steps)
            assert len(set(steps)) == len(steps)


class TestExactDelta:
    def test_reconstruction_is_exact(self):
        prev = 0.0
        rng = np.random.default_rng(99)
        for target in rng.uniform(0.0, 2**53, size=200):
            d = exact_delta(prev, target)
            assert prev + d == target  # bitwise, not approximately
            prev = target

    def test_large_magnitude_boundary(self):
        # 2**53 is the first integer whose successor is not representable:
        # the naive difference stops round-tripping here.
        prev = 2.0**53 - 1.0
        cur = 2.0**53 + 2.0
        d = exact_delta(prev, cur)
        assert prev + d == cur

    def test_zero_and_negative_direction(self):
        assert exact_delta(5.0, 5.0) == 0.0
        d = exact_delta(10.0, 3.0)
        assert 10.0 + d == 3.0

    def test_telescoped_sums_match_snapshots(self):
        """The tracer's per-rank delta chains replay every cumulative value."""
        g = random_graph(17)
        res = traced_run("approx_cut", g, p=3, seed=4)
        sums = {}
        for ev in res.trace:
            for i, r in enumerate(ev.participants):
                acc = sums.setdefault(r, [0.0] * 5)
                for slot, ds in enumerate(
                    (ev.d_ops, ev.d_sent, ev.d_recv, ev.d_misses, ev.d_wait)
                ):
                    acc[slot] += ds[i]
        report = res.report
        assert max(acc[0] for acc in sums.values()) == report.computation
        assert max(acc[3] for acc in sums.values()) == report.misses
        assert max(acc[4] for acc in sums.values()) == report.wait
        assert sum(acc[0] for acc in sums.values()) == report.total_ops
        assert sum(acc[1] for acc in sums.values()) == report.total_volume


class TestJsonlRoundTrip:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_lossless(self, tmp_path, algorithm):
        g = random_graph(31, weighted=(algorithm == "square_root"))
        res = traced_run(algorithm, g, p=3, seed=8)
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(res.trace, path)
        assert count == len(res.trace)
        back = read_jsonl(path)
        assert back == res.trace
        assert aggregate_trace(back) == res.report

    def test_float_bits_survive(self, tmp_path):
        ev = TraceEvent(
            kind="allreduce", gid=1, participants=(0,), words=3,
            step=1, gseq=0, supersteps=(1,),
            d_ops=(0.1 + 0.2,), d_sent=(math.pi,), d_recv=(2.0**-40,),
            d_misses=(1e300,), d_wait=(4.9e-324,), wall_s=1.5,
        )
        path = tmp_path / "one.jsonl"
        write_jsonl([ev], path)
        (back,) = read_jsonl(path)
        assert back == ev


def allreduce_then_allgather(ctx):
    total = yield from ctx.comm.allreduce(ctx.rank, operator.add)
    names = yield from ctx.comm.allgather(ctx.rank)
    return total, names


class TestTraceKindsRegression:
    """The pre-existing RunResult.trace_kinds API keeps working."""

    def test_list_of_kinds_excludes_final(self):
        def prog(ctx):
            import operator
            yield from ctx.comm.barrier()
            total = yield from ctx.comm.allreduce(1, operator.add)
            return total

        res = Engine(tracer=RecordingTracer()).run(prog, 3, seed=0)
        assert res.trace_kinds() == ["barrier", "allreduce"]
        assert res.trace[-1].kind == FINAL

    @pytest.mark.parametrize("backend", [SimBackend, MpBackend],
                             ids=["sim", "mp"])
    def test_fused_superstep_lists_every_collective(self, backend):
        """Under ``fuse=True`` the two collectives share one superstep, and
        the kind list and counts still name both."""
        if backend is MpBackend:
            require_mp()
        res = backend(tracer=RecordingTracer(), fuse=True).run(
            allreduce_then_allgather, 2)
        assert res.report.supersteps == 1
        assert res.trace_kinds() == ["allreduce", "allgather"]
        assert kind_counts(res.trace) == {"allreduce": 1, "allgather": 1}
        assert "collectives: 2" in format_summary(res.trace)

    def test_untraced_run_raises(self):
        def prog(ctx):
            yield from ctx.comm.barrier()
            return 0

        res = Engine().run(prog, 2, seed=0)
        assert res.trace is None
        with pytest.raises(ValueError):
            res.trace_kinds()

    def test_trace_field_rides_result_objects(self):
        g = random_graph(5)
        res = traced_run("parallel_cc", g, p=2, seed=1)
        assert isinstance(res.trace, list)
        untraced = run_algorithm("parallel_cc", g, p=2, seed=1)
        assert untraced.trace is None
        assert untraced.report == res.report
