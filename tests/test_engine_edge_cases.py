"""Engine robustness: exceptions, generator discipline, group corner cases."""

import operator

import numpy as np
import pytest

from repro.bsp import (
    CollectiveMismatchError,
    DeadlockError,
    Engine,
)


class TestExceptionPropagation:
    def test_rank_exception_surfaces(self):
        def prog(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom at rank 1")
            yield from ctx.comm.barrier()

        with pytest.raises(RuntimeError, match="boom at rank 1"):
            Engine().run(prog, 3)

    def test_exception_after_collective(self):
        def prog(ctx):
            yield from ctx.comm.barrier()
            if ctx.rank == 0:
                raise ValueError("late failure")
            yield from ctx.comm.barrier()

        with pytest.raises(ValueError, match="late failure"):
            Engine().run(prog, 2)

    def test_exception_inside_reduce_op(self):
        def bad_op(a, b):
            raise ArithmeticError("op exploded")

        def prog(ctx):
            x = yield from ctx.comm.allreduce(1, op=bad_op)
            return x

        with pytest.raises(ArithmeticError):
            Engine().run(prog, 2)


class TestGeneratorDiscipline:
    def test_non_generator_program_rejected(self):
        def prog(ctx):
            return 42  # plain function: never yields

        with pytest.raises((TypeError, AttributeError)):
            Engine().run(prog, 2)

    def test_forgotten_yield_from_deadlocks(self):
        """Calling a collective without `yield from` silently skips it —
        the engine must surface the resulting divergence."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.barrier()  # BUG: missing yield from
                return 0
            yield from ctx.comm.barrier()
            return 1

        with pytest.raises(DeadlockError):
            Engine().run(prog, 2)

    def test_foreign_communicator_rejected(self):
        stash = {}

        def prog(ctx):
            if ctx.rank == 0:
                stash["comm"] = ctx.comm
            yield from ctx.comm.barrier()
            if ctx.rank == 1:
                yield from stash["comm"].barrier()  # rank 0's view!
            else:
                yield from ctx.comm.barrier()
            return None

        with pytest.raises(CollectiveMismatchError):
            Engine().run(prog, 2)


class TestGroupCornerCases:
    def test_singleton_groups(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank)  # every rank alone
            x = yield from sub.allreduce(ctx.rank, op=operator.add)
            xs = yield from sub.allgather(x)
            return xs

        res = Engine().run(prog, 4)
        assert res.values == [[0], [1], [2], [3]]

    def test_group_then_world_collective(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            s = yield from sub.allreduce(1, op=operator.add)
            total = yield from ctx.comm.allreduce(s, op=operator.add)
            return total

        res = Engine().run(prog, 4)
        assert res.values == [8, 8, 8, 8]

    def test_interleaved_group_and_world(self):
        """One group keeps communicating while the world waits for the
        other — then everyone joins a world collective."""

        def prog(ctx):
            sub = yield from ctx.comm.split(0 if ctx.rank < 2 else 1)
            rounds = 4 if ctx.rank < 2 else 1
            acc = 0
            for _ in range(rounds):
                acc = yield from sub.allreduce(1, op=operator.add)
            total = yield from ctx.comm.allreduce(acc, op=operator.add)
            return total

        res = Engine().run(prog, 4)
        assert all(v == 8 for v in res.values)

    def test_split_of_split(self):
        def prog(ctx):
            half = yield from ctx.comm.split(ctx.rank // 4)
            quarter = yield from half.split(half.rank // 2)
            return quarter.size

        res = Engine().run(prog, 8)
        assert res.values == [2] * 8

    def test_empty_payload_collectives(self):
        def prog(ctx):
            xs = yield from ctx.comm.allgather(np.zeros(0))
            g = yield from ctx.comm.gather(None)
            return sum(x.size for x in xs), g

        res = Engine().run(prog, 3)
        assert res.values[0] == (0, [None, None, None])


class TestCountersEdgeCases:
    def test_zero_work_run(self):
        def prog(ctx):
            return ctx.rank
            yield  # pragma: no cover - makes it a generator

        res = Engine().run(prog, 3)
        assert res.report.supersteps == 0
        assert res.report.computation == 0

    def test_wait_zero_when_balanced(self):
        def prog(ctx):
            ctx.charge(ops=100)
            yield from ctx.comm.barrier()
            return None

        assert Engine().run(prog, 4).report.wait == 0

    def test_wait_accumulates_across_steps(self):
        def prog(ctx):
            for _ in range(3):
                ctx.charge(ops=100 if ctx.rank == 0 else 0)
                yield from ctx.comm.barrier()
            return None

        assert Engine().run(prog, 2).report.wait == 300
