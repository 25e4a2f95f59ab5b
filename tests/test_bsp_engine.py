"""Tests for the BSP engine: collectives, groups, errors, cost accounting."""

import operator

import numpy as np
import pytest

from repro.bsp import (
    CollectiveMismatchError,
    DeadlockError,
    Engine,
)


class TestCollectives:
    def test_barrier(self):
        def prog(ctx):
            yield from ctx.comm.barrier()
            return ctx.rank

        res = Engine().run(prog, 4)
        assert res.values == [0, 1, 2, 3]

    def test_bcast(self):
        def prog(ctx):
            x = yield from ctx.comm.bcast("hello" if ctx.rank == 0 else None)
            return x

        assert Engine().run(prog, 3).values == ["hello"] * 3

    def test_bcast_nonzero_root(self):
        def prog(ctx):
            x = yield from ctx.comm.bcast(ctx.rank * 10 if ctx.rank == 2 else None,
                                          root=2)
            return x

        assert Engine().run(prog, 4).values == [20] * 4

    def test_gather(self):
        def prog(ctx):
            xs = yield from ctx.comm.gather(ctx.rank ** 2)
            return xs

        values = Engine().run(prog, 4).values
        assert values[0] == [0, 1, 4, 9]
        assert values[1] is None

    def test_allgather(self):
        def prog(ctx):
            xs = yield from ctx.comm.allgather(ctx.rank)
            return xs

        assert Engine().run(prog, 3).values == [[0, 1, 2]] * 3

    def test_reduce(self):
        def prog(ctx):
            s = yield from ctx.comm.reduce(ctx.rank + 1, op=operator.add)
            return s

        values = Engine().run(prog, 4).values
        assert values[0] == 10
        assert values[1] is None

    def test_reduce_fold_order_deterministic(self):
        def prog(ctx):
            s = yield from ctx.comm.reduce(str(ctx.rank), op=operator.add)
            return s

        assert Engine().run(prog, 4).values[0] == "0123"

    def test_allreduce(self):
        def prog(ctx):
            s = yield from ctx.comm.allreduce(ctx.rank, op=max)
            return s

        assert Engine().run(prog, 5).values == [4] * 5

    def test_alltoall(self):
        def prog(ctx):
            out = yield from ctx.comm.alltoall(
                [ctx.rank * 10 + j for j in range(ctx.p)]
            )
            return out

        values = Engine().run(prog, 3).values
        # member i receives [j*10 + i for j]
        assert values[1] == [1, 11, 21]

    def test_alltoall_wrong_size(self):
        def prog(ctx):
            out = yield from ctx.comm.alltoall([0])
            return out

        with pytest.raises(ValueError):
            Engine().run(prog, 2)

    def test_numpy_payloads(self):
        def prog(ctx):
            xs = yield from ctx.comm.allreduce(
                np.full(3, ctx.rank, dtype=np.int64), op=operator.add
            )
            return xs

        values = Engine().run(prog, 3).values
        assert np.array_equal(values[0], np.full(3, 3))

    def test_single_processor(self):
        def prog(ctx):
            a = yield from ctx.comm.allreduce(5, op=operator.add)
            b = yield from ctx.comm.gather(7)
            return a, b

        assert Engine().run(prog, 1).values == [(5, [7])]


class TestSplit:
    def test_split_groups(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            s = yield from sub.allreduce(ctx.rank, op=operator.add)
            return sub.size, sub.rank, s

        values = Engine().run(prog, 6).values
        # evens: 0,2,4 -> sum 6; odds: 1,3,5 -> sum 9
        assert values[0] == (3, 0, 6)
        assert values[1] == (3, 0, 9)
        assert values[4] == (3, 2, 6)

    def test_split_preserves_order(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(0)
            return sub.rank

        assert Engine().run(prog, 4).values == [0, 1, 2, 3]

    def test_split_with_key_reorders(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(0, key=ctx.p - ctx.rank)
            return sub.rank

        assert Engine().run(prog, 4).values == [3, 2, 1, 0]

    def test_nested_split(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank // 2)
            sub2 = yield from sub.split(sub.rank)
            s = yield from sub2.allreduce(ctx.rank, op=operator.add)
            return sub2.size, s

        values = Engine().run(prog, 4).values
        assert all(v == (1, r) for v, r in zip(values, range(4)))

    def test_groups_progress_independently(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            # group 0 performs extra rounds; group 1 returns immediately
            total = 0
            rounds = 3 if ctx.rank % 2 == 0 else 1
            for _ in range(rounds):
                total = yield from sub.allreduce(1, op=operator.add)
            return total

        values = Engine().run(prog, 4).values
        assert values == [2, 2, 2, 2]


class TestErrors:
    def test_mismatched_collectives(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier()
            else:
                yield from ctx.comm.allreduce(1, op=operator.add)
            return None

        with pytest.raises(CollectiveMismatchError):
            Engine().run(prog, 2)

    def test_mismatched_roots(self):
        def prog(ctx):
            x = yield from ctx.comm.bcast(1, root=ctx.rank % 2)
            return x

        with pytest.raises(CollectiveMismatchError):
            Engine().run(prog, 2)

    def test_deadlock_partial_termination(self):
        def prog(ctx):
            if ctx.rank == 0:
                return 0  # terminates without the collective
            yield from ctx.comm.barrier()
            return 1

        with pytest.raises(DeadlockError):
            Engine().run(prog, 2)

    def test_yield_garbage(self):
        def prog(ctx):
            yield 42

        with pytest.raises(TypeError):
            Engine().run(prog, 2)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Engine().run(lambda ctx: iter(()), 0)

    def test_invalid_root(self):
        def prog(ctx):
            x = yield from ctx.comm.bcast(1, root=9)
            return x

        with pytest.raises(ValueError):
            Engine().run(prog, 2)


class TestAccounting:
    def test_supersteps_count_collectives(self):
        def prog(ctx):
            yield from ctx.comm.barrier()
            yield from ctx.comm.barrier()
            yield from ctx.comm.barrier()
            return None

        assert Engine().run(prog, 3).report.supersteps == 3

    def test_group_supersteps_max_not_sum(self):
        def prog(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            rounds = 5 if ctx.rank % 2 == 0 else 2
            for _ in range(rounds):
                yield from sub.barrier()
            return None

        # split (1) + max(5, 2) group barriers
        assert Engine().run(prog, 4).report.supersteps == 6

    def test_volume_charged_for_bcast(self):
        def prog(ctx):
            x = yield from ctx.comm.bcast(
                np.zeros(100) if ctx.rank == 0 else None
            )
            return x.size

        rep = Engine().run(prog, 4).report
        assert rep.volume >= 100

    def test_computation_is_max(self):
        def prog(ctx):
            ctx.charge(ops=100 * (ctx.rank + 1))
            yield from ctx.comm.barrier()
            return None

        rep = Engine().run(prog, 3).report
        assert rep.computation >= 300
        assert rep.total_ops >= 600

    def test_wait_records_imbalance(self):
        def prog(ctx):
            ctx.charge(ops=1000 if ctx.rank == 0 else 0)
            yield from ctx.comm.barrier()
            return None

        rep = Engine().run(prog, 2).report
        assert rep.wait == 1000  # rank 1 waited for rank 0

    def test_charge_helpers(self):
        def prog(ctx):
            ctx.charge_scan(100)
            ctx.charge_sort(100)
            ctx.charge_random(10, working_set=10**9)
            yield from ctx.comm.barrier()
            return None

        rep = Engine().run(prog, 1).report
        assert rep.computation > 100
        assert rep.misses > 10

    def test_negative_charge_rejected(self):
        def prog(ctx):
            ctx.charge(ops=-1)
            yield from ctx.comm.barrier()
            return None

        with pytest.raises(ValueError):
            Engine().run(prog, 1)


class TestDeterminism:
    def test_same_seed_same_result(self):
        def prog(ctx):
            x = float(ctx.rng.random())
            xs = yield from ctx.comm.allgather(x)
            return xs

        a = Engine().run(prog, 4, seed=9).values
        b = Engine().run(prog, 4, seed=9).values
        assert a == b

    def test_different_seed_different_randomness(self):
        def prog(ctx):
            x = float(ctx.rng.random())
            xs = yield from ctx.comm.allgather(x)
            return xs

        a = Engine().run(prog, 4, seed=1).values
        b = Engine().run(prog, 4, seed=2).values
        assert a != b

    def test_rank_streams_differ(self):
        def prog(ctx):
            x = float(ctx.rng.random())
            xs = yield from ctx.comm.allgather(x)
            return xs

        xs = Engine().run(prog, 4, seed=5).values[0]
        assert len(set(xs)) == 4

    def test_engine_reusable(self):
        eng = Engine()

        def prog(ctx):
            yield from ctx.comm.barrier()
            return ctx.rank

        assert eng.run(prog, 2).values == [0, 1]
        assert eng.run(prog, 3).values == [0, 1, 2]


class TestRunResult:
    def test_root_value(self):
        def prog(ctx):
            yield from ctx.comm.barrier()
            return "root" if ctx.rank == 0 else "other"

        assert Engine().run(prog, 2).root_value == "root"

    def test_time_estimate_positive(self):
        def prog(ctx):
            ctx.charge(ops=1000)
            yield from ctx.comm.barrier()
            return None

        t = Engine().run(prog, 2).time
        assert t.total_s > 0
        assert 0 <= t.mpi_fraction <= 1
