"""Tests for the generic distributed combine-by-key (§4.1 remark)."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp.combine import combine_by_key, combine_local_run
from repro.runtime import SimBackend


def run_combine(chunks, value_chunks, op=operator.add, p=None):
    p = p or len(chunks)

    def prog(ctx):
        keys = np.asarray(chunks[ctx.rank], dtype=np.int64)
        values = np.asarray(value_chunks[ctx.rank], dtype=np.float64)
        out = yield from combine_by_key(ctx, ctx.comm, keys, values, op)
        return out

    res = SimBackend().run(prog, p, seed=0)
    keys = np.concatenate([v[0] for v in res.values])
    values = np.concatenate([v[1] for v in res.values])
    return keys, values, res


class TestCombineLocalRun:
    def test_sums(self):
        k, v = combine_local_run(np.array([1, 1, 3]), np.array([2.0, 3.0, 4.0]))
        assert k.tolist() == [1, 3]
        assert v.tolist() == [5.0, 4.0]

    def test_custom_op(self):
        k, v = combine_local_run(np.array([1, 1, 1]), np.array([5.0, 2.0, 8.0]),
                                 op=max)
        assert v.tolist() == [8.0]

    def test_empty(self):
        k, v = combine_local_run(np.zeros(0, np.int64), np.zeros(0))
        assert k.size == 0


class TestCombineByKey:
    def test_basic_sum(self):
        keys, values, _ = run_combine(
            [[1, 2], [2, 3], [1, 3]],
            [[1.0, 1.0], [2.0, 5.0], [4.0, 1.0]],
        )
        assert keys.tolist() == [1, 2, 3]
        assert values.tolist() == [5.0, 3.0, 6.0]

    def test_key_class_spanning_all_procs(self):
        keys, values, _ = run_combine(
            [[7], [7], [7], [7]],
            [[1.0], [2.0], [3.0], [4.0]],
        )
        assert keys.tolist() == [7]
        assert values.tolist() == [10.0]

    def test_max_operator(self):
        keys, values, _ = run_combine(
            [[1, 2], [1, 2]],
            [[3.0, 9.0], [7.0, 1.0]],
            op=max,
        )
        assert keys.tolist() == [1, 2]
        assert values.tolist() == [7.0, 9.0]

    def test_min_operator(self):
        keys, values, _ = run_combine(
            [[5, 5, 5], [5]],
            [[3.0, 9.0, 4.0], [1.0]],
            op=min,
        )
        assert values.tolist() == [1.0]

    def test_empty_rank(self):
        keys, values, _ = run_combine(
            [[], [4, 4], []],
            [[], [1.0, 2.0], []],
        )
        assert keys.tolist() == [4]
        assert values.tolist() == [3.0]

    def test_all_empty(self):
        keys, values, _ = run_combine([[], []], [[], []])
        assert keys.size == 0

    def test_single_proc(self):
        keys, values, _ = run_combine([[2, 1, 2]], [[1.0, 5.0, 3.0]])
        assert keys.tolist() == [1, 2]
        assert values.tolist() == [5.0, 4.0]

    def test_constant_supersteps(self):
        rng = np.random.default_rng(1)
        chunks = [rng.integers(0, 50, 200).tolist() for _ in range(6)]
        vals = [np.ones(200).tolist() for _ in range(6)]
        _, _, res = run_combine(chunks, vals)
        assert res.report.supersteps <= 5

    def test_misaligned_rejected(self):
        def prog(ctx):
            out = yield from combine_by_key(
                ctx, ctx.comm, np.array([1, 2]), np.array([1.0])
            )
            return out

        with pytest.raises(ValueError):
            SimBackend().run(prog, 1)

    @given(st.lists(
        st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                           st.integers(min_value=1, max_value=9)),
                 max_size=20),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=30, deadline=None)
    def test_matches_dict_fold(self, proc_pairs):
        expected: dict[int, float] = {}
        for pairs in proc_pairs:
            for k, v in pairs:
                expected[k] = expected.get(k, 0.0) + v
        chunks = [[k for k, _ in pairs] for pairs in proc_pairs]
        vals = [[float(v) for _, v in pairs] for pairs in proc_pairs]
        keys, values, _ = run_combine(chunks, vals)
        got = dict(zip(keys.tolist(), values.tolist()))
        assert got == expected
