"""Tests for the distributed sample sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp import distributed_sort
from repro.runtime import SimBackend


def run_sort(chunks, with_payload=False, p=None):
    """Run distributed_sort with per-rank input chunks; return global output."""
    p = p or len(chunks)

    def prog(ctx):
        keys = np.asarray(chunks[ctx.rank], dtype=np.int64)
        payloads = (keys * 100,) if with_payload else ()
        out_keys, out_payloads = yield from distributed_sort(
            ctx, ctx.comm, keys, payloads
        )
        return out_keys, out_payloads

    res = SimBackend().run(prog, p, seed=0)
    all_keys = np.concatenate([v[0] for v in res.values])
    all_payloads = (
        np.concatenate([v[1][0] for v in res.values]) if with_payload else None
    )
    return all_keys, all_payloads, res


class TestDistributedSort:
    def test_basic(self):
        keys, _, _ = run_sort([[5, 3], [9, 1], [7, 2]])
        assert keys.tolist() == [1, 2, 3, 5, 7, 9]

    def test_payload_follows_keys(self):
        keys, payload, _ = run_sort([[5, 3], [9, 1]], with_payload=True)
        assert np.array_equal(payload, keys * 100)

    def test_single_processor(self):
        keys, _, _ = run_sort([[4, 2, 8, 1]])
        assert keys.tolist() == [1, 2, 4, 8]

    def test_empty_input(self):
        keys, _, _ = run_sort([[], [], []])
        assert keys.size == 0

    def test_some_empty_slices(self):
        keys, _, _ = run_sort([[], [3, 1], []])
        assert keys.tolist() == [1, 3]

    def test_duplicates(self):
        keys, _, _ = run_sort([[2, 2, 2], [2, 2], [1, 3]])
        assert keys.tolist() == [1, 2, 2, 2, 2, 2, 3]

    def test_all_equal(self):
        keys, _, _ = run_sort([[7] * 5, [7] * 5, [7] * 5, [7] * 5])
        assert (keys == 7).all() and keys.size == 20

    def test_large_random(self):
        rng = np.random.default_rng(0)
        chunks = [rng.integers(0, 10_000, 500).tolist() for _ in range(8)]
        keys, _, res = run_sort(chunks)
        expected = np.sort(np.concatenate([np.array(c) for c in chunks]))
        assert np.array_equal(keys, expected)
        # O(1) supersteps: local sort + allgather + alltoall only
        assert res.report.supersteps <= 4

    def test_balanced_output(self):
        rng = np.random.default_rng(1)
        chunks = [rng.integers(0, 10**9, 1000).tolist() for _ in range(4)]

        def prog(ctx):
            keys = np.asarray(chunks[ctx.rank], dtype=np.int64)
            out, _ = yield from distributed_sort(ctx, ctx.comm, keys, ())
            return out.size

        sizes = SimBackend().run(prog, 4, seed=0).values
        assert max(sizes) < 3 * min(sizes) + 64  # oversampling keeps balance

    def test_rejects_2d_keys(self):
        def prog(ctx):
            out = yield from distributed_sort(ctx, ctx.comm, np.zeros((2, 2)), ())
            return out

        with pytest.raises(ValueError):
            SimBackend().run(prog, 1)

    def test_rejects_misaligned_payload(self):
        def prog(ctx):
            out = yield from distributed_sort(
                ctx, ctx.comm, np.array([1, 2]), (np.array([1]),)
            )
            return out

        with pytest.raises(ValueError):
            SimBackend().run(prog, 1)

    @given(st.lists(st.lists(st.integers(min_value=-1000, max_value=1000),
                             max_size=30), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_sortedness_property(self, chunks):
        keys, _, _ = run_sort(chunks)
        flat = sorted(x for c in chunks for x in c)
        assert keys.tolist() == flat
