"""Direct tests of the §4.1 boundary fix-up on split key classes.

The package's own sample sort routes equal keys to one processor, so these
cases can only be driven by feeding the fix-up hand-crafted globally sorted
distributions in which a key class straddles processor boundaries — the
situation the paper's steps 4-5 exist for.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp.combine import boundary_fixup
from repro.runtime import SimBackend


def run_fixup(distribution, op=operator.add):
    """``distribution``: per-rank (keys, values) locally-combined sorted runs."""

    def prog(ctx):
        keys = np.asarray(distribution[ctx.rank][0], dtype=np.int64)
        values = np.asarray(distribution[ctx.rank][1], dtype=np.float64)
        out = yield from boundary_fixup(ctx, ctx.comm, keys, values, op)
        return out

    res = SimBackend().run(prog, len(distribution), seed=0)
    keys = np.concatenate([v[0] for v in res.values])
    values = np.concatenate([v[1] for v in res.values])
    return keys, values


class TestBoundaryFixup:
    def test_class_split_across_two_ranks(self):
        # key 5 held by ranks 0 (as last) and 1 (as first)
        keys, values = run_fixup([
            ([1, 5], [1.0, 2.0]),
            ([5, 9], [3.0, 4.0]),
        ])
        assert keys.tolist() == [1, 5, 9]
        assert values.tolist() == [1.0, 5.0, 4.0]

    def test_class_spanning_middle_ranks_wholesale(self):
        # key 7 fills ranks 1 and 2 entirely; leftmost holder is rank 0
        keys, values = run_fixup([
            ([3, 7], [1.0, 1.0]),
            ([7], [10.0]),
            ([7], [100.0]),
            ([7, 8], [1000.0, 5.0]),
        ])
        assert keys.tolist() == [3, 7, 8]
        assert values.tolist() == [1.0, 1111.0, 5.0]

    def test_leftmost_holder_has_class_as_first_entry(self):
        keys, values = run_fixup([
            ([7], [1.0]),
            ([7, 9], [2.0, 3.0]),
        ])
        assert keys.tolist() == [7, 9]
        assert values.tolist() == [3.0, 3.0]

    def test_no_shared_classes_is_identity(self):
        keys, values = run_fixup([
            ([1, 2], [1.0, 2.0]),
            ([3, 4], [3.0, 4.0]),
        ])
        assert keys.tolist() == [1, 2, 3, 4]
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rank_emptied_by_fixup(self):
        keys, values = run_fixup([
            ([5], [1.0]),
            ([5], [2.0]),
            ([5], [3.0]),
        ])
        assert keys.tolist() == [5]
        assert values.tolist() == [6.0]

    def test_empty_ranks_between_holders(self):
        keys, values = run_fixup([
            ([5], [1.0]),
            ([], []),
            ([5, 6], [2.0, 7.0]),
        ])
        assert keys.tolist() == [5, 6]
        assert values.tolist() == [3.0, 7.0]

    def test_custom_operator(self):
        keys, values = run_fixup([
            ([5], [4.0]),
            ([5], [9.0]),
        ], op=max)
        assert keys.tolist() == [5]
        assert values.tolist() == [9.0]

    def test_two_boundary_classes_same_rank(self):
        # rank 1 shares its first key with rank 0 AND its last with rank 2
        keys, values = run_fixup([
            ([1], [1.0]),
            ([1, 2], [10.0, 20.0]),
            ([2], [30.0]),
        ])
        assert keys.tolist() == [1, 2]
        assert values.tolist() == [11.0, 50.0]

    @given(st.lists(st.lists(st.tuples(st.integers(0, 6),
                                       st.integers(1, 9)), max_size=8),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_fold_on_sorted_splits(self, proc_pairs):
        """Build a valid globally-sorted locally-combined distribution from
        arbitrary data, then check the fix-up's output against a dict fold."""
        flat = sorted(kv for pairs in proc_pairs for kv in pairs)
        # split the sorted sequence into len(proc_pairs) contiguous chunks
        p = len(proc_pairs)
        bounds = np.linspace(0, len(flat), p + 1).astype(int)
        dist = []
        expected: dict[int, float] = {}
        for k, v in flat:
            expected[k] = expected.get(k, 0.0) + v
        for i in range(p):
            chunk = flat[bounds[i]:bounds[i + 1]]
            # locally combine equal keys inside the chunk
            keys, values = [], []
            for k, v in chunk:
                if keys and keys[-1] == k:
                    values[-1] += v
                else:
                    keys.append(k)
                    values.append(float(v))
            dist.append((keys, values))
        keys, values = run_fixup(dist)
        got = dict(zip(keys.tolist(), values.tolist()))
        assert got == expected
