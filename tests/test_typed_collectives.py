"""Typed array collectives: gatherv/allgatherv/scatterv/alltoallv.

Covers the shapes the paper's algorithms actually move — empty slices,
p = 1, single-rank-owns-everything skew, mixed dtypes — plus the two
parity contracts the engine promises: charges identical to the untyped
tuple-of-arrays encoding, and sim-vs-mp bit-identity of results,
counters, and traces through the typed path.
"""

import dataclasses

import numpy as np
import pytest

from repro.bsp.arrays import ArrayBundle, as_bundle
from repro.bsp.engine import Engine
from repro.bsp.errors import CollectiveMismatchError
from repro.runtime.mp import MpBackend
from repro.runtime.sim import SimBackend
from repro.trace import RecordingTracer
from tests.conftest import require_mp


# --- ArrayBundle ------------------------------------------------------------

class TestArrayBundle:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            ArrayBundle(np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            ArrayBundle(np.arange(3), np.ones(()))  # 0-d column

    def test_object_dtype_rejected(self):
        with pytest.raises(TypeError):
            ArrayBundle(np.array([object()], dtype=object))

    def test_words_exclude_counts(self):
        b = ArrayBundle(np.arange(5), np.arange(5.0),
                        counts=np.array([2, 3], dtype=np.int64))
        assert b.__bsp_words__() == 10  # counts are free metadata

    def test_destructuring_and_indexing(self):
        u, v = ArrayBundle(np.arange(4), np.arange(4) * 2)
        assert np.array_equal(v, np.arange(4) * 2)
        b = ArrayBundle(u, v)
        assert b.ncols == 2 and b.nrows == 4 and len(b) == 2
        assert np.array_equal(b[1], v)

    def test_concat_and_split_round_trip(self):
        a = ArrayBundle(np.arange(3), np.arange(3) < 1)
        b = ArrayBundle(np.arange(5) + 10, np.arange(5) < 3)
        cat = ArrayBundle.concat([a, b])
        assert list(cat.counts) == [3, 5]
        assert cat[1].dtype == np.bool_
        back = cat.split_rows(cat.counts)
        assert back[0] == a and back[1] == b

    def test_concat_mismatched_ncols(self):
        with pytest.raises(ValueError):
            ArrayBundle.concat([ArrayBundle(np.arange(2)),
                                ArrayBundle(np.arange(2), np.arange(2))])

    def test_as_bundle_coercions(self):
        arr = np.arange(3)
        assert as_bundle(arr).ncols == 1
        assert as_bundle((arr, arr * 2)).ncols == 2
        b = ArrayBundle(arr)
        assert as_bundle(b) is b
        with pytest.raises(TypeError):
            as_bundle("nope")


# --- engine semantics -------------------------------------------------------

def run(prog, p, seed=0):
    return Engine().run(prog, p, seed=seed)


class TestTypedSemantics:
    def test_gatherv_concatenates_in_rank_order(self):
        def prog(ctx):
            u = np.full(ctx.rank + 1, ctx.rank, dtype=np.int64)
            w = u.astype(np.float64) / 2
            got = yield from ctx.comm.gatherv(u, w, root=1)
            if ctx.rank == 1:
                gu, gw = got
                return gu.tolist(), gw.tolist(), got.counts.tolist()
            return got

        res = run(prog, 3)
        assert res.values[0] is None and res.values[2] is None
        gu, gw, counts = res.values[1]
        assert gu == [0, 1, 1, 2, 2, 2]
        assert gw == [0.0, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert counts == [1, 2, 3]

    def test_scatterv_skew_single_rank_owns_everything(self):
        def prog(ctx):
            if ctx.rank == 0:
                cols = (np.arange(10, dtype=np.int64), np.arange(10) % 2 == 0)
                counts = [0, 10, 0]
            else:
                cols = counts = None
            part = yield from ctx.comm.scatterv(cols, counts, root=0)
            return part.nrows, part[1].dtype.str

        res = run(prog, 3)
        assert [v[0] for v in res.values] == [0, 10, 0]
        assert all(v[1] == "|b1" for v in res.values)  # bool preserved

    def test_alltoallv_empty_everywhere(self):
        def prog(ctx):
            parcels = [np.zeros(0, dtype=np.float64)] * ctx.comm.size
            got = yield from ctx.comm.alltoallv(parcels)
            return got.nrows, got.counts.tolist(), got[0].dtype.str

        res = run(prog, 3)
        assert all(v == (0, [0, 0, 0], "<f8") for v in res.values)

    def test_p1_degenerate(self):
        def prog(ctx):
            g = yield from ctx.comm.gatherv(np.arange(4), root=0)
            ag = yield from ctx.comm.allgatherv(np.arange(2.0))
            sc = yield from ctx.comm.scatterv(np.arange(3), [3], root=0)
            aa = yield from ctx.comm.alltoallv([np.ones(2, dtype=bool)])
            return (g.nrows, ag.nrows, sc.nrows, aa.nrows)

        res = run(prog, 1)
        assert res.values == [(4, 2, 3, 2)]

    def test_dtype_preservation(self):
        dtypes = [np.int64, np.float64, np.bool_]

        def prog(ctx):
            cols = [np.ones(3 + ctx.rank, dtype=dt) for dt in dtypes]
            got = yield from ctx.comm.allgatherv(*cols)
            return [c.dtype.str for c in got]

        res = run(prog, 2)
        want = [np.dtype(dt).str for dt in dtypes]
        assert res.values == [want, want]

    def test_column_count_mismatch_raises(self):
        def prog(ctx):
            cols = (np.arange(2),) if ctx.rank == 0 else \
                (np.arange(2), np.arange(2))
            yield from ctx.comm.gatherv(*cols, root=0)

        with pytest.raises(CollectiveMismatchError):
            run(prog, 2)

    def test_scatterv_count_validation(self):
        def bad_sum(ctx):
            counts = [1, 1] if ctx.rank == 0 else None
            cols = np.arange(5) if ctx.rank == 0 else None
            yield from ctx.comm.scatterv(cols, counts, root=0)

        def negative(ctx):
            counts = [-1, 6] if ctx.rank == 0 else None
            cols = np.arange(5) if ctx.rank == 0 else None
            yield from ctx.comm.scatterv(cols, counts, root=0)

        with pytest.raises(ValueError):
            run(bad_sum, 2)
        with pytest.raises(ValueError):
            run(negative, 2)

    def test_alltoallv_parcel_count_validation(self):
        def prog(ctx):
            yield from ctx.comm.alltoallv([np.arange(2)])

        with pytest.raises(ValueError):
            run(prog, 2)


# --- charge parity with the untyped encodings -------------------------------

class TestChargeParity:
    """The *v collectives must charge exactly what gather/allgather/
    alltoall of the equivalent tuples-of-arrays charged, and scatterv
    each row once."""

    def _compare(self, typed, untyped, p):
        rt = Engine().run(typed, p)
        ru = Engine().run(untyped, p)
        assert rt.report == ru.report

    def test_gatherv_vs_gather(self):
        def typed(ctx):
            yield from ctx.comm.gatherv(
                np.arange(10 * (ctx.rank + 1)), np.ones(10 * (ctx.rank + 1)),
                root=0)

        def untyped(ctx):
            part = (np.arange(10 * (ctx.rank + 1)),
                    np.ones(10 * (ctx.rank + 1)))
            yield from ctx.comm.gather(part, root=0)

        self._compare(typed, untyped, 3)

    def test_allgatherv_vs_allgather(self):
        def typed(ctx):
            yield from ctx.comm.allgatherv(np.arange(7), np.ones(7))

        def untyped(ctx):
            yield from ctx.comm.allgather((np.arange(7), np.ones(7)))

        self._compare(typed, untyped, 3)

    def test_scatterv_charges_each_row_once(self):
        """The root sends its three rows once; each member receives one."""
        def typed(ctx):
            cols = np.arange(3, dtype=np.int64) if ctx.rank == 0 else None
            counts = np.ones(3, dtype=np.int64) if ctx.rank == 0 else None
            yield from ctx.comm.scatterv(cols, counts, root=0)

        rep = Engine().run(typed, 3).report
        assert (rep.volume, rep.total_volume, rep.supersteps) == (3, 3, 1)

    def test_alltoallv_vs_alltoall(self):
        def typed(ctx):
            parcels = [(np.arange(j + 1), np.ones(j + 1))
                       for j in range(ctx.comm.size)]
            yield from ctx.comm.alltoallv(parcels)

        def untyped(ctx):
            parcels = [(np.arange(j + 1), np.ones(j + 1))
                       for j in range(ctx.comm.size)]
            yield from ctx.comm.alltoall(parcels)

        self._compare(typed, untyped, 3)


# --- sim-vs-mp bit-identity through the typed path --------------------------

def typed_mix_program(ctx, n):
    """Exercises all four typed collectives with skewed, mixed-dtype data."""
    rank, size = ctx.rank, ctx.comm.size
    u = np.arange(rank * n, (rank + 1) * n, dtype=np.int64)
    w = np.sqrt(u.astype(np.float64) + 1)
    flags = (u % 3 == 0)

    gat = yield from ctx.comm.gatherv(u, w, flags, root=0)
    ag = yield from ctx.comm.allgatherv(u)
    if rank == 0:
        total = gat.nrows
        counts = np.zeros(size, dtype=np.int64)
        counts[-1] = total  # skew: the last rank receives everything
        cols, cnts = (gat.columns[0], gat.columns[1]), counts
    else:
        cols = cnts = None
    part = yield from ctx.comm.scatterv(cols, cnts, root=0)
    parcels = [
        (u[j::size], w[j::size]) for j in range(size)
    ]
    ex = yield from ctx.comm.alltoallv(parcels)
    return (
        int(ag[0].sum()), part.nrows, int(ex.nrows),
        float(ex[1].sum()), ex.counts.tolist(),
    )


class TestBackendParity:
    def test_values_counters_match(self):
        require_mp()
        sim = SimBackend().run(typed_mix_program, 3, seed=2, args=(5000,))
        mp_ = MpBackend(timeout=120.0, shm_threshold=1 << 12).run(
            typed_mix_program, 3, seed=2, args=(5000,))
        assert sim.values == mp_.values
        assert sim.report == mp_.report

    def test_traces_identical(self):
        require_mp()
        sim = SimBackend(tracer=RecordingTracer()).run(
            typed_mix_program, 2, seed=9, args=(4000,))
        mp_ = MpBackend(timeout=120.0, tracer=RecordingTracer(),
                        shm_threshold=1 << 12).run(
            typed_mix_program, 2, seed=9, args=(4000,))
        strip = lambda evs: [dataclasses.replace(e, wall_s=0.0) for e in evs]
        assert strip(sim.trace) == strip(mp_.trace)

    def test_legacy_transport_matches_too(self):
        require_mp()
        sim = SimBackend().run(typed_mix_program, 2, seed=4, args=(3000,))
        mp_ = MpBackend(timeout=120.0, use_arena=False,
                        shm_threshold=1 << 12).run(
            typed_mix_program, 2, seed=4, args=(3000,))
        assert sim.values == mp_.values
        assert sim.report == mp_.report


# --- validation stays at the coordinator, worded as the simulator words it --

def unaligned_program(ctx, case, n):
    """An allgatherv whose members' bundles do not concatenate — or, for
    ``promote``, do only by promoting a column's dtype."""
    r = ctx.rank
    cols = {
        "ncols": (np.arange(n),) * (1 + r),
        "ndim": (np.zeros(n) if r == 0 else np.zeros((n, 2)),),
        "trailing": (np.zeros((n, 2 + r)),),
        "promote": (np.arange(n, dtype=np.int64 if r == 0 else np.float64),),
    }[case]
    got = yield from ctx.comm.allgatherv(*cols)
    return [(c.dtype.str, c.shape, float(c.sum())) for c in got]


class TestDescriptorValidationParity:
    """The arena coordinator concatenates descriptors, never bytes: what it
    rejects, and how it says so, must not depend on that."""

    # Under and over the shm threshold: inline arrays and slab descriptors.
    sizes = pytest.mark.parametrize("n", [8, 4000])

    @sizes
    @pytest.mark.parametrize("case", ["ncols", "ndim", "trailing"])
    def test_mismatch_message_matches_sim(self, case, n):
        require_mp()

        def message(backend):
            with pytest.raises(CollectiveMismatchError) as err:
                backend.run(unaligned_program, 2, args=(case, n))
            return str(err.value)

        want = message(SimBackend())
        assert "do not align" in want
        assert message(MpBackend(timeout=120.0, shm_threshold=1 << 12)) == want

    @sizes
    def test_dtype_promotion_matches_concat(self, n):
        require_mp()
        sim = SimBackend().run(unaligned_program, 2, args=("promote", n))
        mp_ = MpBackend(timeout=120.0, shm_threshold=1 << 12).run(
            unaligned_program, 2, args=("promote", n))
        assert sim.values == mp_.values and sim.report == mp_.report
        assert sim.values[0][0][0] == np.dtype(np.float64).str
