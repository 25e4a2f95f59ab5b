"""Differential fuzz: fusion is a pure schedule transformation.

Generates randomized SPMD programs (seeded Philox, so every run of the
suite sees the same corpus) mixing the latency-bound collectives with
local work, back-to-back collective pairs and communicator splits,
then proves for every program that enabling automatic fusion
(``fuse=True``) changes *nothing* except the superstep count:

* per-rank return values are bit-identical,
* every counter except ``supersteps``/``wait`` is bit-identical
  (``supersteps`` may only shrink; imbalance ``wait`` is re-measured at
  the surviving synchronization points),
* both runs' traces aggregate exactly to their counter reports,
* the per-group program-level collective sequence is preserved — fusion
  merges adjacent supersteps, it never reorders or drops a collective.

A reduced corpus re-runs on the multiprocess backend (skipping
gracefully where worker processes are unavailable) asserting the sim
and mp traces are event-for-event identical under both fusion settings.
"""

import dataclasses
import operator

import numpy as np
import pytest

from repro.rng import philox_stream
from repro.runtime import MpBackend, SimBackend
from repro.trace import FINAL, RecordingTracer, aggregate_trace
from tests.conftest import require_mp

N_PROGRAMS = 200
N_MP_PROGRAMS = 4

_COUNTER_FIELDS = ("p", "computation", "volume", "misses",
                   "total_ops", "total_volume")

# Opcode vocabulary with sampling weights: mostly latency-bound fusable
# collectives, seasoned with local work (which dirties arrivals and must
# block auto-fusion), adjacent pairs, and the occasional split.
_OPS = ("allreduce", "bcast", "allgather", "gatherv", "work", "pair",
        "split", "barrier")
_WEIGHTS = np.array([5.0, 4.0, 4.0, 3.0, 3.0, 2.0, 1.0, 2.0])
_WEIGHTS /= _WEIGHTS.sum()


def gen_opcodes(seed: int) -> tuple:
    """One random program: a tuple of (kind, a, b) opcode triples."""
    rng = philox_stream(seed, stream_id=77)
    length = int(rng.integers(4, 14))
    ops = []
    n_splits = 0
    for _ in range(length):
        kind = _OPS[int(rng.choice(len(_OPS), p=_WEIGHTS))]
        if kind == "split":
            if n_splits >= 2:
                kind = "allreduce"
            else:
                n_splits += 1
        ops.append((kind, int(rng.integers(1, 9)), int(rng.integers(0, 64))))
    # Every surviving group synchronizes once at the end, so programs
    # whose tail was pure local work still produce a comparable event.
    ops.append(("allreduce", 1, 0))
    return tuple(ops)


def fuzz_program(ctx, opcodes):
    """Interpret one opcode program (module-level: mp ships it by pickle)."""
    comm = ctx.comm
    acc = []
    for kind, a, b in opcodes:
        root = b % comm.size
        if kind == "work":
            ctx.charge(ops=float(a * (comm.rank % 3)))
        elif kind == "allreduce":
            v = yield from comm.allreduce(a * 0.5 + comm.rank,
                                          op=operator.add)
            acc.append(v)
        elif kind == "bcast":
            payload = a + 10 * comm.rank if comm.rank == root else None
            v = yield from comm.bcast(payload, root=root)
            acc.append(v)
        elif kind == "allgather":
            vs = yield from comm.allgather(comm.rank * 7 + a)
            acc.append(tuple(vs))
        elif kind == "gatherv":
            col = np.arange(a + comm.rank, dtype=np.int64) * (comm.rank + 1)
            got = yield from comm.gatherv(col, root=root)
            if comm.rank == root:
                acc.append((int(got.columns[0].sum()),
                            tuple(int(c) for c in got.counts)))
        elif kind == "pair":
            r1 = yield from comm.allreduce(a + comm.rank, operator.add)
            r2 = yield from comm.allgather(comm.rank * a)
            acc.append((r1, tuple(r2)))
        elif kind == "split":
            comm = yield from comm.split((comm.rank + a) % 2, key=comm.rank)
        elif kind == "barrier":
            yield from comm.barrier()
    return acc


def strip_wall(events):
    return [dataclasses.replace(ev, wall_s=0.0) for ev in events]


def program_kinds_by_gid(events) -> dict:
    """gid -> the program-level collective kinds, in group order (fused
    supersteps contribute their merged sub-kinds)."""
    out: dict = {}
    for ev in sorted(events, key=lambda e: (e.gid, e.gseq)):
        if ev.kind == FINAL:
            continue
        out.setdefault(ev.gid, []).extend(ev.fused or (ev.kind,))
    return out


def run_traced(opcodes, p, *, backend="sim", fuse=None):
    cls = SimBackend if backend == "sim" else MpBackend
    return cls(tracer=RecordingTracer(), fuse=fuse).run(
        fuzz_program, p, seed=0, args=(opcodes,))


def assert_fusion_invariants(base, fused):
    """The full fused-vs-unfused contract for one program."""
    assert base.values == fused.values
    for f in _COUNTER_FIELDS:
        assert getattr(base.report, f) == getattr(fused.report, f), \
            f"counter {f} diverged under fusion"
    assert fused.report.supersteps <= base.report.supersteps
    assert aggregate_trace(base.trace) == base.report
    assert aggregate_trace(fused.trace) == fused.report
    assert program_kinds_by_gid(base.trace) == program_kinds_by_gid(
        fused.trace)


class TestFusionFuzzSim:
    @pytest.mark.parametrize("p", [2, 4])
    def test_fused_equals_unfused(self, p):
        """The whole corpus, fused vs unfused, on the simulator."""
        fused_some = 0
        for seed in range(N_PROGRAMS):
            opcodes = gen_opcodes(seed)
            base = run_traced(opcodes, p, fuse=None)
            fused = run_traced(opcodes, p, fuse=True)
            try:
                assert_fusion_invariants(base, fused)
            except AssertionError as exc:  # pragma: no cover - diagnostics
                raise AssertionError(
                    f"program seed={seed} p={p} opcodes={opcodes}: {exc}"
                ) from exc
            if fused.report.supersteps < base.report.supersteps:
                fused_some += 1
        # The corpus must actually exercise fusion, not vacuously pass.
        assert fused_some >= N_PROGRAMS // 4, (
            f"only {fused_some}/{N_PROGRAMS} programs fused anything"
        )

    def test_corpus_is_deterministic(self):
        assert [gen_opcodes(s) for s in range(10)] == \
            [gen_opcodes(s) for s in range(10)]

    def test_corpus_covers_all_opcodes(self):
        kinds = {op[0] for s in range(N_PROGRAMS) for op in gen_opcodes(s)}
        assert kinds == set(_OPS)

    def test_dirty_arrival_blocks_fusion(self):
        """A hand-written control: local work between two allreduces must
        keep them in separate supersteps while clean ones merge."""
        clean = (("allreduce", 1, 0), ("allreduce", 2, 0))
        dirty = (("allreduce", 1, 0), ("work", 3, 0), ("allreduce", 2, 0))
        assert run_traced(clean, 2, fuse=True).report.supersteps == 1
        assert run_traced(dirty, 2, fuse=True).report.supersteps == 2


class TestFusionFuzzMp:
    @pytest.mark.parametrize("fuse", [None, True])
    def test_sim_mp_traces_identical(self, fuse):
        require_mp()
        for seed in range(N_MP_PROGRAMS):
            opcodes = gen_opcodes(seed)
            sim = run_traced(opcodes, 4, backend="sim", fuse=fuse)
            mp = run_traced(opcodes, 4, backend="mp", fuse=fuse)
            assert sim.values == mp.values, f"seed={seed}"
            assert sim.report == mp.report, f"seed={seed}"
            assert strip_wall(sim.trace) == strip_wall(mp.trace), \
                f"seed={seed}"

    def test_mp_fused_equals_unfused(self):
        require_mp()
        opcodes = gen_opcodes(1)
        base = run_traced(opcodes, 4, backend="mp", fuse=None)
        fused = run_traced(opcodes, 4, backend="mp", fuse=True)
        assert_fusion_invariants(base, fused)
