"""Real shared-memory multiprocess backend for SPMD programs.

Architecture
------------
``MpBackend.run`` starts ``p`` OS worker processes (``multiprocessing``,
spawn-safe; fork by default where available because it is much faster).
Each worker executes the unmodified generator program locally
(:mod:`repro.runtime.worker`) and brokers every collective through the
coordinator — this parent process — over a per-rank pipe, with bulk numpy
payloads travelling through POSIX shared memory
(:mod:`repro.runtime.transport`).

The coordinator mirrors the simulator's scheduling semantics exactly: a
collective executes once every member of its group has posted a matching
request, requests are validated the same way (kind and root agreement,
deadlock on terminated members), and the collective itself is computed by
the *same* ``Engine._exec_*`` handlers the simulator uses — value
semantics, sub-communicator construction in ``split``, and analytic
communication charges are shared code, which is what makes the two
backends byte-identical in results *and* counters for a fixed seed.

Fault handling: a worker that raises surfaces as
:class:`~repro.runtime.errors.WorkerProgramError` with the remote
traceback; one that dies abruptly as :class:`WorkerCrashError` (process
sentinels are part of the coordinator's wait set, so death is noticed
immediately); total silence beyond the configurable inactivity timeout as
:class:`WorkerTimeoutError`.  The worker pool is always torn down before
re-raising — a failed run never hangs and never leaks processes.
"""

from __future__ import annotations

import glob
import itertools
import logging
import multiprocessing
import operator as _operator
import os
import time
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.bsp.comm import CollectiveOp, payload_words
from repro.bsp.counters import CountersReport, ProcCounters
from repro.bsp.engine import Engine, RunResult
from repro.bsp.errors import DeadlockError
from repro.bsp.fusion import FusionConfig, FusionState, as_fusion_config
from repro.bsp.machine import TimeEstimate
from repro.cache.model import CacheParams
from repro.faults import FaultSpec
from repro.graph.shm import (
    default_plane_enabled,
    localize_plane,
    release_pins,
    stage_plane,
)
from repro.runtime.base import Backend
from repro.runtime.errors import (
    WorkerCrashError,
    WorkerProgramError,
    WorkerTimeoutError,
)
from repro.trace.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.runtime.transport import (
    DEFAULT_SHM_THRESHOLD,
    Transport,
    TransportStats,
    collect_shm_names,
    collect_slab_names,
    decode_payload,
    unlink_segments,
)
from repro.runtime.worker import (
    MSG_DONE,
    MSG_ERROR,
    MSG_OP,
    REPLY_RESULT,
    WorkerSpec,
    worker_main,
)

__all__ = ["MpBackend", "default_start_method"]

logger = logging.getLogger(__name__)

#: Default inactivity timeout (seconds): generous enough for real
#: benchmark-scale local compute phases, finite so nothing ever hangs.
DEFAULT_TIMEOUT_S = 300.0

#: Per-process sequence distinguishing concurrent runs' slab prefixes.
_RUN_SEQ = itertools.count()


def _run_slab_token() -> str:
    """A short, per-run-unique shared-memory name token.

    Combines the coordinator pid, a monotonic per-process sequence and a
    millisecond timestamp so worker arena slab names (``{token}r{rank}n``)
    never collide across coordinators or runs, while staying well under
    the POSIX shm name limit.  Fixed-width fields keep spec pickle sizes
    (the ``input`` transport stat) deterministic across runs.
    """
    return (f"rsh{os.getpid() & 0xFFFFFFFF:08x}g{next(_RUN_SEQ) & 0xFFFF:04x}"
            f"t{int(time.time() * 1000) & 0xFFFFFF:06x}")


def default_start_method() -> str:
    """Preferred ``multiprocessing`` start method on this platform.

    ``fork`` (where available) avoids re-importing the scientific stack in
    every worker; everything is nevertheless spawn-safe and ``spawn`` can
    be forced via ``MpBackend(start_method="spawn")``.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _Pool:
    """The worker processes plus the coordinator-side bookkeeping."""

    def __init__(self, ctx, p: int, spec_for: Callable[[int], WorkerSpec],
                 slab_token: str | None = None,
                 target: Callable = worker_main):
        self.conns = []
        self.procs = []
        #: Per-run worker slab name token; shutdown sweeps
        #: ``/dev/shm/{token}*`` so even never-shipped slabs of a killed
        #: worker (retained free-list slabs) are reclaimed.
        self.slab_token = slab_token
        #: Every worker-arena slab name the coordinator has seen on the
        #: wire; swept (and leaks logged) after the workers are gone.
        self.worker_segments: set[str] = set()
        for rank in range(p):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=target,
                args=(child_conn, spec_for(rank)),
                daemon=True,
                name=f"repro-mp-{rank}",
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)
        self.conn_rank = {id(c): r for r, c in enumerate(self.conns)}
        self.sentinel_rank = {pr.sentinel: r for r, pr in enumerate(self.procs)}

    def shutdown(self) -> None:
        """Terminate everything and reclaim stray shared-memory segments."""
        for conn in self.conns:
            try:
                while conn.poll():
                    msg = conn.recv()
                    if msg and msg[0] == MSG_OP:
                        # One-shot segments: unlink without copying out.
                        # Arena slabs: remember the names for the sweep.
                        unlink_segments(collect_shm_names(msg[2].payload))
                        self.worker_segments |= collect_slab_names(
                            msg[2].payload)
                    elif msg and msg[0] == MSG_DONE:
                        unlink_segments(collect_shm_names(msg[2]))
            except (EOFError, OSError):
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate() sufficed so far
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self.conns:
            conn.close()
        # Workers unlink their own arenas on clean exit (before DONE), so
        # anything still reclaimable here leaked — a worker died or was
        # terminated mid-run.  Make that visible.  The wire sweep catches
        # slabs whose names crossed the pipe; the prefix sweep below also
        # catches a killed worker's never-shipped (retained) slabs.
        names = set(self.worker_segments)
        if self.slab_token and os.path.isdir("/dev/shm"):
            names |= {
                os.path.basename(path)
                for path in glob.glob(f"/dev/shm/{self.slab_token}*")
            }
        leaked = unlink_segments(sorted(names))
        if leaked:
            logger.warning(
                "reclaimed %d leaked worker shm segment(s) at shutdown: %s",
                len(leaked), ", ".join(leaked),
            )


class MpBackend(Backend):
    """Execute SPMD programs on real OS processes with measured timing.

    Parameters
    ----------
    cache:
        Cache geometry for the analytic counter charges (shared with the
        workers so counters match the simulator's bit-for-bit).
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``; default per platform.
    timeout:
        Inactivity timeout in seconds (no message from any worker) before
        the run is aborted with :class:`WorkerTimeoutError`.  ``None``
        disables the bound (not recommended).
    shm_threshold:
        Minimum payload bytes for the shared-memory path (per message in
        arena mode, per array in legacy mode).
    use_arena:
        Pooled slab arena transport (default).  ``False`` selects the
        legacy one-segment-per-array codec — kept for differential
        benchmarking of the transport itself.
    trace / tracer:
        Per-superstep collective tracing, mirroring the simulator's:
        ``trace=True`` records into a default
        :class:`~repro.trace.tracer.RecordingTracer`, or pass an explicit
        tracer.  Workers then ship their since-sync counter snapshots
        with every collective request, and the coordinator emits events
        bit-identical to the simulator's for the same seed (only the
        measured ``wall_s`` differs).  Off by default: untraced runs use
        exactly the pre-trace wire protocol.
    fuse:
        Automatic adjacent superstep fusion (see
        :mod:`repro.bsp.fusion`): ``True`` for the default
        :class:`~repro.bsp.fusion.FusionConfig`, or a ready config.  Off
        by default; explicit ``comm.batch`` requests always work.
    graph_plane:
        Zero-copy shared graph plane (:mod:`repro.graph.shm`): dispatch
        sites that pass :func:`~repro.graph.shm.plane_slices` markers
        get their graph published once into a read-only shm segment and
        shipped to every worker as an O(1) handle instead of p pickled
        copies.  Default on (``REPRO_GRAPH_PLANE=0`` flips the default);
        off resolves markers locally — bit-identical results either way.
    """

    name = "mp"

    def __init__(
        self,
        *,
        cache: CacheParams | None = None,
        start_method: str | None = None,
        timeout: float | None = DEFAULT_TIMEOUT_S,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        use_arena: bool = True,
        trace: bool = False,
        tracer: Tracer | None = None,
        fuse: bool | FusionConfig | None = None,
        graph_plane: bool | None = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if trace and tracer is not None:
            raise ValueError(
                "pass either trace=True (a default RecordingTracer) or an "
                "explicit tracer, not both"
            )
        self.tracer = tracer if tracer is not None else (
            RecordingTracer() if trace else NULL_TRACER
        )
        self.cache = cache or CacheParams()
        self.start_method = start_method or default_start_method()
        if self.start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {self.start_method!r} unavailable on this "
                f"platform; have {multiprocessing.get_all_start_methods()}"
            )
        self.timeout = timeout
        self.shm_threshold = int(shm_threshold)
        self.use_arena = bool(use_arena)
        #: Automatic adjacent-fusion policy, mirroring ``Engine(fuse=...)``:
        #: the coordinator merges a collective into the group's previous
        #: superstep when every member reported itself clean (no local
        #: charges since its last reply) — the simulator's exact criterion,
        #: so fused runs stay bit-identical across backends.
        self.fuse = as_fusion_config(fuse)
        self.graph_plane = (default_plane_enabled() if graph_plane is None
                            else bool(graph_plane))
        #: Per-kind transport stats of the most recent run (coordinator +
        #: all workers merged), as :meth:`TransportStats.as_dict`.
        self.last_transport_stats: dict | None = None

    # -- main entry ----------------------------------------------------------

    def run(
        self,
        program: Callable[..., Generator],
        p: int,
        *,
        seed: int = 0,
        args: Iterable[Any] = (),
        kwargs: dict | None = None,
        faults: Sequence[FaultSpec] | None = None,
    ) -> RunResult:
        """Run ``program`` on ``p`` worker processes; measured time split.

        ``faults`` injects the given deterministic :class:`FaultSpec`
        records at the worker driver loop (see :mod:`repro.faults`); the
        default ``None`` is the fault-free fast path.
        """
        try:
            p = _operator.index(p)
        except TypeError:
            raise TypeError(
                f"p must be an integer processor count, got {type(p).__name__}"
            ) from None
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")

        engine = Engine(cache=self.cache)  # shared collective semantics
        world = engine._new_group(tuple(range(p)))
        ctx = multiprocessing.get_context(self.start_method)
        args = tuple(args)
        kwargs = dict(kwargs or {})
        # Graph-plane staging: publish each marked graph once and ship
        # O(1) handles; pins are dropped (and segments unlinked unless a
        # longer-lived layer also pins them) in the finally below — a
        # crashed run cannot leak a published segment.
        plane_pins: list[str] = []
        if self.graph_plane:
            args = stage_plane(args, plane_pins)
            kwargs = stage_plane(kwargs, plane_pins)
        else:
            args = localize_plane(args)
            kwargs = localize_plane(kwargs)

        fault_specs = tuple(faults or ())
        slab_token = _run_slab_token() if self.use_arena else None

        def spec_for(rank: int) -> WorkerSpec:
            return WorkerSpec(
                rank=rank, p=p, world_gid=world.gid, seed=seed,
                cache=self.cache, program=program, args=args, kwargs=kwargs,
                shm_threshold=self.shm_threshold,
                trace=self.tracer.enabled,
                use_arena=self.use_arena,
                faults=fault_specs,
                slab_prefix=(f"{slab_token}r{rank}n" if slab_token else None),
            )

        specs = [spec_for(rank) for rank in range(p)]
        # Logical input footprint: what shipping the specs costs in
        # pickle bytes (under spawn this is literally what crosses the
        # wire; under fork it is the same byte count, just not paid).
        # Guarded: fork-only callers may pass non-picklable programs.
        input_bytes = 0
        try:
            input_bytes = sum(
                len(ForkingPickler.dumps(s)) for s in specs)
        except Exception:
            pass
        if self.start_method == "fork":
            # Workers inherit sys.modules: do the kernels' lazy import here,
            # or every run's root pays it (~0.3 s) after the fork.
            import scipy.sparse.csgraph  # noqa: F401
        pool = _Pool(ctx, p, specs.__getitem__, slab_token=slab_token)
        try:
            return self._coordinate(engine, pool, p,
                                    input_bytes=input_bytes)
        finally:
            pool.shutdown()
            release_pins(plane_pins)

    # -- coordinator ---------------------------------------------------------

    @staticmethod
    def _crash(pool: _Pool, rank: int,
               superstep: int | None = None) -> WorkerCrashError:
        """Build the crash error, reaping the child first: its sentinel can
        fire a moment before the process is waitable, leaving ``exitcode``
        None until a join."""
        proc = pool.procs[rank]
        proc.join(timeout=5.0)
        return WorkerCrashError(rank, proc.exitcode, superstep=superstep)

    def _coordinate(self, engine: Engine, pool: _Pool, p: int,
                    transport: Transport | None = None,
                    input_bytes: int = 0) -> RunResult:
        tracer = self.tracer
        events_before = len(tracer)
        last_event_t = [perf_counter()]  # wall clock between collectives
        owns_transport = transport is None
        if owns_transport:
            transport = Transport(threshold=self.shm_threshold,
                                  use_arena=self.use_arena)
        else:
            # Warm pool: the caller's transport (and its arena slabs)
            # outlives this run; stats restart so last_transport_stats
            # stays per-run.
            transport.stats = TransportStats()
        # Input shipping gets its own stats kind so benches can report
        # bytes-per-query with the graph plane on vs off.
        transport.stats.note("input", messages=p, pickle_bytes=input_bytes)
        # pending: rank -> (op, since_sync, clean, pre-request snapshot)
        pending: dict[int, tuple[CollectiveOp, float, bool, tuple | None]] = {}
        finished: set[int] = set()
        # Adjacent-fusion bookkeeping, the same object Engine._execute drives:
        fusion = FusionState(self.fuse) if self.fuse is not None else None
        values: list[Any] = [None] * p
        counters: list[ProcCounters | None] = [None] * p
        app_s = [0.0] * p
        mpi_s = [0.0] * p
        # Completed supersteps per rank (replies shipped): a failure stamps
        # the failing rank's count so errors name the superstep in flight.
        steps = [0] * p
        # Segments backing each rank's outstanding reply: the rank's next
        # message proves the reply was decoded, releasing the slabs back
        # to the pool (legacy: the worker already unlinked its one-shots).
        reply_refs: dict[int, list[str]] = {r: [] for r in range(p)}

        def handle(msg) -> None:
            tag, rank = msg[0], msg[1]
            transport.release(reply_refs[rank])  # previous reply consumed
            reply_refs[rank].clear()
            if tag == MSG_OP:
                op, since_sync, clean = msg[2], msg[3], msg[4]
                snap = msg[5] if len(msg) > 5 else None  # tracing only
                pool.worker_segments |= collect_slab_names(op.payload)
                op = CollectiveOp(
                    group=op.group, kind=op.kind, sender=op.sender,
                    local_rank=op.local_rank,
                    payload=transport.decode(op.payload),
                    root=op.root, op=op.op,
                )
                pending[rank] = (op, float(since_sync), bool(clean), snap)
            elif tag == MSG_DONE:
                value, procs_counters, app, mpi = msg[2:6]
                values[rank] = decode_payload(value)
                counters[rank] = procs_counters
                app_s[rank] = app
                mpi_s[rank] = mpi
                if len(msg) > 6:  # the worker's transport stats
                    transport.stats.merge(msg[6])
                finished.add(rank)
            elif tag == MSG_ERROR:
                _, _, exc_type, tb = msg
                raise WorkerProgramError(rank, exc_type, tb)
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown worker message tag {tag!r}")

        def reply(m: int, kind: str, *body) -> None:
            """Ship rank ``m`` its collective result and retire its request."""
            buf = ForkingPickler.dumps((REPLY_RESULT, *body))
            transport.note_pickle(kind, len(buf))
            try:
                pool.conns[m].send_bytes(buf)
            except (BrokenPipeError, OSError):
                raise self._crash(pool, m, steps[m]) from None
            del pending[m]
            steps[m] += 1

        def execute_ready() -> None:
            by_gid: dict[int, list[int]] = {}
            for rank, (op, _s, _c, _snap) in pending.items():
                by_gid.setdefault(op.group.gid, []).append(rank)
            for gid in sorted(by_gid):
                ranks = by_gid[gid]
                group = pending[ranks[0]][0].group
                waiting = set(ranks)
                missing = [m for m in group.members if m not in waiting]
                if any(m not in finished for m in missing):
                    continue  # someone is still computing; not ready yet
                if missing:
                    raise DeadlockError(
                        f"collective {pending[ranks[0]][0].kind!r} on group "
                        f"{gid} can never complete: member(s) {missing} "
                        f"already terminated while {sorted(waiting)} are "
                        "waiting"
                    )
                ops = sorted((pending[r][0] for r in ranks),
                             key=lambda o: o.local_rank)
                handler = engine._handler_for(group, ops)
                kind = ops[0].kind
                # Adjacent fusion (FusionState.step): the workers' self-
                # reported clean flags stand in for the simulator's counters.
                words = -1
                merged = False
                cleans = tuple(pending[m][2] for m in group.members)
                if fusion is not None:
                    merged, words = fusion.step(group, ops, cleans)
                since = {r: pending[r][1] for r in ranks}
                slowest = max(since.values())
                posts = [] if tracer.enabled else None
                if kind == "fused":
                    # Explicit batch: one superstep, sub-collectives run
                    # back-to-back.  Each sub-op gets its *own* scratch so
                    # the worker (and the traced replica below) can apply
                    # the charges one sub-op at a time — the simulator's
                    # exact float addition order.
                    per_member_res: list[list] = [[] for _ in ops]
                    per_member_chg: list[list] = [[] for _ in ops]
                    for subkind, subs in engine._iter_fused(group, ops):
                        sub_handler = getattr(engine, f"_exec_{subkind}")
                        scratch = [ProcCounters() for _ in range(p)]
                        sub_res = sub_handler(group, subs, scratch, None)
                        for j, op in enumerate(ops):
                            sc = scratch[op.sender]
                            per_member_res[j].append(sub_res[j])
                            per_member_chg[j].append(
                                (sc.ops, sc.words_sent,
                                 sc.words_recv, sc.misses)
                            )
                    for j, op in enumerate(ops):
                        m = op.sender
                        res = tuple(per_member_res[j])
                        charges = tuple(per_member_chg[j])
                        wire, reply_refs[m] = transport.encode(res, kind)
                        wait_delta = slowest - since[m]
                        if posts is not None:
                            o, se, re_, mi, wait0, ss0 = pending[m][3]
                            for c_ops, c_sent, c_recv, c_miss in charges:
                                o += c_ops
                                se += c_sent
                                re_ += c_recv
                                mi += c_miss
                            posts.append((o, se, re_, mi,
                                          wait0 + wait_delta, ss0 + 1))
                        reply(m, kind, wire, wait_delta, charges)
                else:
                    # Scratch counters collect this collective's charges;
                    # the workers apply them so per-rank totals accumulate
                    # in the simulator's exact order (bit-equal floats).
                    scratch = [ProcCounters() for _ in range(p)]
                    results = handler(group, ops, scratch, None)
                    for op, res in zip(ops, results):
                        m = op.sender
                        wire, reply_refs[m] = transport.encode(res, kind)
                        sc = scratch[m]
                        wait_delta = slowest - since[m]
                        if posts is not None:
                            # Replicate the worker's post-collective
                            # counters from its pre-request snapshot, using
                            # the same single-addition-per-field arithmetic
                            # the worker applies, so the recorded snapshot
                            # is bit-equal to both the worker's and the
                            # simulator's state.
                            ops0, sent0, recv0, misses0, wait0, ss0 = \
                                pending[m][3]
                            posts.append((
                                ops0 + sc.ops, sent0 + sc.words_sent,
                                recv0 + sc.words_recv, misses0 + sc.misses,
                                wait0 + wait_delta,
                                ss0 if merged else ss0 + 1,
                            ))
                        reply(m, kind, wire, wait_delta, sc.ops, sc.words_sent,
                              sc.words_recv, sc.misses, not merged)
                if posts is not None:
                    now = perf_counter()
                    if words < 0:
                        words = sum(payload_words(op.payload) for op in ops)
                    if merged:
                        tracer.on_merge(
                            kind=kind, gid=gid, participants=group.members,
                            words=words, snapshots=posts,
                            wall_s=now - last_event_t[0],
                        )
                    else:
                        tracer.on_collective(
                            kind=kind, gid=gid, participants=group.members,
                            words=words, snapshots=posts,
                            wall_s=now - last_event_t[0],
                            fused=tuple(s.kind for s in ops[0].payload)
                            if kind == "fused" else (),
                            clean=cleans,
                        )
                    last_event_t[0] = now

        try:
            self._event_loop(engine, pool, p, pending, finished, handle,
                             execute_ready, steps)
        finally:
            # Replies a worker never consumed (error teardown) would leak
            # their segments; reclaim them here (no-op on clean runs: the
            # arena owns its slabs and close() unlinks them all).
            if not self.use_arena:
                unlink_segments(
                    name for names in reply_refs.values() for name in names
                )
            if owns_transport:
                transport.close()
            self.last_transport_stats = transport.stats.as_dict()

        report = CountersReport.from_procs(list(counters))
        trace = None
        if tracer.enabled:
            tracer.on_finish([c.snapshot() for c in counters],
                             wall_s=perf_counter() - last_event_t[0])
            trace = tracer.events()[events_before:]
        return RunResult(
            values=values,
            report=report,
            time=TimeEstimate(app_s=max(app_s), mpi_s=max(mpi_s)),
            trace=trace,
        )

    def _event_loop(self, engine, pool, p, pending, finished, handle,
                    execute_ready, steps) -> None:
        while len(finished) < p:
            waitables = [
                pool.conns[r] for r in range(p) if r not in finished
            ] + [
                pool.procs[r].sentinel for r in range(p) if r not in finished
            ]
            ready = _conn_wait(waitables, timeout=self.timeout)
            if not ready:
                silent = sorted(
                    r for r in range(p)
                    if r not in finished and r not in pending
                ) or sorted(r for r in range(p) if r not in finished)
                raise WorkerTimeoutError(
                    self.timeout, silent,
                    supersteps={r: steps[r] for r in silent},
                )
            ready_ids = {id(obj) for obj in ready}
            # Messages first: a worker that reported and exited is not a crash.
            for rank in range(p):
                conn = pool.conns[rank]
                if rank in finished or id(conn) not in ready_ids:
                    continue
                try:
                    while conn.poll():
                        handle(conn.recv())
                except EOFError:
                    pass  # fall through to the sentinel check
            for obj in ready:
                rank = pool.sentinel_rank.get(obj)
                if rank is None or rank in finished:
                    continue
                try:
                    while pool.conns[rank].poll():
                        handle(pool.conns[rank].recv())
                except EOFError:
                    pass
                if rank not in finished:
                    # Died before reporting — either mid-compute or while
                    # blocked inside a collective request.
                    raise self._crash(pool, rank, steps[rank])
            execute_ready()
