"""Real shared-memory multiprocess backend for SPMD programs.

Architecture
------------
A pool is ``p`` OS worker processes (``multiprocessing``, spawn-safe; fork
by default where available because it is much faster), each a command
loop (:mod:`repro.runtime.worker`) holding one transport arena for its
lifetime.  A run is one ``CMD_RUN`` per worker: the worker executes the
unmodified generator program locally and brokers every collective
through the coordinator — this parent process — over its pipe, with bulk
numpy payloads travelling through POSIX shared memory
(:mod:`repro.runtime.transport`).  Under ``fork``, ``MpBackend.run``
forks workers holding the ``CMD_RUN`` in their arguments — inherited,
never pickled or sent; otherwise it spawns and sends one pickled
``CMD_RUN`` down every pipe (:meth:`MpBackend._dispatch`), the dispatch
:class:`~repro.runtime.warm.WarmMpBackend` makes on a pool it keeps.
Spawn (:meth:`MpBackend._spawn`), dispatch and teardown
(:meth:`_Pool.shutdown`, graceful or after a failure) are written once,
here.  Programs must pickle by reference (the fork path checks before it
forks), so they must be importable module-level functions.

The coordinator *is* the simulator's engine with remote generators: every
request carries the worker's :class:`~repro.bsp.counters.ProcCounters`,
``Engine._ready`` says which groups have all their members' requests in
(and raises on a deadlock), ``Engine._execute`` runs the collective on the
shipped counters — sync accounting, fusion, validation, charges, trace
record — and each member's reply returns its counters for the worker to
adopt.  One superstep, written once: the backends are byte-identical in
results, counters and traces for a fixed seed because the same code adds
the same floats in the same order.  In arena mode it runs the collectives
that only move values (:data:`_FORWARDED`) on the senders' slab
*descriptors* and forwards those: the bytes go worker to worker.

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
import os
import time
from dataclasses import replace
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.bsp.comm import CollectiveOp
from repro.bsp.counters import CountersReport, ProcCounters
from repro.bsp.engine import Engine, RunResult
from repro.bsp.fusion import FusionConfig, as_fusion_config
from repro.bsp.machine import TimeEstimate
from repro.cache.model import CacheParams
from repro.faults import FaultSpec
from repro.graph.shm import localize_plane, release_pins, stage_plane
from repro.runtime.base import Backend
from repro.runtime.errors import (
    WorkerCrashError,
    WorkerProgramError,
    WorkerTimeoutError,
)
from repro.trace.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.runtime.transport import (
    DEFAULT_SHM_THRESHOLD,
    ShmArrayRef,
    SlabArrayRef,
    Transport,
    TransportStats,
    decode_payload,
    iter_refs,
)
from repro.runtime.worker import (
    CMD_EXIT,
    CMD_RUN,
    MSG_DONE,
    MSG_ERROR,
    MSG_OP,
    REPLY_RESULT,
    WorkerSpec,
    persistent_worker_main,
)
from repro.shmem import unlink_segments

__all__ = ["MpBackend", "default_start_method"]

logger = logging.getLogger(__name__)

#: Default inactivity timeout (seconds): generous enough for real
#: benchmark-scale local compute phases, finite so nothing ever hangs.
DEFAULT_TIMEOUT_S = 300.0

#: Collectives that move values without folding (or slicing) them.
_FORWARDED = frozenset({"bcast", "gather", "allgather", "scatter",
                        "alltoall", "gatherv", "allgatherv", "alltoallv"})

#: Per-process sequence distinguishing concurrent runs' slab prefixes.
_RUN_SEQ = itertools.count()


def _run_slab_token() -> str:
    """A short, per-pool-unique shared-memory name token.

    Combines the coordinator pid, a monotonic per-process sequence and a
    millisecond timestamp so worker arena slab names (``{token}r{rank}n``)
    never collide across coordinators or pools, while staying well under
    the POSIX shm name limit.
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

    def __init__(self, ctx, specs: Sequence[WorkerSpec],
                 slab_token: str | None, transport: Transport, first=None):
        self.p = len(specs)
        self.conns = []
        self.procs = []
        #: The coordinator's own endpoint: its arena and peer attachments
        #: live as long as the workers'.
        self.transport = transport
        #: program -> small int token; workers cache the callable by
        #: token, so a repeat run on this pool ships the token alone.
        self.program_tokens: dict[Any, int] = {}
        #: Worker slab name token; shutdown sweeps ``/dev/shm/{token}*``
        #: so even never-shipped slabs of a killed worker (retained
        #: free-list slabs) are reclaimed.
        self.slab_token = slab_token
        #: Every worker-arena slab name the coordinator has seen on the
        #: wire; swept (and leaks logged) after the workers are gone.
        self.worker_segments: set[str] = set()
        try:
            for spec in specs:
                parent_conn, child_conn = ctx.Pipe()
                self.conns.append(parent_conn)
                proc = ctx.Process(
                    target=persistent_worker_main,
                    args=(child_conn, spec, first),
                    daemon=True,
                    name=f"repro-mp-{spec.rank}",
                )
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self.procs.append(proc)
        except BaseException:
            # A failed start (EAGAIN, ENOMEM) must not strand the workers
            # already running, blocked on their pipes.
            self.shutdown()
            raise
        self.sentinel_rank = {pr.sentinel: r for r, pr in enumerate(self.procs)}

    def shutdown(self, graceful: bool = False) -> None:
        """Stop the workers and reclaim stray shared-memory segments.

        ``graceful`` (every run so far completed): each worker is asked to
        exit and given time to — it unlinks its own arena on the way out.
        Otherwise, and for any straggler, terminate: after a failure the
        survivors may be wedged mid-collective.
        """
        if graceful:
            for conn in self.conns:
                try:
                    conn.send((CMD_EXIT,))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self.procs:
                proc.join(timeout=5.0)
        for conn in self.conns:
            try:
                while conn.poll():
                    msg = conn.recv()
                    if msg and msg[0] in (MSG_OP, MSG_DONE):
                        wire = msg[2].payload if msg[0] == MSG_OP else msg[2]
                        # One-shot segments: unlink without copying out.
                        # Arena slabs: remember the names for the sweep.
                        unlink_segments(
                            r.name for r in iter_refs(wire, ShmArrayRef))
                        self.worker_segments.update(
                            r.name for r in iter_refs(wire, SlabArrayRef))
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
        self.transport.close()
        # Workers unlink their own arenas on CMD_EXIT, so anything still
        # reclaimable here leaked — a worker died or was terminated
        # mid-run.  Make that visible.  The wire sweep catches
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
        legacy one-segment-per-array codec — the transport gate's
        reference.
    trace / tracer:
        Per-superstep collective tracing, mirroring the simulator's:
        ``trace=True`` records into a default
        :class:`~repro.trace.tracer.RecordingTracer`, or pass an explicit
        tracer.  The coordinator's engine emits the events from the
        counters every request carries anyway — bit-identical to the
        simulator's for the same seed (only the measured ``wall_s``
        differs) — so tracing changes nothing on the wire.  Off by default.
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
        copies.  Default on; off resolves markers locally — bit-identical
        results either way (the graph-plane gate's reference).  It
        governs warm pools and ``spawn``/``forkserver`` one-shot runs
        only: a ``fork`` one-shot run always resolves locally and hands
        the slices to its workers through the fork.
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
        #: Automatic adjacent-fusion policy, handed to the coordinator's
        #: ``Engine(fuse=...)`` unchanged.
        self.fuse = as_fusion_config(fuse)
        self.graph_plane = graph_plane is None or bool(graph_plane)
        #: Per-kind transport stats of the most recent run (coordinator +
        #: all workers merged), as :meth:`TransportStats.as_dict`.
        self.last_transport_stats: dict | None = None

    # -- main entry ----------------------------------------------------------

    def _begin(self, p, args, kwargs, pins: list[str], stage: bool = True):
        """What every ``run`` starts with: this run's engine (shared
        collective semantics; validates ``p``), the world group, and the
        arguments with graph-plane markers staged — each marked graph
        published once and shipped as an O(1) handle, its pin appended to
        ``pins`` for the caller to drop — or, plane off or ``stage``
        false, resolved locally.
        """
        engine = Engine(cache=self.cache, tracer=self.tracer, fuse=self.fuse)
        world = engine._begin_run(p)
        args, kwargs = tuple(args), dict(kwargs or {})
        if stage and self.graph_plane:
            return (engine, world,
                    stage_plane(args, pins), stage_plane(kwargs, pins))
        return engine, world, localize_plane(args), localize_plane(kwargs)

    def _spawn(self, p: int, first=None) -> _Pool:
        """Start ``p`` command-loop workers and the coordinator's endpoint;
        ``first`` is a ``CMD_RUN`` the workers start on (fork only: it is
        inherited, never pickled)."""
        slab_token = _run_slab_token() if self.use_arena else None
        specs = [
            WorkerSpec(
                rank=rank, p=p, cache=self.cache,
                shm_threshold=self.shm_threshold, use_arena=self.use_arena,
                slab_prefix=(f"{slab_token}r{rank}n" if slab_token else None),
            )
            for rank in range(p)
        ]
        if self.start_method == "fork":
            # Workers inherit sys.modules: do the kernels' lazy import here,
            # or every pool's root pays it (~0.3 s) after the fork.
            import scipy.sparse.csgraph  # noqa: F401
        return _Pool(
            multiprocessing.get_context(self.start_method), specs, slab_token,
            Transport(threshold=self.shm_threshold, use_arena=self.use_arena),
            first,
        )

    def _dispatch(self, engine: Engine, pool: _Pool, world_gid: int,
                  seed: int, program, args, kwargs, faults) -> RunResult:
        """One run on ``pool``: ship the ``CMD_RUN``, then coordinate."""
        # Program token: ship the callable once per pool, a small token
        # thereafter (the workers cache it by token).
        token = pool.program_tokens.get(program)
        first = token is None
        if first:
            token = len(pool.program_tokens)
        cmd = (CMD_RUN, world_gid, seed, token, program if first else None,
               args, kwargs, tuple(faults or ()))
        # One pickle for all ranks: send_bytes reuses the buffer, so the
        # per-run input cost is p pipe writes of one encoding — and with
        # the plane on, that encoding is O(1) in the graph size.
        buf = bytes(ForkingPickler.dumps(cmd))
        pool.program_tokens[program] = token
        for rank, conn in enumerate(pool.conns):
            try:
                conn.send_bytes(buf)
            except (BrokenPipeError, OSError):
                raise self._crash(pool, rank) from None
        return self._coordinate(engine, pool, pool.transport,
                                input_bytes=len(buf) * pool.p)

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
        """Run ``program`` on ``p`` fresh worker processes; measured time
        split.

        ``faults`` injects the given deterministic :class:`FaultSpec`
        records at the worker driver loop (see :mod:`repro.faults`); the
        default ``None`` is the fault-free fast path.  Under ``fork`` the
        workers inherit the run (markers resolved here; nothing published,
        pickled or sent); otherwise it is staged and dispatched.
        """
        inherit = self.start_method == "fork"
        # Pins are dropped (and segments unlinked unless a longer-lived
        # layer also pins them) in the finally below — a crashed run
        # cannot leak a published segment.
        plane_pins: list[str] = []
        engine, world, args, kwargs = self._begin(p, args, kwargs, plane_pins,
                                                  stage=not inherit)
        try:
            first = None
            if inherit:
                # Fail where a CMD_RUN would, before any worker exists: an
                # unimportable program does not pickle by reference.
                ForkingPickler.dumps(program)
                first = (CMD_RUN, world.gid, seed, 0, program, args, kwargs,
                         tuple(faults or ()))
            pool = self._spawn(world.size, first)
            try:
                if inherit:
                    result = self._coordinate(engine, pool, pool.transport,
                                              input_bytes=0)
                else:
                    result = self._dispatch(engine, pool, world.gid, seed,
                                            program, args, kwargs, faults)
            except BaseException:
                pool.shutdown()  # workers may be wedged mid-collective
                raise
            pool.shutdown(graceful=True)
            return result
        finally:
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

    def _coordinate(self, engine: Engine, pool: _Pool, transport: Transport,
                    input_bytes: int) -> RunResult:
        p = pool.p
        tracer = self.tracer
        events_before = len(tracer)
        last_event_t = perf_counter()  # wall clock between collectives
        # The transport (and its arena slabs) outlives the run; stats
        # restart so last_transport_stats stays per-run.
        transport.stats = TransportStats()
        # Input shipping gets its own stats kind so benches can report
        # bytes-per-query with the graph plane on vs off.
        transport.stats.note("input", messages=p, pickle_bytes=input_bytes)
        # The engine's own run state, fed by messages instead of generators:
        pending: dict[int, CollectiveOp] = {}  # rank -> blocked request
        live = set(range(p))                   # ranks yet to report DONE
        counters: list[ProcCounters | None] = [None] * p  # latest shipped
        inbox: list[Any] = [None] * p          # results awaiting their reply
        values: list[Any] = [None] * p
        app_s = [0.0] * p
        mpi_s = [0.0] * p
        # Completed supersteps per rank (replies shipped): a failure stamps
        # the failing rank's count so errors name the superstep in flight.
        steps = [0] * p
        # Coordinator slabs backing each rank's outstanding reply: the
        # rank's next message proves the reply was decoded, releasing them
        # to the pool (legacy: the worker already unlinked its one-shots).
        reply_refs: dict[int, list[str]] = {r: [] for r in range(p)}
        # Worker slabs, ref-counted: name -> [owner, readers].  The
        # coordinator reads until it has decoded the request or forwarded
        # its descriptors; a member whose reply points into the slab, until
        # its next message.  At zero the name joins ``freed[owner]`` and
        # rides the owner's next reply.
        lent: dict[str, list[int]] = {}
        posted: dict[int, list[str]] = {}  # rank -> its latest request's slabs
        borrowed: dict[int, list[str]] = {r: [] for r in range(p)}
        freed: dict[int, list[str]] = {r: [] for r in range(p)}

        def slabs_of(wire) -> list[str]:
            return list(dict.fromkeys(
                ref.name for ref in iter_refs(wire, SlabArrayRef)))

        def unread(names) -> None:
            for name in names:
                loan = lent[name]
                loan[1] -= 1
                if not loan[1]:
                    freed[lent.pop(name)[0]].append(name)

        def handle(msg) -> None:
            tag, rank = msg[0], msg[1]
            transport.release(reply_refs[rank])  # previous reply consumed
            unread(borrowed[rank])
            reply_refs[rank], borrowed[rank] = [], []
            if tag == MSG_OP:
                op, counters[rank] = msg[2], msg[3]
                slabs = posted[rank] = slabs_of(op.payload)
                pool.worker_segments.update(slabs)
                lent.update((name, [rank, 1]) for name in slabs)
                if not (self.use_arena and op.kind in _FORWARDED):
                    op = replace(
                        op, payload=transport.decode(op.payload, op.kind))
                    unread(slabs)
                pending[rank] = op
            elif tag == MSG_DONE:
                value, counters[rank], app_s[rank], mpi_s[rank], stats = \
                    msg[2:]
                values[rank] = decode_payload(value)
                transport.stats.merge(stats)  # the worker's transport stats
                live.discard(rank)
            elif tag == MSG_ERROR:
                _, _, exc_type, tb = msg
                raise WorkerProgramError(rank, exc_type, tb)
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown worker message tag {tag!r}")

        def execute_ready() -> None:
            nonlocal last_event_t
            for group, ops in engine._ready(pending, live, p):
                now = perf_counter()
                engine._execute(group, ops, counters, inbox,
                                wall_s=now - last_event_t)
                last_event_t = now
                kind = ops[0].kind
                forwarded = self.use_arena and kind in _FORWARDED
                if forwarded and any(posted[op.sender] for op in ops):
                    # The results are the senders' descriptors, regrouped:
                    # each member becomes a reader of what its result
                    # points into, then the coordinator stops being one.
                    for op in ops:
                        borrowed[op.sender] = slabs_of(inbox[op.sender])
                        for name in borrowed[op.sender]:
                            lent[name][1] += 1
                    for op in ops:
                        unread(posted[op.sender])
                for op in ops:
                    # Ship the member its result, its charged counters and
                    # the slabs it may pool again; retire its request.
                    m = op.sender
                    if forwarded:
                        wire = inbox[m]
                        transport.stats.note(kind, messages=1)
                    else:
                        wire, reply_refs[m] = transport.encode(inbox[m], kind)
                    inbox[m] = None
                    buf = ForkingPickler.dumps(
                        (REPLY_RESULT, wire, counters[m], freed[m]))
                    freed[m] = []
                    transport.stats.note(kind, pickle_bytes=len(buf))
                    try:
                        pool.conns[m].send_bytes(buf)
                    except (BrokenPipeError, OSError):
                        raise self._crash(pool, m, steps[m]) from None
                    del pending[m]
                    steps[m] += 1

        try:
            self._event_loop(pool, pending, live, handle, execute_ready,
                             steps)
        finally:
            # Replies a worker never consumed (error teardown) would leak
            # their segments; reclaim them here (no-op on clean runs: the
            # arena owns its slabs and close() unlinks them all).
            if not self.use_arena:
                unlink_segments(
                    name for names in reply_refs.values() for name in names
                )
            self.last_transport_stats = transport.stats.as_dict()

        report = CountersReport.from_procs(list(counters))
        trace = None
        if tracer.enabled:
            tracer.on_finish([c.snapshot() for c in counters],
                             wall_s=perf_counter() - last_event_t)
            trace = tracer.events()[events_before:]
        measured = TimeEstimate(app_s=max(app_s), mpi_s=max(mpi_s))
        return RunResult(values=values, report=report, time=measured,
                         trace=trace)

    def _event_loop(self, pool, pending, live, handle, execute_ready,
                    steps) -> None:
        def drain(rank) -> None:
            try:
                while pool.conns[rank].poll():
                    handle(pool.conns[rank].recv())
            except (EOFError, ConnectionError):
                pass  # gone (a reset: it died with a command unread)

        while live:
            ranks = sorted(live)
            ready = _conn_wait(
                [pool.conns[r] for r in ranks]
                + [pool.procs[r].sentinel for r in ranks],
                timeout=self.timeout,
            )
            if not ready:
                silent = sorted(live - pending.keys()) or ranks
                raise WorkerTimeoutError(
                    self.timeout, silent,
                    supersteps={r: steps[r] for r in silent},
                )
            ready_ids = {id(obj) for obj in ready}
            # Messages first: a worker that reported and exited is not a crash.
            for rank in ranks:
                if id(pool.conns[rank]) in ready_ids:
                    drain(rank)
            for obj in ready:
                rank = pool.sentinel_rank.get(obj)
                if rank in live:
                    drain(rank)
                    if rank in live:
                        # Died before reporting — either mid-compute or
                        # while blocked inside a collective request.
                        raise self._crash(pool, rank, steps[rank])
            execute_ready()
