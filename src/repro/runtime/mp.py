"""Real shared-memory multiprocess backend for SPMD programs.

A pool is worker processes (:mod:`repro.runtime.worker`; ``fork`` where
available, spawn-safe), one shared-memory control block and one doorbell
semaphore per rank.  Every rank runs the unmodified generator program and
settles each collective with its group's members alone, bulk payloads in
shared memory (:mod:`repro.runtime.transport`).  Programs pickle by
reference, so they must be importable module-level functions.

**A backend is a pool handle.**  Its first run starts the pool; later
runs at the same ``p`` reuse it, each a ``CMD_RUN`` down the pipes, its
graph inputs staged through the graph plane (:mod:`repro.graph.shm`),
the last ``plane_retain`` graphs kept published between runs.  A
failure or another ``p`` discards the pool; :meth:`MpBackend.close`, a
``with`` block or the backend's collection ends it.  **The caller is
rank 0** of an :class:`MpBackend`: the pool is ``p`` − 1 workers — a
first run under ``fork`` hands them its ``CMD_RUN`` by the fork, nothing
published or pickled — and the caller runs its own part on an endpoint
of the same control block, in a heap already warm.  The pool of a
:class:`~repro.runtime.warm.WarmMpBackend` is ``p`` workers.

The caller checks its workers whenever rank 0 sleeps, and after it until
the last ``MSG_DONE`` (:meth:`MpBackend._supervise`): it collects values,
counters, transport stats and the trace hook calls each group's lowest
member recorded, and raises a program's exception as
:class:`~repro.runtime.errors.WorkerProgramError`, a superstep's own
error (``DeadlockError``, ``CollectiveMismatchError``) as itself, a worker
that dies as :class:`WorkerCrashError` (sentinels are in the wait set),
and a control block without progress for the inactivity timeout as
:class:`WorkerTimeoutError` — rank 0 fails the same way, its own code
bounded by a watchdog thread (:class:`_Watchdog`).  The pool is always
torn down before re-raising: a failed run never hangs or leaks.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import itertools
import logging
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from multiprocessing.util import Finalize
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.bsp.counters import CountersReport
from repro.bsp.engine import Engine, RunResult
from repro.bsp.fusion import FusionConfig, as_fusion_config
from repro.bsp.machine import TimeEstimate
from repro.cache.model import CacheParams
from repro.faults import FaultSpec
from repro.graph.shm import localize_plane, release_pins, stage_plane, unpin
from repro.runtime.base import Backend
from repro.runtime.errors import (
    WorkerCrashError,
    WorkerProgramError,
    WorkerTimeoutError,
)
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.runtime.transport import (
    DEFAULT_SHM_THRESHOLD,
    ShmArrayRef,
    TransportStats,
    decode_payload,
    iter_refs,
)
from repro.runtime.worker import (
    BLOCKED,
    CMD_EXIT,
    CMD_RUN,
    MSG_DONE,
    MSG_ERROR,
    MSG_FAULT,
    ControlBlock,
    Peers,
    WorkerSpec,
    persistent_worker_main,
    run_here,
)
from repro.shmem import create_segment, unlink_segments

__all__ = ["MpBackend", "default_start_method"]

logger = logging.getLogger(__name__)

#: Default inactivity timeout (seconds): generous enough for real
#: benchmark-scale local compute phases, finite so nothing ever hangs.
DEFAULT_TIMEOUT_S = 300.0

#: Published graphs a pool keeps pinned across runs (LRU): a repeat query
#: on a recently seen graph re-uses its segment without a republish, and
#: the workers' attachment caches stay valid.
DEFAULT_PLANE_RETAIN = 8

#: Per-process sequence distinguishing concurrent runs' slab prefixes.
_RUN_SEQ = itertools.count()

#: Raises an exception in another thread at its next bytecode.
_SET_ASYNC_EXC = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_ulong,
                                   ctypes.py_object)(
    ("PyThreadState_SetAsyncExc", ctypes.pythonapi))


def _run_slab_token() -> str:
    """A short, per-pool-unique name token (pid, sequence, milliseconds)
    for the pool's segments: worker slabs ``{token}r{rank}n…`` and the
    control block ``{token}c``."""
    return (f"rsh{os.getpid() & 0xFFFFFFFF:08x}g{next(_RUN_SEQ) & 0xFFFF:04x}"
            f"t{int(time.time() * 1000) & 0xFFFFFF:06x}")


def default_start_method() -> str:
    """``fork`` where available (no re-import of the scientific stack per
    worker), else ``spawn``; everything is spawn-safe."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _Pool:
    """The worker processes plus what the parent keeps of them: pipes and
    processes by rank, sentinels, the control block, the doorbells and
    the retained graphs — and, ``here`` set, rank 0's endpoint, run by the
    caller itself."""

    def __init__(self, ctx, specs: Sequence[WorkerSpec], token: str,
                 first=None, here: bool = False):
        self.p = len(specs)
        self.conns: dict[int, Any] = {}
        self.procs: dict[int, Any] = {}
        self.here: Peers | None = None
        #: program -> small int token the workers cache the callable by
        #: (the inherited first run's is 0).
        self.program_tokens: dict[Any, int] = {first[4]: 0} if first else {}
        #: Graph-plane retention window: fingerprint -> True, LRU; each
        #: holds one pin, dropped at shutdown.
        self.retained: OrderedDict[str, bool] = OrderedDict()
        #: Name token of every segment of this pool (the shutdown sweep).
        self.slab_token = token
        #: Runs dispatched; a worker matches posts of its current run only.
        self.runs = 1 if first else 0
        #: One doorbell per rank; under spawn each holds a name in
        #: /dev/shm until shutdown drops it.
        self.bells = [ctx.Semaphore(0) for _ in specs]
        self.block = None
        try:
            self.block = ControlBlock(create_segment(
                ControlBlock.nbytes(self.p), specs[0].block), self.p)
            if here:
                self.here = Peers(specs[0], self.bells)
            for spec in specs[1 if here else 0:]:
                parent_conn, child_conn = ctx.Pipe()
                self.conns[spec.rank] = parent_conn
                proc = ctx.Process(
                    target=persistent_worker_main,
                    args=(child_conn, spec, self.bells, first),
                    daemon=True,
                    name=f"repro-mp-{spec.rank}",
                )
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self.procs[spec.rank] = proc
        except BaseException:
            # A failed start (EAGAIN, ENOMEM) must not strand the workers
            # already running, blocked on their pipes.
            self.shutdown()
            raise
        self.sentinel_rank = {pr.sentinel: r for r, pr in self.procs.items()}
        # An exit without shutdown (a pool never closed) must leave
        # /dev/shm clean; this hook runs before multiprocessing's own, which
        # would kill the workers before they unlink their slabs.
        atexit.register(self.shutdown, True)

    def where(self, rank: int, run: int) -> tuple[int, bool]:
        """``rank``'s completed steps in ``run`` and whether it is blocked
        in a collective, from the control block."""
        head_run, state, steps, _ = self.block.heads()[rank]
        return (steps, state == BLOCKED) if head_run == run else (0, False)

    def shutdown(self, graceful: bool = False) -> None:
        """Stop the workers and reclaim stray shared-memory segments:
        ``graceful`` (every run completed) asks each worker to exit — it
        unlinks its own arena — and terminates only stragglers; otherwise
        terminate at once, as survivors may be wedged mid-collective."""
        atexit.unregister(self.shutdown)
        release_pins(list(self.retained))
        self.retained.clear()
        if graceful:
            for conn in self.conns.values():
                try:
                    conn.send((CMD_EXIT,))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self.procs.values():
                proc.join(timeout=5.0)
        for conn in self.conns.values():
            try:
                while conn.poll():
                    msg = conn.recv()
                    if msg and msg[0] == MSG_DONE:
                        # One-shot segments: unlink without copying out.
                        unlink_segments(
                            r.name for r in iter_refs(msg[2], ShmArrayRef))
            except (EOFError, OSError):
                pass
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate() sufficed so far
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self.conns.values():
            conn.close()
        if self.here is not None:  # every reader of its slabs is done
            self.here.close()
            self.here = None
        self.bells = []
        if self.block is not None:
            self.block.close()
            unlink_segments([self.block.seg.name])
        # Anything of this pool still in /dev/shm leaked: a worker died or
        # was terminated mid-run.  Make that visible.
        leaked = unlink_segments(sorted(
            os.path.basename(path)
            for path in glob.glob(f"/dev/shm/{self.slab_token}*")))
        if leaked:
            logger.warning(
                "reclaimed %d leaked worker shm segment(s) at shutdown: %s",
                len(leaked), ", ".join(leaked),
            )


class _Watchdog(threading.Thread):
    """Rank 0's inactivity timeout, while the caller runs its program: the
    first error ``stale`` returns (asked every ``timeout`` / 4) interrupts
    the caller with a KeyboardInterrupt — a SIGINT on the main thread, so
    a sleep wakes too, else an asynchronous one — and ``with`` raises it."""

    def __init__(self, stale: Callable, timeout: float | None):
        super().__init__(name="repro-mp-watchdog", daemon=True)
        self.stale, self.timeout, self.fired = stale, timeout, None
        self.tid, self.done = threading.get_ident(), threading.Event()

    def __enter__(self) -> None:
        if self.timeout is not None:
            self.start()

    def run(self) -> None:
        while not self.done.wait(self.timeout / 4):
            if (error := self.stale()) is not None:
                self.fired = error  # first: a KeyboardInterrupt is ours
                if (self.tid == threading.main_thread().ident and
                        signal.getsignal(signal.SIGINT) is
                        signal.default_int_handler):
                    signal.pthread_kill(self.tid, signal.SIGINT)
                else:
                    _SET_ASYNC_EXC(self.tid, KeyboardInterrupt)
                return

    def __exit__(self, kind, *_) -> None:
        self.done.set()
        try:
            if self.ident is not None:
                self.join()  # ``fired`` is final now
            if self.fired is not None and kind is not KeyboardInterrupt:
                time.sleep(1.0)  # its interrupt is on the way: let it land
        except KeyboardInterrupt:
            if self.fired is None:
                raise  # a real Ctrl-C
        if self.fired is not None:
            raise self.fired from None


class MpBackend(Backend):
    """Execute SPMD programs on real OS processes with measured timing.

    Parameters
    ----------
    cache:
        Cache geometry for the analytic counter charges.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``; default per platform.
    timeout:
        Inactivity timeout in seconds — no message and no rank changing
        state — before the run is aborted with
        :class:`WorkerTimeoutError`; ``None`` disables the bound.
    shm_threshold:
        Minimum payload bytes for the shared-memory path (per message in
        arena mode, per array in legacy mode).
    use_arena:
        Pooled slab arena transport (default); ``False`` selects the
        legacy one-segment-per-array codec, the transport gate's reference.
    tracer:
        Per-superstep tracing, as on the simulator (e.g. a
        :class:`~repro.trace.tracer.RecordingTracer`).  Events equal the
        simulator's but for ``wall_s``.
    fuse:
        Automatic adjacent superstep fusion (:mod:`repro.bsp.fusion`):
        ``True`` or a :class:`~repro.bsp.fusion.FusionConfig`.
    graph_plane:
        Ship :func:`~repro.graph.shm.plane_slices`-marked graphs as O(1)
        handles to a published segment (default) instead of pickled
        copies.  Every run but a pool's first under ``fork``, which
        hands its workers the slices by the fork.
    """

    name = "mp"
    #: Rank 0 runs in the caller (else in a worker of the pool).
    here = True
    #: Distinct graphs the pool keeps published between runs.
    plane_retain = DEFAULT_PLANE_RETAIN

    def __init__(
        self,
        *,
        cache: CacheParams | None = None,
        start_method: str | None = None,
        timeout: float | None = DEFAULT_TIMEOUT_S,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        use_arena: bool = True,
        tracer: Tracer | None = None,
        fuse: bool | FusionConfig | None = None,
        graph_plane: bool | None = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        super().__init__()
        self.tracer = tracer if tracer is not None else NULL_TRACER
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
        self.fuse = as_fusion_config(fuse)
        self.graph_plane = graph_plane is None or bool(graph_plane)
        #: The last run's per-kind transport stats (input + every worker).
        self.last_transport_stats: dict | None = None
        self._pool: _Pool | None = None
        #: Pool generation counter: spawns observed (tests assert reuse
        #: by watching this stay flat across runs).
        self.pool_spawns = 0

    # -- main entry ----------------------------------------------------------

    def _begin(self, p, args, kwargs, pins: list[str], stage: bool = True):
        """The world group (validating ``p``) and the arguments with
        graph-plane markers staged (published, pins appended to ``pins``)
        or, plane off or ``stage`` false, resolved locally."""
        world = Engine()._begin_run(p)
        args, kwargs = tuple(args), dict(kwargs or {})
        if stage and self.graph_plane:
            return world, stage_plane(args, pins), stage_plane(kwargs, pins)
        return world, localize_plane(args), localize_plane(kwargs)

    def _spawn(self, p: int, first=None) -> _Pool:
        """Start ``p`` command-loop workers, or ``p`` − 1 with rank 0
        ``here``; ``first`` is a ``CMD_RUN`` the workers start on (fork
        only: it is inherited, never pickled)."""
        token = _run_slab_token()
        specs = [WorkerSpec(rank, p, self.cache, self.shm_threshold,
                            self.use_arena, f"{token}r{rank}n", f"{token}c",
                            self.tracer.enabled, self.fuse)
                 for rank in range(p)]
        if self.start_method == "fork":
            # Workers inherit sys.modules: do the kernels' lazy import here,
            # or every pool's workers pay it (~0.3 s) after the fork.
            import scipy.sparse.csgraph  # noqa: F401
        return _Pool(multiprocessing.get_context(self.start_method), specs,
                     token, first, self.here)

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self, p: int, first=None) -> _Pool:
        if self._pool is not None and self._pool.p != p:
            logger.info("pool width change %d -> %d: respawning",
                        self._pool.p, p)
            self._stop(graceful=True)
        if self._pool is None:
            self._pool = pool = self._spawn(p, first)
            # A backend dropped unclosed ends its pool when collected (a
            # weakref callback that a forked child ignores); at interpreter
            # exit the pool's own hook does.
            self._finalizer = Finalize(self, pool.shutdown, (True,))
            self.pool_spawns += 1
        return self._pool

    def _stop(self, graceful: bool) -> None:
        """Drop the pool and its retained graph pins (unlinking the
        unpinned); ``graceful`` as :meth:`_Pool.shutdown`."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self._finalizer.cancel()
            pool.shutdown(graceful)

    def close(self) -> None:
        """Gracefully stop the pool, unlink every arena slab and empty
        the plan store."""
        self._stop(graceful=True)
        super().close()

    def __enter__(self) -> "MpBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _retain_plane(self, run_pins: list[str]) -> None:
        """Migrate a finished run's graph pins into the pool's retention
        LRU.

        A graph already retained just refreshes its recency (the run's
        extra pin is dropped); a new one hands its run pin to the window,
        evicting — unpinning and unlinking — the least recent beyond
        ``plane_retain``.  After a failure teardown (no pool) the pins
        are simply released: nothing is retained across a respawn.
        """
        if self._pool is None or self.plane_retain <= 0:
            release_pins(run_pins)
            return
        retained = self._pool.retained
        for fp in run_pins:
            if fp in retained:
                retained.move_to_end(fp)
                unpin(fp)  # retention already holds its own pin
            else:
                retained[fp] = True  # run pin becomes ours
        while len(retained) > self.plane_retain:
            release_pins((retained.popitem(last=False)[0],))

    def _dispatch(self, pool: _Pool, world_gid: int, seed: int, program,
                  args, kwargs, faults, here=None) -> RunResult:
        """One run on ``pool``: ship the ``CMD_RUN``, then supervise."""
        token = pool.program_tokens.get(program)
        first = token is None
        if first:
            token = len(pool.program_tokens)
        # One pickle for all ranks — O(1) in the graph size, plane on.
        buf = bytes(ForkingPickler.dumps(
            (CMD_RUN, world_gid, seed, token, program if first else None,
             args, kwargs, tuple(faults or ()))))
        pool.program_tokens[program] = token
        pool.runs += 1  # the workers count their runs too
        for rank, conn in pool.conns.items():
            try:
                conn.send_bytes(buf)
            except (BrokenPipeError, OSError):
                raise self._crash(pool, rank) from None
        return self._supervise(pool, len(buf) * len(pool.conns), here)

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
        """Run ``program`` on ``p`` ranks of the pool (``faults``: see
        :mod:`repro.faults`), starting the pool first if there is none at
        ``p``: rank 0 is this process (``here``), the others workers.
        Under ``fork`` a starting pool's workers inherit the run —
        nothing published, pickled or sent; otherwise it is staged and
        dispatched."""
        inherit = self.here and self.start_method == "fork" and (
            self._pool is None or self._pool.p != p)
        if inherit:
            # Fail where a CMD_RUN would, before any worker exists: an
            # unimportable program does not pickle by reference.
            ForkingPickler.dumps(program)
        # Graph plane: the run's pins migrate into the retention window
        # afterwards, or are dropped (and segments unlinked unless a
        # longer-lived layer also pins them) — a crashed run cannot leak
        # a published segment.
        run_pins: list[str] = []
        world, args, kwargs = self._begin(p, args, kwargs, run_pins,
                                          stage=not inherit)
        msg = (CMD_RUN, world.gid, seed, 0, program, args, kwargs,
               tuple(faults or ()))
        try:
            if inherit:
                return self._supervise(self._ensure_pool(world.size, msg),
                                       0, msg)
            return self._dispatch(self._ensure_pool(world.size), world.gid,
                                  seed, program, args, kwargs, faults,
                                  msg if self.here else None)
        except BaseException:
            self._stop(graceful=False)  # workers may be wedged mid-collective
            raise
        finally:
            self._retain_plane(run_pins)

    # -- supervision ---------------------------------------------------------

    @staticmethod
    def _crash(pool: _Pool, rank: int,
               superstep: int | None = None) -> WorkerCrashError:
        """The crash error, once the child is reaped (a sentinel can fire
        before ``exitcode`` is set)."""
        proc = pool.procs[rank]
        proc.join(timeout=5.0)
        return WorkerCrashError(rank, proc.exitcode, superstep=superstep)

    def _supervise(self, pool: _Pool, input_bytes: int,
                   here: tuple | None = None) -> RunResult:
        """Run the ``CMD_RUN`` ``here`` as rank 0, if given, then wait for
        every ``MSG_DONE`` of run ``pool.runs``, watching the sentinels and
        the control block; then assemble the result."""
        p, run, tracer = pool.p, pool.runs, self.tracer
        events_before = len(tracer)
        live = set(range(p))  # ranks yet to report DONE
        done: list = [None] * p  # per rank: what MSG_DONE carries after it

        def drain(rank) -> None:
            conn = pool.conns[rank]
            try:
                while rank in live and conn.poll():
                    msg = conn.recv()
                    if msg[0] == MSG_DONE:
                        done[rank] = (decode_payload(msg[2]), *msg[3:])
                        live.discard(rank)
                    elif msg[0] == MSG_FAULT:
                        raise msg[2]
                    elif msg[0] == MSG_ERROR:
                        raise WorkerProgramError(rank, msg[2], msg[3])
                    else:  # pragma: no cover - protocol guard
                        raise RuntimeError(f"unknown worker message {msg[0]!r}")
            except (EOFError, ConnectionError):
                pass  # gone (a reset: it died with a command unread)

        t0 = quiet = perf_counter()
        seen = None

        def stale() -> WorkerTimeoutError | None:
            """The inactivity timeout's error, once no rank changed state
            for ``timeout``."""
            nonlocal quiet, seen
            now, versions = perf_counter(), [h[3] for h in pool.block.heads()]
            if versions != seen:
                seen, quiet = versions, now
            elif self.timeout is not None and now - quiet >= self.timeout:
                ranks = sorted(live)
                where = {r: pool.where(r, run) for r in ranks}
                silent = [r for r in ranks if not where[r][1]] or ranks
                return WorkerTimeoutError(
                    self.timeout, silent,
                    supersteps={r: where[r][0] for r in silent})
            return None

        def check(block: bool = False) -> None:
            """The one check of the workers — also between rank 0's sleeps:
            ``block``, wait a while for a message or a death, then for the
            inactivity timeout (rank 0's is the watchdog's)."""
            wait_s = 0.0
            if block:
                wait_s = None if self.timeout is None else max(0.0, min(
                    self.timeout / 4, quiet + self.timeout - perf_counter()))
            workers = [r for r in sorted(live) if r in pool.procs]
            ready = _conn_wait(
                [pool.conns[r] for r in workers]
                + [pool.procs[r].sentinel for r in workers],
                timeout=wait_s,
            )
            for rank in workers:  # messages first: a worker that
                drain(rank)       # reported, then exited, did not crash
            for obj in ready:
                rank = pool.sentinel_rank.get(obj)
                if rank in live:  # died before reporting
                    raise self._crash(pool, rank, pool.where(rank, run)[0])
            if block and (error := stale()) is not None:
                raise error

        try:
            if here is not None:
                with _Watchdog(stale, self.timeout):
                    done[0] = run_here(pool.here, here, check)
                live.discard(0)
            while live:
                check(block=True)
        finally:
            stats = TransportStats()
            stats.note("input", messages=len(pool.procs),
                       pickle_bytes=input_bytes)
            for fields in filter(None, done):
                stats.merge(fields[4])
            # Per rank: minor faults and CPU seconds over its run.
            self.last_transport_stats = {**stats.as_dict(),
                                         "ranks": [d and d[6] for d in done]}

        values, counters, app_s, mpi_s, _, events, _ = map(list, zip(*done))
        report = CountersReport.from_procs(counters)
        trace = None
        if tracer.enabled:
            recorded = (ev for evs in events for ev in evs or ())
            for *_, hook, kw in sorted(recorded, key=lambda ev: ev[:3]):
                getattr(tracer, hook)(**kw)
            tracer.on_finish([c.snapshot() for c in counters],
                             wall_s=perf_counter() - t0)
            trace = tracer.events()[events_before:]
        measured = TimeEstimate(app_s=max(app_s), mpi_s=max(mpi_s))
        return RunResult(values=values, report=report, time=measured,
                         trace=trace)
