"""Keep-alive multiprocess backend: one worker pool, many runs.

:class:`WarmMpBackend` is :class:`~repro.runtime.mp.MpBackend` with the
per-run setup amortized away.  The one-shot backend pays, on **every**
``run()``: spawn ``p`` OS processes, import state (under ``spawn``,
re-import the scientific stack), create per-worker shm arenas, and tear
it all down.  The warm backend spawns the pool once
(:func:`~repro.runtime.worker.persistent_worker_main` workers), keeps the
worker *and* coordinator :class:`~repro.runtime.transport.Transport`
arenas mapped, and dispatches each subsequent run as a small ``CMD_RUN``
command down the existing pipes.  This is the serving-layer contract the
daemon (:mod:`repro.serve`) is built on: request latency excludes process
creation entirely.

Semantics are identical to ``MpBackend`` — the coordinator logic is
literally shared (:meth:`MpBackend._coordinate` with an external
transport) — so results, counters and traces stay bit-identical to the
one-shot backend and the simulator for a fixed seed.  Differences:

* Programs are shipped through the pipe pickled by reference the first
  time they run on a pool — a small integer token thereafter (workers
  cache the callable per token) — so they must be module-level functions
  (every program in the tree is).
* Graph-plane inputs (:mod:`repro.graph.shm`) stay *pinned* across runs:
  an LRU window of ``plane_retain`` recently queried graphs keeps their
  published segments alive, so a repeat query ships only an O(1) handle
  and the workers' cached attachments make it attach-free too.
* On any :class:`~repro.runtime.errors.WorkerFailure` the whole pool is
  discarded — surviving workers may be blocked mid-collective — and the
  next ``run()`` transparently respawns it.  Failure behavior therefore
  matches the one-shot backend observationally (same typed errors, no
  leaked processes or segments), it just also costs the warmth.
* A ``run()`` at a different ``p`` respawns the pool at the new width.
* Call :meth:`close` (or use the backend as a context manager) when done;
  a forgotten pool of daemonic workers dies with the parent process, and
  the arena sweep in :meth:`~repro.runtime.mp._Pool.shutdown` still
  reclaims slabs, but an explicit close is what keeps /dev/shm clean at
  a deterministic point — the CI leak checks pin exactly that.
"""

from __future__ import annotations

import logging
import multiprocessing
from collections import OrderedDict
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.bsp.engine import RunResult
from repro.faults import FaultSpec
from repro.graph.shm import release_pins, unpin
from repro.runtime.mp import MpBackend, _Pool, _run_slab_token
from repro.runtime.transport import Transport
from repro.runtime.worker import (
    CMD_EXIT,
    CMD_RUN,
    WorkerSpec,
    persistent_worker_main,
)

__all__ = ["WarmMpBackend"]

logger = logging.getLogger(__name__)

#: Published graphs the warm backend keeps pinned across runs (LRU):
#: repeat queries on a recently seen graph re-use its segment without a
#: republish, and the workers' attachment caches stay valid.
DEFAULT_PLANE_RETAIN = 8


class WarmMpBackend(MpBackend):
    """Multiprocess backend that keeps its worker pool warm across runs.

    Accepts every :class:`~repro.runtime.mp.MpBackend` parameter.  The
    pool is spawned lazily on the first ``run()`` (at that run's ``p``)
    and reused until :meth:`close`, a failure, or a ``p`` change.
    """

    name = "warm"

    def __init__(self, *, plane_retain: int = DEFAULT_PLANE_RETAIN, **kwargs):
        super().__init__(**kwargs)
        self._pool: _Pool | None = None
        self._pool_p: int | None = None
        self._transport: Transport | None = None
        #: Pool generation counter: spawns observed (tests assert warmth
        #: by watching this stay flat across runs).
        self.pool_spawns = 0
        #: Published-graph retention window: fingerprint -> True, LRU
        #: over the last ``plane_retain`` distinct graphs; each holds one
        #: pin so repeat queries stay publish-free.
        self.plane_retain = int(plane_retain)
        self._plane_retained: OrderedDict[str, bool] = OrderedDict()
        #: program -> small int token; workers cache the callable by
        #: token so repeat runs never re-pickle the program reference.
        self._program_tokens: dict[Any, int] = {}

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self, p: int) -> _Pool:
        if self._pool is not None and self._pool_p != p:
            logger.info("warm pool width change %d -> %d: respawning",
                        self._pool_p, p)
            self.close()
        if self._pool is None:
            ctx = multiprocessing.get_context(self.start_method)
            slab_token = _run_slab_token() if self.use_arena else None

            def spec_for(rank: int) -> WorkerSpec:
                # Per-run fields (program/args/seed/world gid/faults) are
                # placeholders here; every CMD_RUN replaces them.  The
                # transport geometry is fixed for the pool's lifetime.
                return WorkerSpec(
                    rank=rank, p=p, world_gid=0, seed=0, cache=self.cache,
                    program=None, args=(), kwargs={},
                    shm_threshold=self.shm_threshold,
                    use_arena=self.use_arena,
                    faults=(),
                    slab_prefix=(f"{slab_token}r{rank}n"
                                 if slab_token else None),
                )

            self._pool = _Pool(ctx, p, spec_for, slab_token=slab_token,
                               target=persistent_worker_main)
            self._pool_p = p
            self._transport = Transport(threshold=self.shm_threshold,
                                        use_arena=self.use_arena)
            self.pool_spawns += 1
        return self._pool

    def _release_plane(self) -> None:
        """Drop every retained graph pin (and unlink the unpinned)."""
        retained = list(self._plane_retained)
        self._plane_retained.clear()
        release_pins(retained)

    def _discard_pool(self) -> None:
        """Tear down after a failure: workers may be wedged mid-collective."""
        pool, self._pool = self._pool, None
        self._pool_p = None
        self._program_tokens.clear()
        self._release_plane()
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()
        if pool is not None:
            pool.shutdown()

    def close(self) -> None:
        """Gracefully stop the pool and unlink every arena slab."""
        pool, self._pool = self._pool, None
        self._pool_p = None
        self._program_tokens.clear()
        self._release_plane()
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()
        if pool is None:
            return
        for conn in pool.conns:
            try:
                conn.send((CMD_EXIT,))
            except (BrokenPipeError, OSError):
                pass
        for proc in pool.procs:
            proc.join(timeout=5.0)
        # Already-exited workers make shutdown() a drain + sweep; anything
        # still alive is terminated there.
        pool.shutdown()

    def _retain_plane(self, run_pins: list[str]) -> None:
        """Migrate a finished run's graph pins into the retention LRU.

        A graph already retained just refreshes its recency (the run's
        extra pin is dropped); a new one hands its run pin to the window,
        evicting — unpinning and unlinking — the least recent beyond
        ``plane_retain``.  After a failure teardown (no pool) the pins
        are simply released: nothing is retained across a respawn.
        """
        if self._pool is None or self.plane_retain <= 0:
            release_pins(run_pins)
            return
        for fp in run_pins:
            if fp in self._plane_retained:
                self._plane_retained.move_to_end(fp)
                unpin(fp)  # retention already holds its own pin
            else:
                self._plane_retained[fp] = True  # run pin becomes ours
        while len(self._plane_retained) > self.plane_retain:
            old, _ = self._plane_retained.popitem(last=False)
            release_pins((old,))

    def __enter__(self) -> "WarmMpBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        """Run ``program`` on the warm pool (spawning it if needed)."""
        # Graph plane: publish/pin marked graphs for this run; afterwards
        # the pins migrate into the LRU retention window so the next
        # query on the same graph ships only its O(1) handle.
        run_pins: list[str] = []
        engine, world, args, kwargs = self._begin(p, args, kwargs, run_pins)
        p = world.size
        try:
            pool = self._ensure_pool(p)
            # Program token: ship the callable once per pool generation, a
            # small token thereafter (the workers cache it by token).
            token = self._program_tokens.get(program)
            wire_program = None if token is not None else program
            if token is None:
                token = self._program_tokens[program] = \
                    len(self._program_tokens)
            cmd = (CMD_RUN, world.gid, seed, token, wire_program, args,
                   kwargs, tuple(faults or ()))
            # One pickle for all ranks: send_bytes reuses the buffer, so the
            # per-run input cost is p pipe writes of one encoding — and with
            # the plane on, that encoding is O(1) in the graph size.
            buf = bytes(ForkingPickler.dumps(cmd))
            for rank, conn in enumerate(pool.conns):
                try:
                    conn.send_bytes(buf)
                except (BrokenPipeError, OSError):
                    raise self._crash(pool, rank) from None
            return self._coordinate(engine, pool, p,
                                    transport=self._transport,
                                    input_bytes=len(buf) * p)
        except BaseException:
            self._discard_pool()
            raise
        finally:
            self._retain_plane(run_pins)
