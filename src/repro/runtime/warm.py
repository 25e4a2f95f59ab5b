"""Keep-alive multiprocess backend: one worker pool, many runs.

:class:`WarmMpBackend` is :class:`~repro.runtime.mp.MpBackend` minus the
per-run setup: it spawns the pool once — workers, arenas, control block,
doorbells — and dispatches each run as a small ``CMD_RUN`` down the
existing pipes, so request latency excludes process creation: the
contract the daemon (:mod:`repro.serve`) is built on.  Workers, spawn,
dispatch, supervision and teardown are ``MpBackend``'s, so results,
counters and traces stay bit-identical to ``mp`` and the simulator.  What
this class adds is what it keeps:

* the pool, with each program shipped by reference once and by a small
  token thereafter; a ``run()`` at another ``p`` respawns it;
* graph-plane inputs (:mod:`repro.graph.shm`): an LRU window of
  ``plane_retain`` recently queried graphs keeps their published segments
  pinned, so a repeat query ships an O(1) handle the workers have
  attached already;
* on any failure the whole pool is discarded — survivors may be blocked
  mid-collective — and the next ``run()`` respawns it: the same typed
  errors as ``mp``, no leaked processes or segments.

Call :meth:`close` (or use the backend as a context manager) when done:
it frees /dev/shm at a deterministic point, not at interpreter exit.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.bsp.engine import RunResult
from repro.faults import FaultSpec
from repro.graph.shm import release_pins, unpin
from repro.runtime.mp import MpBackend, _Pool

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
        #: Pool generation counter: spawns observed (tests assert warmth
        #: by watching this stay flat across runs).
        self.pool_spawns = 0
        #: Published-graph retention window: fingerprint -> True, LRU
        #: over the last ``plane_retain`` distinct graphs; each holds one
        #: pin so repeat queries stay publish-free.
        self.plane_retain = int(plane_retain)
        self._plane_retained: OrderedDict[str, bool] = OrderedDict()

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self, p: int) -> _Pool:
        if self._pool is not None and self._pool.p != p:
            logger.info("warm pool width change %d -> %d: respawning",
                        self._pool.p, p)
            self._stop(graceful=True)
        if self._pool is None:
            self._pool = self._spawn(p)
            self.pool_spawns += 1
        return self._pool

    def _stop(self, graceful: bool) -> None:
        """Drop the pool and every retained graph pin (unlinking the
        unpinned); ``graceful`` as :meth:`~repro.runtime.mp._Pool.shutdown`.
        """
        pool, self._pool = self._pool, None
        retained = list(self._plane_retained)
        self._plane_retained.clear()
        release_pins(retained)
        if pool is not None:
            pool.shutdown(graceful)

    def close(self) -> None:
        """Gracefully stop the pool, unlink every arena slab and empty
        the plan store."""
        self._stop(graceful=True)
        super().close()

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
        world, args, kwargs = self._begin(p, args, kwargs, run_pins)
        try:
            return self._dispatch(self._ensure_pool(world.size), world.gid,
                                  seed, program, args, kwargs, faults)
        except BaseException:
            self._stop(graceful=False)  # workers may be wedged mid-collective
            raise
        finally:
            self._retain_plane(run_pins)
