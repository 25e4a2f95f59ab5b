"""Keep-alive multiprocess backend whose rank 0 runs in a worker.

:class:`WarmMpBackend` is :class:`~repro.runtime.mp.MpBackend` — the
same pool handle: spawned on the first ``run()``, reused at the same
``p``, each run a small ``CMD_RUN`` down the pipes, graph-plane inputs
kept published over a ``plane_retain`` window, the whole pool discarded
on a failure or a ``p`` change — with one difference of layout: the pool
is ``p`` workers and the caller none of the ranks.  A program that
crashes its process then kills a worker, never the caller: the layout
the daemon (:mod:`repro.serve`) is built on.  Results, counters and
traces stay bit-identical to ``mp`` and the simulator.

Call :meth:`~repro.runtime.mp.MpBackend.close` (or use the backend as a
context manager) when done: it frees /dev/shm at a deterministic point.
"""

from __future__ import annotations

from repro.runtime.mp import DEFAULT_PLANE_RETAIN, MpBackend

__all__ = ["WarmMpBackend"]


class WarmMpBackend(MpBackend):
    """Multiprocess backend with every rank in a worker of its pool.

    Accepts every :class:`~repro.runtime.mp.MpBackend` parameter, and
    ``plane_retain``: how many distinct graphs stay published between
    runs.
    """

    name = "warm"
    here = False
    # Its own entry, so spans and profilers tell warm runs from mp runs.
    run = MpBackend.run

    def __init__(self, *, plane_retain: int = DEFAULT_PLANE_RETAIN, **kwargs):
        super().__init__(**kwargs)
        self.plane_retain = int(plane_retain)
