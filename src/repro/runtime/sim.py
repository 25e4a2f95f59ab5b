"""The simulator backend: the deterministic single-process BSP engine.

A thin :class:`Backend` adapter over :class:`repro.bsp.engine.Engine` —
semantics, counters and the analytic §5.3 time estimate are exactly the
engine's.  This is the default backend and the correctness/cost oracle
the differential harness holds the real runtimes against.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.bsp.engine import Engine, RunResult
from repro.bsp.fusion import FusionConfig
from repro.bsp.machine import MachineModel
from repro.cache.model import CacheParams
from repro.faults import FaultInjector, FaultSpec
from repro.graph.shm import localize_plane
from repro.runtime.base import Backend
from repro.runtime.errors import WorkerCrashError, WorkerTimeoutError
from repro.trace.tracer import Tracer

__all__ = ["SimBackend"]


def _with_faults(program: Callable[..., Generator],
                 specs: Sequence[FaultSpec]) -> Callable[..., Generator]:
    """Wrap ``program`` so each rank fires its faults right before its
    ``step``-th collective, where the mp worker does: a ``work`` charge
    reaches the wait counters bit-identically to mp, and ``crash``/``drop``
    raise mp's typed errors directly (no process to kill, no timeout)."""

    @functools.wraps(program)
    def wrapped(ctx, *args, **kwargs):
        gen = program(ctx, *args, **kwargs)
        injector = FaultInjector(specs, ctx.rank)
        if not injector.active:
            return (yield from gen)
        step = 0
        inbox = None
        while True:
            try:
                op = gen.send(inbox)
            except StopIteration as stop:
                return stop.value
            for fault in injector.at(step):
                if fault.kind == "crash":
                    raise WorkerCrashError(ctx.rank, fault.exitcode,
                                           superstep=step)
                elif fault.kind == "work":
                    ctx.counters.charge(ops=fault.ops)
                elif fault.kind in ("stall", "delay"):
                    time.sleep(fault.seconds)
                elif fault.kind == "drop":
                    raise WorkerTimeoutError(
                        0.0, [ctx.rank], supersteps={ctx.rank: step})
            inbox = yield op
            step += 1

    return wrapped


class SimBackend(Backend):
    """Run SPMD programs on the single-process BSP simulator."""

    name = "sim"

    def __init__(
        self,
        *,
        cache: CacheParams | None = None,
        machine: MachineModel | None = None,
        tracer: Tracer | None = None,
        fuse: "bool | FusionConfig | None" = None,
    ):
        super().__init__()
        self.engine = Engine(cache=cache, machine=machine, tracer=tracer,
                             fuse=fuse)

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
        """Delegate to :meth:`Engine.run` (analytic ``TimeEstimate``).

        With ``faults``, the program is wrapped in a transparent fault
        injector (see :mod:`repro.faults`); without, the engine runs the
        program object untouched (zero-overhead fast path).
        """
        if faults:
            program = _with_faults(program, tuple(faults))
        # Graph-plane markers resolve locally: the simulator sees exactly
        # g.slices(p), so the plane is invisible to results and counters.
        args = localize_plane(tuple(args))
        kwargs = localize_plane(dict(kwargs or {}))
        return self.engine.run(program, p, seed=seed, args=args, kwargs=kwargs)
