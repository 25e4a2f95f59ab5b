"""The execution-backend protocol shared by the simulator and real runtimes.

A :class:`Backend` executes an **unmodified SPMD generator program** — the
same ``program(ctx, *args, **kwargs)`` generators the BSP simulator runs —
and returns the engine's :class:`~repro.bsp.engine.RunResult` shape:
per-rank return values, an aggregated :class:`~repro.bsp.counters.CountersReport`,
and a :class:`~repro.bsp.machine.TimeEstimate` (analytic for the simulator,
measured wall-clock for real runtimes).

Entry points accept a backend *spec*: an existing :class:`Backend`
instance, a registered name (``"sim"``, ``"mp"``), or ``None`` for the
default simulator.  :func:`resolve_backend` performs that resolution;
whoever resolves a name owns the instance and closes it on return
(:func:`owned_backend`, :func:`owns_backend`).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable,
                    Iterator, Sequence)

from repro.bsp.engine import RunResult
from repro.cache.store import BoundedLRU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultSpec
    from repro.trace.tracer import Tracer

__all__ = ["Backend", "resolve_backend", "owned_backend", "owns_backend",
           "available_backends"]


class Backend(ABC):
    """An executor for SPMD generator programs."""

    #: Registry name (``"sim"``, ``"mp"``); set by subclasses.
    name: str = "abstract"

    def __init__(self):
        #: The last 64 2-out plans built on this backend, keyed and
        #: replayed by :func:`~repro.core.two_out.two_out_minimum_cut`.
        #: Per instance: a plan carries the time and trace of the
        #: dispatch that built it.
        self.plans = BoundedLRU(64)

    @abstractmethod
    def run(
        self,
        program: Callable[..., Generator],
        p: int,
        *,
        seed: int = 0,
        args: Iterable[Any] = (),
        kwargs: dict | None = None,
        faults: "Sequence[FaultSpec] | None" = None,
    ) -> RunResult:
        """Execute ``program(ctx, *args, **kwargs)`` on ``p`` processors.

        Deterministic given ``seed``: every backend returns byte-identical
        per-rank values and counters (the simulator is the oracle).
        ``faults`` injects :class:`~repro.faults.FaultSpec` records at the
        superstep seam, surfacing as the same typed
        :class:`~repro.runtime.errors.WorkerFailure` on every backend;
        ``None`` (the default) is a zero-overhead fast path.
        """

    def close(self) -> None:
        """Release long-lived resources (a worker pool, the plan store);
        idempotent."""
        self.plans.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def available_backends() -> dict[str, type]:
    """Name -> class map of the registered backends."""
    from repro.runtime.mp import MpBackend
    from repro.runtime.sim import SimBackend
    from repro.runtime.warm import WarmMpBackend

    return {SimBackend.name: SimBackend, MpBackend.name: MpBackend,
            WarmMpBackend.name: WarmMpBackend}


def resolve_backend(
    backend: "str | Backend | None" = None,
    *,
    tracer: "Tracer | None" = None,
    fuse=None,
) -> Backend:
    """Resolve a backend spec (name, instance or ``None``) to an instance.

    ``tracer`` and ``fuse`` (a bool or
    :class:`~repro.bsp.fusion.FusionConfig`) configure a backend built from
    a name; an instance carries its own, so passing either with one is an
    error.  A custom machine model or cache geometry goes on the instance.
    """
    if isinstance(backend, Backend):
        if tracer is not None:
            raise ValueError(
                "a backend instance carries its own tracer; pass tracer= "
                "only with a backend name (or None)"
            )
        if fuse is not None:
            raise ValueError(
                "a backend instance carries its own fusion config; pass "
                "fuse= only with a backend name (or None)"
            )
        return backend
    if backend is None or backend == "sim":
        from repro.runtime.sim import SimBackend

        return SimBackend(tracer=tracer, fuse=fuse)
    registry = available_backends()
    if isinstance(backend, str) and backend in registry:
        kw = {}
        if tracer is not None:
            kw["tracer"] = tracer
        if fuse is not None:
            kw["fuse"] = fuse
        return registry[backend](**kw)
    raise ValueError(
        f"unknown backend {backend!r}; available: {sorted(registry)}"
    )


@contextmanager
def owned_backend(backend: "str | Backend | None" = None,
                  **kw) -> Iterator[Backend]:
    """:func:`resolve_backend` for one call: an instance built here from a
    name (or ``None``) is closed on exit, its worker pool with it; an
    instance passed in stays the caller's."""
    runtime = resolve_backend(backend, **kw)
    try:
        yield runtime
    finally:
        if runtime is not backend:
            runtime.close()


def owns_backend(fn: Callable) -> Callable:
    """Decorate an entry point: its ``backend=`` spec is resolved by
    :func:`owned_backend` around the call."""

    @functools.wraps(fn)
    def call(*args, backend=None, **kwargs):
        with owned_backend(backend) as runtime:
            return fn(*args, backend=runtime, **kwargs)

    return call
