"""Execution backends: one SPMD program surface, multiple runtimes.

The algorithms in :mod:`repro.core` are SPMD generator programs written
against the :class:`~repro.bsp.comm.Communicator` collectives.  This
package decides *where* such a program runs:

* :class:`SimBackend` — the deterministic single-process BSP simulator
  (:mod:`repro.bsp.engine`), with analytic cost counters and the §5.3
  machine-model time estimate.  The correctness and cost oracle.
* :class:`MpBackend` — real OS processes settling each collective among
  its group's members in shared memory, with *measured* application/MPI
  time and bit-identical results and counters for a fixed seed.
* :class:`WarmMpBackend` — ``MpBackend`` with a keep-alive pool: spawn
  once, run many.  The serving-layer backend (:mod:`repro.serve`).

:func:`resolve_backend` maps a spec (``"sim"``/``"mp"``/``"warm"``/
instance/None) to a backend; ``tests/parity.py`` holds the backends to
each other.
"""

from repro.runtime.base import Backend, available_backends, resolve_backend
from repro.runtime.errors import (
    WorkerCrashError,
    WorkerFailure,
    WorkerProgramError,
    WorkerTimeoutError,
)
from repro.runtime.mp import MpBackend, default_start_method
from repro.runtime.sim import SimBackend
from repro.runtime.warm import WarmMpBackend

__all__ = [
    "Backend",
    "SimBackend",
    "MpBackend",
    "WarmMpBackend",
    "resolve_backend",
    "available_backends",
    "default_start_method",
    "WorkerFailure",
    "WorkerCrashError",
    "WorkerProgramError",
    "WorkerTimeoutError",
]
