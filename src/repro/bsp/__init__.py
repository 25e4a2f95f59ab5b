"""Deterministic BSP machine simulator.

Stands in for the paper's MPI runtime on Piz Daint.  Virtual processors are
Python generators executing SPMD programs; a superstep engine matches
collective operations, moves the data, and charges every processor's cost
counters (local operations, communication volume, synchronization steps,
cache misses).  A :class:`MachineModel` converts the counters into predicted
execution and MPI time exactly in the spirit of the paper's constant-factor
performance model (§5.3).

The collectives mirror §2.1: ``broadcast``, ``reduce``, ``gather``,
``all-reduce``/``all-gather``, plus ``scatterv``/``alltoallv`` and
communicator ``split`` (used to run minimum-cut trials on processor groups
and to halve groups inside Recursive Contraction).  Every collective costs
O(1) supersteps, O(k) communication volume and time, and O(k/B + 1) cache
misses, as assumed by the paper.
"""

from repro.bsp.counters import ProcCounters, CountersReport
from repro.bsp.machine import MachineModel, TimeEstimate, fit_model
from repro.bsp.engine import Engine, Context
from repro.bsp.comm import Communicator
from repro.bsp.errors import BSPError, DeadlockError, CollectiveMismatchError
from repro.bsp.sort import distributed_sort
from repro.bsp.combine import combine_by_key

__all__ = [
    "ProcCounters",
    "CountersReport",
    "MachineModel",
    "TimeEstimate",
    "fit_model",
    "Engine",
    "Context",
    "Communicator",
    "BSPError",
    "DeadlockError",
    "CollectiveMismatchError",
    "distributed_sort",
    "combine_by_key",
]
