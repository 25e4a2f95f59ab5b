"""The per-superstep trace event record and its exactness helper.

A :class:`TraceEvent` is one executed collective on one processor group:
which collective ran (``kind``/``gid``), who took part (``participants``,
global ranks in local-rank order), how much data moved (``words``), and —
per participating rank, aligned with ``participants`` — the counter
*deltas* accrued since that rank's previous synchronization (``d_ops``,
``d_sent``, ``d_recv``, ``d_misses``, ``d_wait``) plus the rank's
superstep index after the sync.  These are exactly the per-superstep
quantities the paper's evaluation plots (max local computation,
h-relation volume, cache misses, imbalance wait — the "time spent in
MPI" decomposition of Figures 1, 4 and 8).

One terminal event of kind :data:`FINAL` closes a run: it carries every
rank's residual charges between its last collective and program exit, so
that summing a rank's deltas over the whole stream reconstructs its
cumulative :class:`~repro.bsp.counters.ProcCounters` *bit-exactly* — the
``aggregate(trace) == CountersReport`` invariant the test suite enforces
with zero tolerance.

Exactness is by construction, not by luck: floating-point telescoping
(``(c1-c0) + (c2-c1) + ...``) does not round back to ``c_n`` in general,
so deltas are produced by :func:`exact_delta`, which returns a ``d`` such
that ``prev + d`` rounds to *exactly* the target cumulative value.

``step`` is a Lamport clock over the collective DAG (each event is one
plus the largest step any participant has seen), which depends only on
the per-rank program order — never on scheduler interleaving — so the
canonical event order ``(step, gid, gseq)`` is identical across the
simulator and the multiprocess backend for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TraceEvent", "FINAL", "exact_delta"]

#: Kind of the terminal flush event closing a traced run.
FINAL = "final"


@dataclass(frozen=True)
class TraceEvent:
    """One executed collective (or the terminal flush) of a traced run."""

    kind: str                       # collective kind, or FINAL
    gid: int                        # group id (0 for the FINAL event)
    participants: tuple[int, ...]   # global ranks, in local-rank order
    words: int                      # total payload words moved
    step: int = 0                   # Lamport step over the collective DAG
    gseq: int = 0                   # sequence number within this group
    #: Per-participant superstep index after this synchronization
    #: (1-based; unchanged by the FINAL event).
    supersteps: tuple[int, ...] = ()
    # Per-participant counter deltas since that rank's previous sync,
    # aligned with ``participants``; exact per ``exact_delta``.
    d_ops: tuple[float, ...] = ()
    d_sent: tuple[float, ...] = ()
    d_recv: tuple[float, ...] = ()
    d_misses: tuple[float, ...] = ()
    d_wait: tuple[float, ...] = ()
    #: Wall-clock seconds since the recording mp worker's previous
    #: collective (the run's wall, on FINAL); 0.0 under the simulator.
    #: Excluded from cross-backend trace comparisons, like TimeEstimate.
    wall_s: float = 0.0
    #: For a superstep the engine's automatic adjacent merge fused: the
    #: kinds of every collective that ran inside it, in execution order.
    #: ``kind`` holds the first; empty for an ordinary single-collective
    #: superstep.
    fused: tuple[str, ...] = ()
    #: Per-participant *arrival cleanliness*, aligned with ``participants``:
    #: True when the rank reached this collective with zero local charges
    #: (ops, misses) since its previous synchronization.  This is the
    #: engine's fusion precondition recorded verbatim — the offline
    #: analyzer cannot infer it from the deltas, because ``d_ops`` /
    #: ``d_misses`` also contain the collective's own charges.  Empty for
    #: the FINAL event.
    clean: tuple[bool, ...] = ()

    @property
    def is_final(self) -> bool:
        """Whether this is the terminal flush record of a run."""
        return self.kind == FINAL

    def order_key(self) -> tuple[int, int, int]:
        """The canonical (deterministic, causality-respecting) sort key."""
        return (self.step, self.gid, self.gseq)


def exact_delta(prev: float, cur: float) -> float:
    """A delta ``d`` with ``prev + d == cur`` exactly in double rounding.

    ``cur - prev`` already satisfies this for almost every pair (counters
    are non-negative and non-decreasing, so the difference is well
    conditioned); when one rounding boundary conspires against us the
    result is nudged by ulps until the reconstruction lands exactly.
    This is what makes trace aggregation equal the live counters with
    zero tolerance instead of "up to rounding".
    """
    d = cur - prev
    if prev + d == cur:
        return d
    target = math.inf if prev + d < cur else -math.inf
    while prev + d != cur:
        d = math.nextafter(d, target)
    return d
