"""Tracer protocol: zero-overhead-when-off collective recording.

The BSP engine — driving generators, or on each multiprocess worker
settling its group's posted requests — calls :meth:`Tracer.on_collective`
after every executed collective, or :meth:`Tracer.on_merge` when fusion
merged it into its group's previous superstep (the only source of an
event's ``fused`` kinds), and the run's driver calls
:meth:`Tracer.on_finish` once all ranks have terminated —
guarded by the ``enabled`` flag, so an untraced run pays one attribute
check per collective and nothing else (:class:`NullTracer`, the default, makes
untraced runs byte-identical to the pre-trace engine).

:class:`RecordingTracer` turns the hook stream into canonical
:class:`~repro.trace.events.TraceEvent` records.  It is fed *cumulative*
post-collective counter snapshots (which both backends can produce
bit-identically) and derives the per-superstep deltas itself via
:func:`~repro.trace.events.exact_delta`, maintaining a per-rank
reconstruction sum so that replaying the deltas reproduces every
snapshot exactly.  Lamport steps and per-group sequence numbers depend
only on per-rank program order, so the canonical event sequence is
identical across backends no matter how the scheduler interleaved the
groups.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.trace.events import FINAL, TraceEvent, exact_delta

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "RecordingTracer",
           "Snapshot"]

#: A cumulative counter snapshot: (ops, words_sent, words_recv, misses,
#: wait_ops, supersteps) — the tuple ``ProcCounters.snapshot()`` returns.
Snapshot = tuple[float, float, float, float, float, int]


class Tracer:
    """Recording protocol; the engine only ever checks ``enabled`` first."""

    #: Hot-path guard: when False the engine skips every hook call (and
    #: the per-collective ``payload_words`` accounting that feeds it).
    enabled: bool = False

    def on_collective(
        self,
        kind: str,
        gid: int,
        participants: tuple[int, ...],
        words: int,
        snapshots: Sequence[Snapshot],
        wall_s: float = 0.0,
        clean: tuple[bool, ...] = (),
    ) -> None:
        """One collective executed; ``snapshots`` are the participants'
        cumulative post-collective counters, aligned with ``participants``.
        ``clean`` is each participant's arrival cleanliness (no local
        charges since its previous sync — the fusion precondition)."""

    def on_merge(
        self,
        kind: str,
        gid: int,
        participants: tuple[int, ...],
        words: int,
        snapshots: Sequence[Snapshot],
        wall_s: float = 0.0,
    ) -> None:
        """A collective executed *inside* the group's previous superstep
        (adjacent fusion): extend that superstep's event in place rather
        than recording a new one.  Only ever called for a gid whose last
        recorded event is still the group's current superstep."""

    def on_finish(self, snapshots: Sequence[Snapshot],
                  wall_s: float = 0.0) -> None:
        """All ranks terminated; ``snapshots`` are the final cumulative
        counters of ranks ``0..p-1``."""

    def events(self) -> list[TraceEvent]:
        """The recorded events in canonical ``(step, gid, gseq)`` order."""
        return []

    def __len__(self) -> int:
        return 0


class NullTracer(Tracer):
    """The default no-op tracer: tracing off, zero overhead."""


#: Shared default instance (stateless, so sharing is safe).
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Records every collective as a :class:`TraceEvent`.

    A tracer may span several engine runs (e.g. a backend instance reused
    across algorithm calls): :meth:`on_finish` closes a run and resets
    the per-rank accumulators while keeping the Lamport clocks strictly
    increasing, so events of consecutive runs never interleave under the
    canonical order.  The aggregation invariant applies per run (each
    run's events end at its FINAL record).
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._clock: dict[int, int] = {}    # rank -> Lamport step
        self._gseq: dict[int, int] = {}     # gid -> next sequence number
        #: rank -> [ops, sent, recv, misses, wait] reconstruction sums;
        #: kept bit-equal to the last snapshot via exact_delta.
        self._sums: dict[int, list[float]] = {}
        #: gid -> (index of the group's last event in ``_events``, per-rank
        #: pre-event reconstruction sums).  Floating deltas cannot be
        #: un-applied bit-exactly, so a merge restores the sums captured
        #: *before* the event and re-derives deltas against the new
        #: snapshots.  The pre-sums stay valid across chained merges.
        self._last_by_gid: dict[int, tuple[int, dict[int, list[float]]]] = {}

    # -- hooks ---------------------------------------------------------------

    def on_collective(self, kind, gid, participants, words, snapshots,
                      wall_s=0.0, clean=()) -> None:
        step = 1 + max((self._clock.get(r, 0) for r in participants),
                       default=0)
        gseq = self._gseq.get(gid, 0)
        self._gseq[gid] = gseq + 1
        pre = {r: list(self._sums.setdefault(r, [0.0] * 5))
               for r in participants}
        self._events.append(self._event(
            kind, gid, participants, words, step, gseq, snapshots, wall_s,
            clean=clean,
        ))
        self._last_by_gid[gid] = (len(self._events) - 1, pre)
        for r in participants:
            self._clock[r] = step

    def on_merge(self, kind, gid, participants, words, snapshots,
                 wall_s=0.0) -> None:
        idx, pre = self._last_by_gid[gid]
        old = self._events[idx]
        for r in participants:
            self._sums[r] = list(pre[r])
        # Same superstep: step/gseq/clocks are untouched; the event is
        # rebuilt against the new cumulative snapshots with the original
        # pre-superstep sums, so aggregation stays bit-exact.
        self._events[idx] = self._event(
            old.kind, gid, participants, old.words + int(words),
            old.step, old.gseq, snapshots, old.wall_s + wall_s,
            fused=(old.fused or (old.kind,)) + (kind,),
            clean=old.clean,
        )

    def on_finish(self, snapshots, wall_s=0.0) -> None:
        participants = tuple(range(len(snapshots)))
        step = 1 + max((self._clock.get(r, 0) for r in participants),
                       default=0)
        gseq = self._gseq.get(0, 0)
        self._gseq[0] = gseq + 1
        self._events.append(self._event(
            FINAL, 0, participants, 0, step, gseq, snapshots, wall_s,
        ))
        # Close the run: fresh counters next run, clocks keep increasing,
        # and no event of this run can absorb a later run's collective.
        self._sums.clear()
        self._last_by_gid.clear()
        for r in participants:
            self._clock[r] = step

    # -- internals -----------------------------------------------------------

    def _event(self, kind, gid, participants, words, step, gseq,
               snapshots, wall_s, fused=(), clean=()) -> TraceEvent:
        d_ops, d_sent, d_recv, d_misses, d_wait, sss = [], [], [], [], [], []
        for r, snap in zip(participants, snapshots):
            ops, sent, recv, misses, wait, supersteps = snap
            sums = self._sums.setdefault(r, [0.0] * 5)
            for slot, cur, out in (
                (0, ops, d_ops), (1, sent, d_sent), (2, recv, d_recv),
                (3, misses, d_misses), (4, wait, d_wait),
            ):
                d = exact_delta(sums[slot], cur)
                sums[slot] += d
                out.append(d)
            sss.append(int(supersteps))
        return TraceEvent(
            kind=kind, gid=gid, participants=tuple(participants),
            words=int(words), step=step, gseq=gseq,
            supersteps=tuple(sss),
            d_ops=tuple(d_ops), d_sent=tuple(d_sent), d_recv=tuple(d_recv),
            d_misses=tuple(d_misses), d_wait=tuple(d_wait),
            wall_s=float(wall_s), fused=tuple(fused),
            clean=tuple(bool(c) for c in clean),
        )

    # -- access --------------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        return sorted(self._events, key=TraceEvent.order_key)

    def __len__(self) -> int:
        return len(self._events)
