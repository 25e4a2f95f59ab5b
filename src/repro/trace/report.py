"""Trace aggregation and summarization.

:func:`aggregate_trace` folds a per-superstep event stream back into the
run-level :class:`~repro.bsp.counters.CountersReport`.  The cornerstone
invariant — enforced with zero tolerance by ``tests/test_trace_invariants``
— is::

    aggregate_trace(result.trace) == result.report

for every algorithm, backend and seed.  It holds bit-exactly because the
recorded deltas are exact by construction (:func:`~repro.trace.events
.exact_delta`) and both the tracer and this aggregator fold each rank's
deltas in the same canonical order.

The summary helpers condense a trace the way the paper's evaluation
reads one: collective counts per kind, an h-relation volume histogram,
and the top-k heaviest supersteps by local computation or communication
volume (Figures 1, 4, 8).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.bsp.counters import CountersReport, ProcCounters
from repro.trace.events import FINAL, TraceEvent

__all__ = [
    "aggregate_trace",
    "kind_counts",
    "volume_histogram",
    "heaviest_events",
    "format_summary",
]


def aggregate_trace(events: Sequence[TraceEvent]) -> CountersReport:
    """Rebuild the run's :class:`CountersReport` from its trace.

    Applies to the trace of a *single* run (one FINAL record); folding a
    multi-run trace would sum the runs' counters together.
    """
    events = sorted(events, key=TraceEvent.order_key)
    if not events:
        raise ValueError("cannot aggregate an empty trace")
    p = 1 + max(r for ev in events for r in ev.participants)
    procs = [ProcCounters() for _ in range(p)]
    for ev in events:
        for i, r in enumerate(ev.participants):
            c = procs[r]
            c.ops += ev.d_ops[i]
            c.words_sent += ev.d_sent[i]
            c.words_recv += ev.d_recv[i]
            c.misses += ev.d_misses[i]
            c.wait_ops += ev.d_wait[i]
            if ev.kind != FINAL:
                c.supersteps += 1
                if c.supersteps != ev.supersteps[i]:
                    raise ValueError(
                        f"rank {r}: superstep index {ev.supersteps[i]} in "
                        f"event (step={ev.step}, gid={ev.gid}) does not "
                        f"match its position {c.supersteps} in the stream "
                        "— trace is incomplete or out of order"
                    )
    return CountersReport.from_procs(procs)


def kind_counts(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Executed-collective counts per kind (FINAL records excluded); a
    fused superstep counts every collective merged into it."""
    return dict(Counter(k for ev in events if ev.kind != FINAL
                        for k in ev.fused or (ev.kind,)))


def volume_histogram(events: Iterable[TraceEvent]) -> list[tuple[int, int, int]]:
    """Histogram of per-collective payload words in power-of-two buckets.

    Returns ``(lo, hi, count)`` rows covering ``lo <= words < hi``; the
    first bucket is the exact-zero one (barriers, splits).
    """
    zeros = 0
    buckets: Counter[int] = Counter()
    for ev in events:
        if ev.kind == FINAL:
            continue
        if ev.words == 0:
            zeros += 1
        else:
            buckets[max(0, ev.words.bit_length() - 1)] += 1
    rows = []
    if zeros:
        rows.append((0, 1, zeros))
    for b in sorted(buckets):
        rows.append((1 << b, 1 << (b + 1), buckets[b]))
    return rows


def heaviest_events(events: Iterable[TraceEvent], k: int = 5,
                    by: str = "ops") -> list[TraceEvent]:
    """The ``k`` heaviest supersteps: ``by="ops"`` ranks by the maximum
    per-rank local computation since the previous sync (the paper's
    bottleneck metric), ``by="words"`` by h-relation volume."""
    if by == "ops":
        def weight(ev: TraceEvent) -> float:
            return max(ev.d_ops, default=0.0)
    elif by == "words":
        def weight(ev: TraceEvent) -> float:
            return float(ev.words)
    else:
        raise ValueError(f"unknown ranking {by!r}; use 'ops' or 'words'")
    real = [ev for ev in events if ev.kind != FINAL]
    return sorted(real, key=lambda ev: (-weight(ev),) + ev.order_key())[:k]


def format_summary(events: Sequence[TraceEvent], k: int = 5) -> str:
    """Human-readable trace digest: kinds, volume histogram, top-k steps."""
    events = sorted(events, key=TraceEvent.order_key)
    lines = ["trace summary"]
    counts = kind_counts(events)
    total = sum(counts.values())
    lines.append(f"  collectives: {total}")
    for kind in sorted(counts):
        lines.append(f"    {kind:<12}{counts[kind]:>8}")
    lines.append("  volume histogram (words/collective):")
    for lo, hi, count in volume_histogram(events):
        label = "0" if hi == 1 else f"[{lo}, {hi})"
        lines.append(f"    {label:<16}{count:>8}")
    top = heaviest_events(events, k=k, by="ops")
    if top:
        lines.append(f"  top-{len(top)} heaviest supersteps (max rank-local "
                     "ops since previous sync):")
        lines.append(f"    {'step':>6} {'kind':<10} {'group':>8} "
                     f"{'ranks':>6} {'max ops':>12} {'words':>10}")
        for ev in top:
            lines.append(
                f"    {ev.step:>6} {ev.kind:<10} {ev.gid:>8} "
                f"{len(ev.participants):>6} "
                f"{max(ev.d_ops, default=0.0):>12.1f} {ev.words:>10}"
            )
    return "\n".join(lines)
