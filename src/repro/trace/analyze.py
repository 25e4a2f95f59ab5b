"""Offline trace analysis: heavy supersteps and fusible sequences.

Consumes a recorded JSON-lines trace (``repro.cli --trace PATH``) and
answers the two questions the paper's evaluation methodology asks of a
run's superstep structure:

* **Where does the predicted time go?**  :func:`rank_supersteps` prices
  every superstep with the §5.3 machine model (local computation, cache
  misses, h-relation volume, imbalance wait, latency) and ranks the
  heaviest.
* **Which synchronizations are avoidable?**  :func:`find_fusible_runs`
  detects maximal runs of consecutive small collectives on the same group
  with *no intervening local work* — per-rank ``d_ops``/``d_misses`` of
  zero and no interleaved collective on any participant, the exact
  precondition under which the engine's adjacent fusion
  (``Engine(fuse=...)``, :mod:`repro.bsp.fusion`) merges them into one
  superstep.  :func:`fusion_plan` turns the runs into a JSON plan whose
  predicted savings can be checked against a re-run with fusion enabled.

The analyzer is deliberately *static*: it reads only the recorded deltas,
so replaying a blessed trace through it is deterministic and cheap — the
trace-replay test corpus pins both this module's output and the engine's
superstep structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.bsp.fusion import FUSABLE_KINDS, FusionConfig
from repro.bsp.machine import MachineModel
from repro.trace.events import FINAL, TraceEvent

__all__ = [
    "SuperstepCost",
    "FusibleRun",
    "rank_supersteps",
    "find_fusible_runs",
    "fusion_plan",
    "format_analysis",
]


def _trace_p(events: Sequence[TraceEvent]) -> int:
    """Processor count of the traced run (max participating rank + 1)."""
    return 1 + max((r for ev in events for r in ev.participants), default=0)


def _collective_count(ev: TraceEvent) -> int:
    """How many program-level collectives this event represents (a fused
    superstep counts every merged sub-collective)."""
    return len(ev.fused) if ev.fused else 1


@dataclass(frozen=True)
class SuperstepCost:
    """One superstep priced by the machine model (seconds)."""

    event: TraceEvent
    app_s: float      # max rank-local computation + cache misses
    volume_s: float   # h-relation transfer
    wait_s: float     # max imbalance wait
    latency_s: float  # the superstep's L x log p charge

    @property
    def total_s(self) -> float:
        """Predicted seconds attributed to this superstep."""
        return self.app_s + self.volume_s + self.wait_s + self.latency_s


def rank_supersteps(
    events: Sequence[TraceEvent],
    *,
    machine: MachineModel | None = None,
    k: int = 10,
) -> list[SuperstepCost]:
    """The ``k`` heaviest supersteps by predicted machine-model seconds.

    Prices each non-FINAL event exactly as
    :meth:`~repro.bsp.machine.MachineModel.predict` prices the whole run
    (the per-superstep terms sum to the run prediction minus the constant
    overhead), so the ranking answers "which synchronization points
    dominate the predicted wall clock".
    """
    machine = machine or MachineModel()
    p = _trace_p(events)
    logp = max(1.0, math.log2(max(p, 1)))
    costs = []
    for ev in sorted(events, key=TraceEvent.order_key):
        if ev.kind == FINAL:
            continue
        costs.append(SuperstepCost(
            event=ev,
            app_s=(max(ev.d_ops, default=0.0) * machine.op_s
                   + max(ev.d_misses, default=0.0) * machine.miss_s),
            volume_s=ev.words * machine.g_s * logp,
            wait_s=max(ev.d_wait, default=0.0) * machine.op_s,
            latency_s=machine.L_s * logp,
        ))
    costs.sort(key=lambda c: (-c.total_s,) + c.event.order_key())
    return costs[:k]


@dataclass(frozen=True)
class FusibleRun:
    """A maximal run of adjacent collectives the engine could fuse.

    ``collectives`` counts program-level collectives (already-fused
    supersteps contribute their merged kinds), ``events`` the trace
    events; the run saves ``events - 1`` supersteps because fusion leaves
    exactly one synchronization standing.
    """

    gid: int
    start_step: int                # Lamport step of the first event
    start_gseq: int                # group sequence of the first event
    participants: tuple[int, ...]
    kinds: tuple[str, ...]         # program-level kinds, in order
    events: int
    collectives: int
    words: int                     # combined payload words
    saved_supersteps: int
    saved_s: float                 # latency seconds fusion would save


def find_fusible_runs(
    events: Sequence[TraceEvent],
    *,
    fuse: FusionConfig | None = None,
    machine: MachineModel | None = None,
) -> list[FusibleRun]:
    """Detect fusible sequences in a recorded trace.

    A run extends over consecutive events of one group where every event
    after the first was *arrived at clean* by every participant (the
    recorded ``TraceEvent.clean`` flags: zero local ops/miss charges since
    the rank's previous sync, hence no intervening data dependency the
    engine would have to respect), no participant took part in another
    group's collective in between, all kinds are fusable, and the combined
    payload stays within ``fuse.max_words`` / ``fuse.max_chain`` —
    precisely the conditions under which ``Engine(fuse=...)`` merges the
    run into one superstep.  Events without recorded cleanliness (traces
    from before the flag existed) are conservatively treated as dirty.
    """
    fuse = fuse or FusionConfig()
    machine = machine or MachineModel()
    p = _trace_p(events)
    logp = max(1.0, math.log2(max(p, 1)))
    ordered = [ev for ev in sorted(events, key=TraceEvent.order_key)
               if ev.kind != FINAL]
    last_seen: dict[int, int] = {}   # rank -> index of its last event
    runs: list[FusibleRun] = []
    cur: list[TraceEvent] | None = None
    cur_words = 0
    cur_count = 0

    def flush() -> None:
        nonlocal cur
        if cur is not None and len(cur) > 1:
            kinds = []
            for ev in cur:
                kinds.extend(ev.fused if ev.fused else (ev.kind,))
            runs.append(FusibleRun(
                gid=cur[0].gid,
                start_step=cur[0].step,
                start_gseq=cur[0].gseq,
                participants=cur[0].participants,
                kinds=tuple(kinds),
                events=len(cur),
                collectives=cur_count,
                words=cur_words,
                saved_supersteps=len(cur) - 1,
                saved_s=(len(cur) - 1) * machine.L_s * logp,
            ))
        cur = None

    for i, ev in enumerate(ordered):
        fusable = ev.kind in FUSABLE_KINDS and ev.words <= fuse.max_words
        if cur is not None:
            clean = bool(ev.clean) and all(ev.clean)
            adjacent = (
                ev.gid == cur[0].gid
                and all(last_seen.get(r) == i - 1 for r in ev.participants)
            )
            extends = (
                fusable and clean and adjacent
                and cur_words + ev.words <= fuse.max_words
                and cur_count + _collective_count(ev) <= fuse.max_chain
            )
            if extends:
                cur.append(ev)
                cur_words += ev.words
                cur_count += _collective_count(ev)
            else:
                flush()
        if cur is None and fusable:
            cur = [ev]
            cur_words = ev.words
            cur_count = _collective_count(ev)
        for r in ev.participants:
            last_seen[r] = i
    flush()
    return runs


def fusion_plan(
    events: Sequence[TraceEvent],
    *,
    fuse: FusionConfig | None = None,
    machine: MachineModel | None = None,
) -> dict:
    """JSON-able fusion plan: the runs plus their aggregate savings.

    The ``predicted`` block states what enabling ``Engine(fuse=...)`` on
    the same workload should change: superstep count drops by
    ``saved_supersteps`` while computation, volume and misses stay
    bit-identical (fusion only elides latency).
    """
    fuse = fuse or FusionConfig()
    runs = find_fusible_runs(events, fuse=fuse, machine=machine)
    supersteps = sum(1 for ev in events if ev.kind != FINAL)
    saved = sum(r.saved_supersteps for r in runs)
    return {
        "config": {"max_words": fuse.max_words, "max_chain": fuse.max_chain},
        "supersteps": supersteps,
        "fusible_runs": [
            {
                "gid": r.gid,
                "start_step": r.start_step,
                "start_gseq": r.start_gseq,
                "participants": list(r.participants),
                "kinds": list(r.kinds),
                "events": r.events,
                "collectives": r.collectives,
                "words": r.words,
                "saved_supersteps": r.saved_supersteps,
                "saved_s": r.saved_s,
            }
            for r in runs
        ],
        "predicted": {
            "saved_supersteps": saved,
            "supersteps_after": supersteps - saved,
            "saved_s": sum(r.saved_s for r in runs),
        },
    }


def format_analysis(
    events: Sequence[TraceEvent],
    *,
    machine: MachineModel | None = None,
    fuse: FusionConfig | None = None,
    k: int = 10,
) -> str:
    """Human-readable analyzer report: top-k supersteps + fusion plan."""
    machine = machine or MachineModel()
    top = rank_supersteps(events, machine=machine, k=k)
    plan = fusion_plan(events, fuse=fuse, machine=machine)
    lines = ["trace analysis"]
    lines.append(f"  supersteps: {plan['supersteps']}")
    lines.append(f"  top-{len(top)} heaviest supersteps (predicted seconds):")
    lines.append(f"    {'step':>6} {'kind':<12} {'group':>6} {'total':>12} "
                 f"{'app':>10} {'volume':>10} {'wait':>10} {'latency':>10}")
    for c in top:
        ev = c.event
        kind = "+".join(ev.fused) if ev.fused else ev.kind
        lines.append(
            f"    {ev.step:>6} {kind[:12]:<12} {ev.gid:>6} "
            f"{c.total_s:>12.3e} {c.app_s:>10.3e} {c.volume_s:>10.3e} "
            f"{c.wait_s:>10.3e} {c.latency_s:>10.3e}"
        )
    runs = plan["fusible_runs"]
    lines.append(f"  fusible runs: {len(runs)} "
                 f"(saving {plan['predicted']['saved_supersteps']} supersteps"
                 f", {plan['predicted']['saved_s']:.3e}s predicted)")
    for r in runs:
        lines.append(
            f"    group {r['gid']:>4} @step {r['start_step']:>5}: "
            f"{'+'.join(r['kinds'])} "
            f"({r['words']} words, -{r['saved_supersteps']} supersteps)"
        )
    return "\n".join(lines)
