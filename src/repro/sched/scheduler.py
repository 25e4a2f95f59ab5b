"""The fault-tolerant dispatch loop over the trial ledger.

:class:`TrialScheduler` owns *policy* — wave sizing, retry budget,
exponential backoff with deterministic jitter, checkpointing cadence and
the fault plan under test — while the execution backends own *mechanism*.
One :meth:`TrialScheduler.run` call:

1. plans the trial budget (:func:`~repro.core.trials.num_trials`) or
   resumes a :class:`~repro.sched.ledger.TrialLedger` checkpoint;
2. splits the pending trial ids into waves and dispatches each wave as
   one ``backend.run`` of
   :func:`~repro.core.mincut.mincut_trials_program`;
3. on a :class:`~repro.runtime.errors.WorkerFailure` stamps the in-flight
   trial ids onto the error, sleeps the backoff, and re-dispatches the
   wave — the retry recomputes the exact bits the lost run would have
   produced, because each trial's RNG stream is keyed by its global id;
4. records per-trial results in the ledger (checkpointed after every
   wave) and finally folds the minimum in trial-id order, reporting the
   *achieved* success probability
   (:func:`~repro.core.trials.achieved_success_probability`) computed
   from the trials that actually completed.

Scheduler activity is surfaced as trace events (kinds
:data:`SCHED_DISPATCH` / :data:`SCHED_RETRY`) with **no participants and
zero deltas**, so they are invisible to
:func:`~repro.trace.report.aggregate_trace` — each dispatch's slice of
the combined trace still reconciles bit-exactly against that dispatch's
counters (:func:`split_trace` recovers the slices).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bsp.counters import CountersReport, ProcCounters
from repro.bsp.machine import TimeEstimate
from repro.core.mincut import mincut_trials_program
from repro.core.trials import achieved_success_probability, num_trials
from repro.faults import FaultPlan
from repro.graph.fingerprint import cached_fingerprint
from repro.graph.shm import plane_slices
from repro.rng.streams import RngStreams
from repro.runtime.base import Backend, resolve_backend
from repro.runtime.errors import WorkerFailure
from repro.sched.ledger import TrialLedger
from repro.trace.events import TraceEvent

__all__ = [
    "SCHED_DISPATCH",
    "SCHED_RETRY",
    "ScheduledMinCut",
    "TrialRun",
    "TrialScheduler",
    "merge_reports",
    "split_trace",
    "wait_by_rank",
    "detect_stragglers",
]

logger = logging.getLogger(__name__)

#: Trace-event kind marking the start of one wave dispatch (gid = wave
#: index, gseq = attempt number, words = number of trial ids dispatched).
SCHED_DISPATCH = "sched:dispatch"

#: Trace-event kind marking a failed attempt about to be retried.
SCHED_RETRY = "sched:retry"


def _sched_event(kind: str, wave: int, attempt: int, count: int) -> TraceEvent:
    """A scheduler marker event: no participants, zero deltas — a no-op
    for trace aggregation, a wave/attempt boundary for readers."""
    return TraceEvent(kind=kind, gid=wave, participants=(), words=count,
                      gseq=attempt)


def split_trace(events: Sequence[TraceEvent]) -> list[list[TraceEvent]]:
    """Split a scheduled run's combined trace at dispatch boundaries.

    Returns one event list per *successful* dispatch, with the scheduler
    marker events removed; each slice individually satisfies
    ``aggregate_trace(slice) == that dispatch's CountersReport`` (the
    slices cannot be aggregated together: per-rank superstep indices
    restart at every dispatch).
    """
    pieces: list[list[TraceEvent]] = []
    current: list[TraceEvent] | None = None
    for ev in events:
        if ev.kind == SCHED_DISPATCH:
            current = []
            pieces.append(current)
        elif ev.kind == SCHED_RETRY:
            continue
        elif current is not None:
            current.append(ev)
    return [piece for piece in pieces if piece]


def wait_by_rank(events: Sequence[TraceEvent]) -> dict[int, float]:
    """Total imbalance wait accrued per rank over a trace (op units)."""
    waits: dict[int, float] = {}
    for ev in events:
        for i, r in enumerate(ev.participants):
            waits[r] = waits.get(r, 0.0) + ev.d_wait[i]
    return waits


def detect_stragglers(
    events: Sequence[TraceEvent],
    *,
    factor: float = 4.0,
    min_deficit_ops: float = 1000.0,
) -> list[int]:
    """Ranks the others spent disproportionate time waiting for.

    The wait delta of a superstep's *slowest* rank is zero — everyone
    else's measures how long they idled for it — so a straggler shows up
    as a rank whose **total wait is far below** its peers'.  A rank is
    flagged when the maximum total wait exceeds both ``factor`` times its
    own and ``min_deficit_ops`` more than its own (the absolute floor
    keeps balanced runs with tiny waits from producing noise flags).
    Deterministic on ops-based wait counters: an injected ``work`` fault
    is flagged identically on the simulator and the mp backend.
    """
    waits = wait_by_rank(events)
    if len(waits) < 2:
        return []
    top = max(waits.values())
    return sorted(
        r for r, w in waits.items()
        if w * factor < top and top - w >= min_deficit_ops
    )


def merge_reports(reports: list[CountersReport]) -> CountersReport:
    """Sequential composition of per-dispatch reports (field-wise sums).

    Per-dispatch maxima are summed, which upper-bounds the true max of
    the summed per-rank totals; ``p`` is the maximum over dispatches
    (waves may in principle run at different widths).  Public because the
    2-out pipeline composes its preprocessing dispatch with the
    per-replica trial dispatches the same way.
    """
    return CountersReport(
        p=max(r.p for r in reports),
        computation=sum(r.computation for r in reports),
        volume=sum(r.volume for r in reports),
        supersteps=sum(r.supersteps for r in reports),
        misses=sum(r.misses for r in reports),
        wait=sum(r.wait for r in reports),
        total_ops=sum(r.total_ops for r in reports),
        total_volume=sum(r.total_volume for r in reports),
    )


@dataclass(frozen=True)
class ScheduledMinCut:
    """Result of a scheduled (fault-tolerant) minimum-cut run."""

    value: float
    side: np.ndarray | None
    trials: int                      # planned trial budget
    completed: int                   # trials with a recorded result
    requested_success_prob: float
    achieved_success_prob: float     # recomputed from `completed`
    ledger: TrialLedger
    report: CountersReport
    time: TimeEstimate
    dispatches: int                  # successful wave dispatches
    retries: int                     # failed attempts that were retried
    #: Combined trace (scheduler markers + per-dispatch events) when the
    #: backend traced, else None.  Use :func:`split_trace` to recover the
    #: per-dispatch slices for aggregation.
    trace: list | None = None
    #: wave index -> ranks flagged by :func:`detect_stragglers` (traced
    #: runs only; empty dict otherwise).
    stragglers: dict[int, list[int]] | None = None
    #: Collect-all runs: every distinct minimum-cut witness discovered,
    #: in canonical order; ``None`` for single-witness runs.
    sides: list[np.ndarray] | None = None


@dataclass
class TrialRun:
    """Open state of one scheduled run between ``begin`` and ``finish``.

    Produced by :meth:`TrialScheduler.begin`; advanced one wave at a time
    by :meth:`TrialScheduler.run_wave`; folded by
    :meth:`TrialScheduler.finish`.  Multi-tenant callers (the serve
    daemon) hold many of these open at once and interleave their waves
    through a single shared backend.
    """

    scheduler: "TrialScheduler"
    runtime: Backend
    p: int
    seed: int
    n: int
    m: int
    success_prob: float
    trials: int
    collect_all: bool
    checkpoint: str | None
    ledger: TrialLedger
    slices: object  # PlaneSlices marker; backends stage or localize it
    waves: list[list[int]]
    jitter_rng: np.random.Generator
    # -- accumulators, advanced by run_wave ----------------------------------
    reports: list[CountersReport] = None
    app_s: float = 0.0
    mpi_s: float = 0.0
    events: list[TraceEvent] = None
    traced_any: bool = False
    stragglers: dict[int, list[int]] = None
    dispatches: int = 0
    retries: int = 0
    next_wave: int = 0

    def __post_init__(self):
        if self.reports is None:
            self.reports = []
        if self.events is None:
            self.events = []
        if self.stragglers is None:
            self.stragglers = {}

    @property
    def done(self) -> bool:
        """Whether every wave has been dispatched."""
        return self.next_wave >= len(self.waves)

    def step(self) -> bool:
        """Dispatch the next wave; returns False once all waves ran."""
        if self.done:
            return False
        self.scheduler.run_wave(self, self.next_wave)
        self.next_wave += 1
        return True


class TrialScheduler:
    """Dispatch policy for fault-tolerant Monte-Carlo trial runs.

    Parameters
    ----------
    max_retries:
        Failed attempts a wave may accumulate before the scheduler gives
        up on it (0 disables retry).
    backoff_s / backoff_factor / backoff_jitter:
        Sleep before attempt ``k``'s retry is
        ``backoff_s * backoff_factor**k`` scaled by a deterministic
        jitter draw in ``[1, 1 + backoff_jitter]`` (Philox stream derived
        from the master seed, so even sleep schedules replay).
    wave_size:
        Trials per dispatch.  ``None`` (default) dispatches all pending
        trials as a single wave — the zero-overhead shape: one extra
        ``gather`` versus one ``mincut_program`` dispatch.  Smaller waves
        trade throughput for finer checkpoint/retry granularity.
    checkpoint:
        Ledger JSONL path, written atomically after every wave (and on a
        wave's terminal failure).  Required for ``resume=True``.
    fault_plan:
        :class:`~repro.faults.FaultPlan` narrowed per ``(wave, attempt)``
        and handed to the backend — the deterministic failure testbed.
    on_failure:
        ``"raise"`` (default): re-raise a wave's error once retries are
        exhausted.  ``"continue"``: mark the wave's trials failed and
        keep going; the final result then reports the honest (smaller)
        achieved success probability over the trials that completed.
    sleep:
        Injectable sleep (tests pass a recorder to assert the backoff
        schedule without waiting it out).
    """

    def __init__(
        self,
        *,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.1,
        wave_size: int | None = None,
        checkpoint: str | None = None,
        fault_plan: FaultPlan | None = None,
        on_failure: str = "raise",
        sleep=time.sleep,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0 or backoff_factor < 1.0 or backoff_jitter < 0:
            raise ValueError(
                "need backoff_s >= 0, backoff_factor >= 1, "
                f"backoff_jitter >= 0; got {backoff_s}, {backoff_factor}, "
                f"{backoff_jitter}"
            )
        if wave_size is not None and wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        if on_failure not in ("raise", "continue"):
            raise ValueError(
                f"on_failure must be 'raise' or 'continue', got {on_failure!r}"
            )
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.backoff_jitter = float(backoff_jitter)
        self.wave_size = wave_size
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        self.on_failure = on_failure
        self.sleep = sleep

    # -- helpers -------------------------------------------------------------

    def backoff_delay(self, attempt: int, jitter_draw: float) -> float:
        """Sleep before re-dispatching after failed attempt ``attempt``."""
        base = self.backoff_s * (self.backoff_factor ** attempt)
        return base * (1.0 + self.backoff_jitter * jitter_draw)

    def _ledger_for(self, *, trials: int, n: int, m: int, seed: int,
                    resume: bool, checkpoint: str | None = None,
                    graph_fp: str | None = None) -> TrialLedger:
        checkpoint = checkpoint if checkpoint is not None else self.checkpoint
        if resume:
            if not checkpoint:
                raise ValueError(
                    "resume=True needs a checkpoint path on the scheduler"
                )
            ledger = TrialLedger.load(checkpoint)
            if not ledger.matches(trials=trials, n=n, m=m, seed=seed,
                                  graph_fp=graph_fp):
                raise ValueError(
                    f"checkpoint {checkpoint!r} belongs to a different "
                    f"run: it has (seed={ledger.seed}, trials="
                    f"{ledger.trials}, n={ledger.n}, m={ledger.m}, "
                    f"graph_fp={ledger.graph_fp!r}), this run "
                    f"is (seed={seed}, trials={trials}, n={n}, m={m}, "
                    f"graph_fp={graph_fp!r})"
                )
            if ledger.graph_fp is None:
                ledger.graph_fp = graph_fp
            return ledger
        return TrialLedger(trials, n, m, seed, graph_fp=graph_fp)

    # -- steppable run -------------------------------------------------------
    #
    # ``run`` is ``begin`` + one ``run_wave`` per wave + ``finish``.  The
    # split exists for multi-tenant callers (the serve-layer daemon): they
    # hold many open :class:`TrialRun` states and interleave single waves
    # from different jobs through one backend.  Because every trial's RNG
    # stream is keyed by its global id, interleaving does not change any
    # result bit — it only reorders which dispatch computes which trial.

    def begin(
        self,
        g,
        p: int = 4,
        *,
        backend: "str | Backend | None" = None,
        seed: int = 0,
        success_prob: float = 0.9,
        trials: int | None = None,
        trial_scale: float = 1.0,
        resume: bool = False,
        collect_all: bool = False,
        checkpoint: str | None = None,
    ) -> "TrialRun":
        """Plan a scheduled run and return its open :class:`TrialRun` state.

        ``checkpoint`` overrides the scheduler-level checkpoint path for
        this run only (multi-tenant callers give every job its own ledger
        file while sharing one scheduler's policy knobs).
        """
        if g.n < 2:
            raise ValueError("minimum cut needs at least 2 vertices")
        runtime = resolve_backend(backend)
        n, m = g.n, max(g.m, 1)
        if trials is None:
            trials = num_trials(n, m, success_prob=success_prob,
                                scale=trial_scale)
        checkpoint = checkpoint if checkpoint is not None else self.checkpoint
        graph_fp = cached_fingerprint(g)
        ledger = self._ledger_for(trials=trials, n=n, m=m, seed=seed,
                                  resume=resume, checkpoint=checkpoint,
                                  graph_fp=graph_fp)
        slices = plane_slices(g, p)
        pending = ledger.pending_ids()
        size = self.wave_size or max(1, len(pending))
        waves = [pending[i:i + size] for i in range(0, len(pending), size)]
        # Jitter draws come from a seed-derived Philox stream disjoint
        # from every trial stream, so retry schedules replay exactly.
        jitter_rng = RngStreams(seed ^ 0x5EEDBACC).aux(0)
        return TrialRun(
            scheduler=self, runtime=runtime, p=p, seed=seed, n=n, m=m,
            success_prob=success_prob, trials=trials,
            collect_all=collect_all, checkpoint=checkpoint,
            ledger=ledger, slices=slices, waves=waves,
            jitter_rng=jitter_rng,
        )

    def run_wave(self, run: "TrialRun", wave: int) -> None:
        """Dispatch wave ``wave`` of ``run`` (with retries) and record it."""
        ledger, ids = run.ledger, run.waves[wave]
        attempt = 0
        while True:
            specs = (self.fault_plan.for_dispatch(wave, attempt)
                     if self.fault_plan else ())
            ledger.mark_running(ids, wave=wave)
            if run.checkpoint:
                ledger.save(run.checkpoint)
            run.events.append(
                _sched_event(SCHED_DISPATCH, wave, attempt, len(ids)))
            try:
                rr = run.runtime.run(
                    mincut_trials_program, run.p, seed=run.seed,
                    args=(run.slices, run.n, tuple(ids), run.seed),
                    kwargs={"collect_all": True} if run.collect_all else None,
                    faults=specs or None,
                )
            except WorkerFailure as exc:
                exc.attach_trials(ids)
                ledger.mark_pending(ids)
                run.events.pop()  # failed dispatch: drop its marker
                if attempt >= self.max_retries:
                    ledger.mark_failed(ids)
                    if run.checkpoint:
                        ledger.save(run.checkpoint)
                    if self.on_failure == "raise":
                        raise
                    logger.warning(
                        "wave %d failed after %d attempt(s); continuing "
                        "without trials %s: %s",
                        wave, attempt + 1, list(ids), exc,
                    )
                    break
                run.events.append(
                    _sched_event(SCHED_RETRY, wave, attempt, len(ids)))
                delay = self.backoff_delay(
                    attempt, float(run.jitter_rng.random()))
                logger.info(
                    "wave %d attempt %d failed (%s); retrying in %.3fs",
                    wave, attempt, exc, delay,
                )
                if delay > 0:
                    self.sleep(delay)
                attempt += 1
                run.retries += 1
                continue
            break
        if ledger.records[ids[0]].status == "failed":
            return  # on_failure="continue" path: wave abandoned

        for ti, value, payload in rr.root_value:
            if run.collect_all:
                cuts = payload
                witness = cuts[min(cuts)] if cuts else None
                ledger.record_done(ti, value, witness,
                                   sides=list(cuts.values()))
            else:
                ledger.record_done(ti, value, payload)
        if run.checkpoint:
            ledger.save(run.checkpoint)
        run.dispatches += 1
        run.reports.append(rr.report)
        run.app_s += rr.time.app_s
        run.mpi_s += rr.time.mpi_s
        if rr.trace is not None:
            run.traced_any = True
            run.events.extend(rr.trace)
            found = detect_stragglers(rr.trace)
            if found:
                run.stragglers[wave] = found
                logger.warning(
                    "wave %d straggler rank(s) %s: peers idled waiting "
                    "on them (trace wait deltas)", wave, found,
                )

    def finish(self, run: "TrialRun") -> ScheduledMinCut:
        """Fold ``run``'s ledger into the final :class:`ScheduledMinCut`."""
        ledger = run.ledger
        value, side = ledger.best()
        completed = ledger.completed
        if completed == 0:
            raise RuntimeError(
                "no trial completed: every wave failed and on_failure="
                "'continue' swallowed the errors"
            )
        report = (merge_reports(run.reports) if run.reports
                  else CountersReport.from_procs(
                      [ProcCounters() for _ in range(run.p)]))
        return ScheduledMinCut(
            value=value, side=side, trials=run.trials, completed=completed,
            requested_success_prob=run.success_prob,
            achieved_success_prob=achieved_success_probability(
                run.n, run.m, completed),
            ledger=ledger, report=report,
            time=TimeEstimate(app_s=run.app_s, mpi_s=run.mpi_s),
            dispatches=run.dispatches, retries=run.retries,
            trace=run.events if run.traced_any else None,
            stragglers=run.stragglers if run.traced_any else None,
            sides=ledger.min_cut_sides() if run.collect_all else None,
        )

    # -- main entry ----------------------------------------------------------

    def run(
        self,
        g,
        p: int = 4,
        *,
        backend: "str | Backend | None" = None,
        seed: int = 0,
        success_prob: float = 0.9,
        trials: int | None = None,
        trial_scale: float = 1.0,
        resume: bool = False,
        collect_all: bool = False,
    ) -> ScheduledMinCut:
        """Scheduled minimum cut of ``g``: plan, dispatch, retry, fold.

        Bit-identical to :func:`~repro.core.mincut.minimum_cut` in value
        for the same ``seed`` (the witness may differ only between
        exactly tied minimum cuts, where both are correct), and
        bit-identical to *itself* across fault-free, faulted-and-retried
        and checkpoint/resumed executions.
        """
        run = self.begin(
            g, p, backend=backend, seed=seed, success_prob=success_prob,
            trials=trials, trial_scale=trial_scale, resume=resume,
            collect_all=collect_all,
        )
        while run.step():
            pass
        return self.finish(run)
