"""Fault-tolerant trial scheduling for the Monte-Carlo minimum-cut runs.

The §4 algorithm is embarrassingly retryable: every trial is a pure
function of the replicated graph and its own RNG stream
(``RngStreams(seed).aux(trial_id)``), so a crashed batch of trials can be
re-dispatched — on the same or a different backend — and produce the
exact bits the lost run would have.  This package turns that property
into machinery:

* :mod:`repro.sched.ledger` — the durable record of every trial
  (status, result, witness), JSONL-checkpointable and resumable;
* :func:`repro.core.mincut.mincut_trials_program` (re-exported here) —
  the wave-dispatch SPMD program whose per-trial results are independent
  of batching and processor count; it lives beside ``mincut_program``
  because both run the same per-rank trial loop;
* :mod:`repro.sched.scheduler` — the retry/backoff dispatch loop with
  deterministic fault injection (:mod:`repro.faults`), straggler
  detection from trace wait deltas, and partial-result aggregation that
  reports the *achieved* success probability.
"""

from repro.core.mincut import mincut_trials_program
from repro.sched.ledger import (
    LEDGER_MAGIC,
    TrialLedger,
    TrialRecord,
    decode_side,
    encode_side,
)
from repro.sched.scheduler import (
    SCHED_DISPATCH,
    SCHED_RETRY,
    ScheduledMinCut,
    TrialRun,
    TrialScheduler,
    detect_stragglers,
    merge_reports,
    split_trace,
    wait_by_rank,
)

__all__ = [
    "LEDGER_MAGIC",
    "TrialLedger",
    "TrialRecord",
    "encode_side",
    "decode_side",
    "mincut_trials_program",
    "TrialScheduler",
    "TrialRun",
    "ScheduledMinCut",
    "SCHED_DISPATCH",
    "SCHED_RETRY",
    "merge_reports",
    "split_trace",
    "wait_by_rank",
    "detect_stragglers",
]
