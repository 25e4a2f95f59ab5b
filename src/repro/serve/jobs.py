"""Durable job records: the daemon's restart-safe bookkeeping.

A job is one submitted query.  Its JSON document (``<state_dir>/jobs/
<id>.json``, written atomically) carries the full request plus lifecycle
state; a ``square_root`` job additionally owns a
:class:`~repro.sched.ledger.TrialLedger` checkpoint next to it
(``<id>.ledger.jsonl``) that the scheduler updates after **every wave**.
The pair is the whole resume story: a daemon killed mid-job and
restarted loads the job docs, re-queues anything non-terminal, and the
scheduler's ``resume=True`` path replays only the missing waves — the
final result is bit-identical to an uninterrupted run because each
trial's bits are a pure function of ``(graph, seed, trial id)`` and the
ledger pins the graph by content fingerprint.

Jobs whose pipeline cannot checkpoint (``variant="2out"`` spans
per-replica dispatches; cc/approx are single dispatches) simply rerun
from the start on resume — determinism makes the rerun bit-identical,
it just re-spends the compute.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, fields

from repro.sched.ledger import write_atomic
from repro.serve.protocol import (
    ALGORITHMS,
    DYNAMIC_ALGORITHMS,
    JOB_STATES,
    TERMINAL_STATES,
)

__all__ = ["Job", "JobStore"]

logger = logging.getLogger(__name__)


@dataclass
class Job:
    """One submitted query and its lifecycle state."""

    id: str
    client: str
    algorithm: str
    path: str | None          # graph file (None: inline-registered graph)
    fingerprint: str | None   # pinned/observed graph content fingerprint
    seed: int
    p: int
    priority: float = 1.0
    kwargs: dict = field(default_factory=dict)  # algorithm extras
    state: str = "queued"
    error: str | None = None
    #: Typed error tag surfaced to the client instead of the generic
    #: ``JobFailed`` (e.g. ``StaleEpoch`` when the pinned graph epoch
    #: advanced between submit and dispatch).
    error_type: str | None = None
    result: dict | None = None
    #: Waves completed / planned (square_root progress; 0/1 single-shots).
    waves_done: int = 0
    waves_total: int = 0
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None

    def __post_init__(self):
        self.priority = float(self.priority)   # the wire may send an int
        if self.algorithm not in ALGORITHMS + DYNAMIC_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALGORITHMS + DYNAMIC_ALGORITHMS}"
            )
        if self.state not in JOB_STATES:
            raise ValueError(f"bad job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_doc(self) -> dict:
        return {
            "job": self.id, "state": self.state, "client": self.client,
            "algorithm": self.algorithm,
            "waves_done": self.waves_done, "waves_total": self.waves_total,
            "error": self.error,
        }

    def to_doc(self) -> dict:
        """The persisted document: a *shallow* field dict.

        ``dataclasses.asdict`` would deep-copy ``result`` (a finished
        ``parallel_cc`` job carries its whole label list) on every save;
        the store only serializes the doc, so sharing is safe.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_doc(cls, doc: dict) -> "Job":
        return cls(**doc)


class JobStore:
    """Atomic JSON persistence for jobs under ``state_dir/jobs/``."""

    def __init__(self, state_dir: str):
        self.dir = os.path.join(state_dir, "jobs")
        os.makedirs(self.dir, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = self._next_seq()

    def _next_seq(self) -> int:
        top = 0
        for name in os.listdir(self.dir):
            if name.startswith("j") and name.endswith(".json"):
                try:
                    top = max(top, int(name[1:-5]))
                except ValueError:
                    continue
        return top + 1

    def new_id(self) -> str:
        with self._lock:
            jid = f"j{self._seq:06d}"
            self._seq += 1
            return jid

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.dir, f"{job_id}.json")

    def ledger_path(self, job_id: str) -> str:
        return os.path.join(self.dir, f"{job_id}.ledger.jsonl")

    def save(self, job: Job) -> None:
        # dumps, not dump: only dumps runs CPython's C encoder.
        write_atomic(self.job_path(job.id),
                     json.dumps(job.to_doc(), sort_keys=True))

    def load(self, job_id: str) -> Job:
        with open(self.job_path(job_id), "r", encoding="utf-8") as fh:
            return Job.from_doc(json.load(fh))

    def load_all(self) -> list[Job]:
        """Every readable persisted job, id order (resume scan at daemon
        start).  A truncated, hand-edited or unknown-field record is skipped
        and logged: one bad file must not keep the daemon from restarting."""
        jobs = []
        for name in sorted(os.listdir(self.dir)):
            if name.endswith(".json"):
                try:
                    jobs.append(self.load(name[:-len(".json")]))
                except (ValueError, TypeError) as exc:
                    logger.warning("skipping unreadable job record %s: %s",
                                   name, exc)
        return jobs
