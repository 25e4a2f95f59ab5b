"""Durable job records: the daemon's restart-safe bookkeeping.

A job is one submitted query, the full request plus lifecycle state, saved
as one JSON line of ``<state_dir>/jobs/journal.jsonl``.  A ``square_root``
job also owns a :class:`~repro.sched.ledger.TrialLedger` checkpoint
(``<id>.ledger.jsonl``) updated after **every wave**.  A daemon killed
mid-job and restarted replays the journal, re-queues anything non-terminal,
and ``resume=True`` replays only the missing waves: bit-identical, since a
trial's bits are a pure function of ``(graph, seed, trial id)`` and the
ledger pins the graph by fingerprint.  Jobs that cannot checkpoint (2-out,
cc, approx) rerun from the start, bit-identically.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, fields

from repro.sched.ledger import write_atomic
from repro.serve.protocol import (ALGORITHMS, DYNAMIC_ALGORITHMS,
                                  JOB_STATES, TERMINAL_STATES)

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
    #: Typed error tag surfaced instead of the generic ``JobFailed``
    #: (``StaleEpoch``: the pinned epoch advanced before dispatch).
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
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected "
                             f"one of {ALGORITHMS + DYNAMIC_ALGORITHMS}")
        if self.state not in JOB_STATES:
            raise ValueError(f"bad job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_doc(self) -> dict:
        return {"job": self.id, "state": self.state, "client": self.client,
                "algorithm": self.algorithm, "waves_done": self.waves_done,
                "waves_total": self.waves_total, "error": self.error}

    def to_doc(self) -> dict:
        """The persisted document: a *shallow* field dict (``asdict`` would
        deep-copy ``result``, a ``parallel_cc`` job's whole label list)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_doc(cls, doc: dict) -> "Job":
        return cls(**doc)


class JobStore:
    """An append-only journal opened once (``O_APPEND``): a save is one
    ``write()`` of one line.  Opening replays it (the last record per id
    wins; a line that does not parse or build a :class:`Job` is skipped and
    logged), rewrites it to the latest record per job in one atomic replace
    — a torn tail is never followed by a new record — and continues the id
    sequence past every id a parseable line names.  No fsync: a record
    survives a killed daemon, not a power cut."""

    def __init__(self, state_dir: str):
        self.dir = os.path.join(state_dir, "jobs")
        self.path = os.path.join(self.dir, "journal.jsonl")
        os.makedirs(self.dir, exist_ok=True)
        self._lock = threading.Lock()
        for tmp in glob.glob(glob.escape(self.path) + ".tmp.*"):
            logger.warning("removing unfinished compaction %s", tmp)
            os.unlink(tmp)
        with open(self.path, "a+b") as fh:
            fh.seek(0)
            raw = fh.read().splitlines()
        self._jobs, latest, top = {}, {}, 0
        self.replayed = self.skipped = self.appended = 0
        for lineno, line in enumerate(raw, 1):
            try:
                text = line.decode("utf-8")
                doc = json.loads(text)
                top = max(top, int(doc["id"][1:]))
                self._jobs[doc["id"]] = Job.from_doc(doc)
                latest[doc["id"]] = text
                self.replayed += 1
            except (KeyError, TypeError, ValueError) as exc:
                self.skipped += 1
                logger.warning("skipping unreadable job record %s:%d: %r",
                               self.path, lineno, exc)
        compacted = "".join(latest[jid] + "\n" for jid in sorted(latest))
        write_atomic(self.path, compacted)
        self.journal_bytes = len(compacted.encode())
        self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        self._seq = top + 1

    def new_id(self) -> str:
        with self._lock:
            jid = f"j{self._seq:06d}"
            self._seq += 1
            return jid

    def ledger_path(self, job_id: str) -> str:
        return os.path.join(self.dir, f"{job_id}.ledger.jsonl")

    def save(self, job: Job) -> None:
        with self._lock:
            # dumps, not dump: only dumps runs CPython's C encoder.
            line = (json.dumps(job.to_doc(), sort_keys=True) + "\n").encode()
            view = memoryview(line)
            while view:   # a short write only on a full disk or a signal
                view = view[os.write(self._fd, view):]
            self.appended += 1
            self.journal_bytes += len(line)

    def load_all(self) -> list[Job]:
        """The jobs replayed at open, in id order (the daemon's resume scan)."""
        return [self._jobs[jid] for jid in sorted(self._jobs)]

    def stats(self) -> dict:
        return {"appended": self.appended, "journal_bytes": self.journal_bytes,
                "replayed": self.replayed, "skipped": self.skipped}

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1   # a late save raises, never hits a reused fd
