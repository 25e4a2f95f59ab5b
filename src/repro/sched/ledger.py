"""The trial ledger: one durable record per Monte-Carlo trial.

The ledger is the scheduler's source of truth.  Each planned trial id
maps to a :class:`TrialRecord` carrying its lifecycle status, the trial's
result (cut value + witness partition, hex-packed), how many dispatch
attempts it took and which scheduler wave last owned it.  Because a
trial's result is a pure function of ``(graph, master seed, trial id)``,
the ledger composes freely: records produced by different dispatches,
backends or resumed runs are interchangeable bit-for-bit.

Checkpoint format (JSONL, one object per line)::

    {"kind": "repro-trial-ledger", "version": 1, "seed": ..., "trials": T,
     "n": ..., "m": ...}
    {"trial": 0, "status": "done", "value": 2.0, "side": "ab03...",
     "attempts": 1, "wave": 0}
    ...

The header pins the run identity (master seed, planned trial count,
graph shape); resuming against a mismatched checkpoint is an error, not
a silent wrong answer.  Witness sides are ``np.packbits`` hex strings —
8 vertices per byte — decoded against the header's ``n``.

The :meth:`TrialLedger.fingerprint` hash covers only the *deterministic*
fields (trial id, status, value, witness).  Attempt counts and wave
assignments depend on which faults fired and where a resume cut the run,
so they are excluded: a fault-free run, a crash-and-retry run and a
checkpoint/resume run of the same seed all fingerprint identically —
the bit-identical-ledger guarantee the determinism tests pin down.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEDGER_MAGIC",
    "TrialRecord",
    "TrialLedger",
    "encode_side",
    "decode_side",
    "write_atomic",
]

#: Header ``kind`` tag of a ledger checkpoint file.
LEDGER_MAGIC = "repro-trial-ledger"

#: Checkpoint schema version.
LEDGER_VERSION = 1

#: Legal record statuses, in lifecycle order.
STATUSES = ("pending", "running", "done", "failed")


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: a per-process tmp file,
    then ``os.replace``, so a reader never sees a half-written file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def encode_side(side: np.ndarray) -> str:
    """Pack a boolean witness partition into a hex string (8 verts/byte)."""
    return np.packbits(np.asarray(side, dtype=bool)).tobytes().hex()


def _canonical(side: np.ndarray) -> np.ndarray:
    """Normalize a cut to the side not containing vertex 0 (the
    orientation :func:`~repro.core.karger_stein.canonical_cut_key` keys
    by), so hex-encoded sides deduplicate side/complement pairs."""
    side = np.asarray(side, dtype=bool)
    return ~side if side[0] else side


def decode_side(hexstr: str, n: int) -> np.ndarray:
    """Inverse of :func:`encode_side` for an ``n``-vertex partition."""
    raw = np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8)
    return np.unpackbits(raw, count=n).astype(bool)


@dataclass
class TrialRecord:
    """Lifecycle + result of one trial."""

    trial: int
    status: str = "pending"
    value: float | None = None
    side_hex: str | None = None
    attempts: int = 0
    wave: int | None = None
    #: Collect-all runs: every tied minimum-cut witness this trial found
    #: (hex-packed, sorted); ``None`` for single-witness runs.
    sides_hex: list[str] | None = None

    def to_doc(self) -> dict:
        doc = {
            "trial": self.trial, "status": self.status, "value": self.value,
            "side": self.side_hex, "attempts": self.attempts,
            "wave": self.wave,
        }
        if self.sides_hex is not None:
            doc["sides"] = self.sides_hex
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TrialRecord":
        if doc.get("status") not in STATUSES:
            raise ValueError(f"bad trial record status {doc.get('status')!r}")
        return cls(
            trial=int(doc["trial"]), status=doc["status"],
            value=doc.get("value"), side_hex=doc.get("side"),
            attempts=int(doc.get("attempts", 0)),
            wave=doc.get("wave"),
            sides_hex=doc.get("sides"),
        )


class TrialLedger:
    """All planned trials of one scheduled run, checkpointable as JSONL."""

    def __init__(self, trials: int, n: int, m: int, seed: int,
                 records: dict[int, TrialRecord] | None = None,
                 graph_fp: str | None = None):
        if trials < 1:
            raise ValueError(f"need at least one trial, got {trials}")
        self.trials = int(trials)
        self.n = int(n)
        self.m = int(m)
        self.seed = int(seed)
        #: Optional content fingerprint of the graph this run belongs to
        #: (:func:`repro.graph.content_fingerprint`).  Strictly stronger
        #: identity than the ``(n, m)`` shape check; checkpoints written
        #: before it existed simply omit it and stay loadable.
        self.graph_fp = graph_fp
        if records is None:
            records = {ti: TrialRecord(ti) for ti in range(trials)}
        self.records = records

    # -- queries -------------------------------------------------------------

    def pending_ids(self) -> list[int]:
        """Trials still owed a result, in id order.

        ``running`` and ``failed`` records count as pending: a ``running``
        record in a loaded checkpoint means the writer died mid-dispatch,
        and a resume gives ``failed`` trials a fresh retry budget.
        """
        return [ti for ti in sorted(self.records)
                if self.records[ti].status != "done"]

    @property
    def completed(self) -> int:
        """Number of trials with a recorded result."""
        return sum(1 for r in self.records.values() if r.status == "done")

    def side_of(self, trial: int) -> np.ndarray | None:
        rec = self.records[trial]
        return None if rec.side_hex is None else decode_side(rec.side_hex, self.n)

    def best(self) -> tuple[float, np.ndarray | None]:
        """Minimum over completed trials, folded in trial-id order.

        Ties keep the lowest trial id — one canonical winner regardless
        of wave sizes, processor counts, retries or resume points.
        """
        best_val, best_ti = math.inf, None
        for ti in sorted(self.records):
            rec = self.records[ti]
            if rec.status == "done" and rec.value < best_val:
                best_val, best_ti = rec.value, ti
        if best_ti is None:
            return math.inf, None
        return best_val, self.side_of(best_ti)

    # -- transitions ---------------------------------------------------------

    def mark_running(self, trial_ids, wave: int) -> None:
        for ti in trial_ids:
            rec = self.records[ti]
            rec.status = "running"
            rec.wave = wave
            rec.attempts += 1

    def mark_pending(self, trial_ids) -> None:
        """Return trials to the queue after a failed dispatch."""
        for ti in trial_ids:
            self.records[ti].status = "pending"

    def mark_failed(self, trial_ids) -> None:
        for ti in trial_ids:
            self.records[ti].status = "failed"

    def record_done(self, trial: int, value: float, side: np.ndarray,
                    sides=None) -> None:
        rec = self.records[trial]
        rec.status = "done"
        rec.value = float(value)
        rec.side_hex = None if side is None else encode_side(side)
        if sides is not None:
            rec.sides_hex = sorted(encode_side(_canonical(s)) for s in sides)

    def min_cut_sides(self) -> list[np.ndarray]:
        """All distinct minimum-cut witnesses across completed trials.

        Collect-all analogue of :meth:`best`: the union of every tied
        witness recorded by trials achieving the global minimum, ordered
        by their hex encoding (deterministic across wave sizes, retries
        and resumes).  Falls back to single witnesses for records
        without a collect-all side list.
        """
        best_val = math.inf
        for rec in self.records.values():
            if rec.status == "done" and rec.value < best_val:
                best_val = rec.value
        if not math.isfinite(best_val):
            return []
        keys: set[str] = set()
        for ti in sorted(self.records):
            rec = self.records[ti]
            if rec.status != "done" or rec.value != best_val:
                continue
            if rec.sides_hex is not None:
                keys.update(rec.sides_hex)
            elif rec.side_hex is not None:
                keys.add(rec.side_hex)
        return [decode_side(k, self.n) for k in sorted(keys)]

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """sha256 over the deterministic fields only (see module docstring)."""
        h = hashlib.sha256()
        h.update(f"{self.seed}|{self.trials}|{self.n}|{self.m}\n".encode())
        for ti in sorted(self.records):
            rec = self.records[ti]
            h.update(
                f"{rec.trial}|{rec.status}|{rec.value!r}|{rec.side_hex}|"
                f"{rec.sides_hex}\n".encode()
            )
        return h.hexdigest()

    # -- checkpoint ----------------------------------------------------------

    def header(self) -> dict:
        doc = {
            "kind": LEDGER_MAGIC, "version": LEDGER_VERSION,
            "seed": self.seed, "trials": self.trials,
            "n": self.n, "m": self.m,
        }
        if self.graph_fp is not None:
            doc["graph_fp"] = self.graph_fp
        return doc

    def save(self, path: str) -> None:
        """Atomically write the full ledger as JSONL."""
        docs = [self.header()] + [self.records[ti].to_doc()
                                  for ti in sorted(self.records)]
        write_atomic(path, "".join(json.dumps(doc, sort_keys=True) + "\n"
                                   for doc in docs))

    @classmethod
    def load(cls, path: str) -> "TrialLedger":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise ValueError(f"empty ledger checkpoint {path!r}")
        header = json.loads(lines[0])
        if header.get("kind") != LEDGER_MAGIC:
            raise ValueError(
                f"{path!r} is not a trial-ledger checkpoint "
                f"(kind={header.get('kind')!r})"
            )
        if header.get("version") != LEDGER_VERSION:
            raise ValueError(
                f"ledger checkpoint version {header.get('version')!r} not "
                f"supported (expected {LEDGER_VERSION})"
            )
        records = {}
        for line in lines[1:]:
            rec = TrialRecord.from_doc(json.loads(line))
            records[rec.trial] = rec
        ledger = cls(header["trials"], header["n"], header["m"],
                     header["seed"], records=records,
                     graph_fp=header.get("graph_fp"))
        missing = set(range(ledger.trials)) - set(records)
        if missing:
            raise ValueError(
                f"ledger checkpoint {path!r} is missing trial record(s) "
                f"{sorted(missing)[:10]}"
            )
        return ledger

    def matches(self, *, trials: int, n: int, m: int, seed: int,
                graph_fp: str | None = None) -> bool:
        """Whether this ledger belongs to the given run identity.

        The graph content fingerprint is compared only when both sides
        carry one, so pre-fingerprint checkpoints keep resuming on the
        weaker ``(n, m)`` shape identity.
        """
        if (graph_fp is not None and self.graph_fp is not None
                and self.graph_fp != graph_fp):
            return False
        return (self.trials == trials and self.n == n
                and self.m == m and self.seed == seed)
