"""The line-delimited-JSON wire protocol of the serve daemon.

One connection, one JSON object per line, request/response in lockstep.
Every request carries ``{"op": <verb>, ...}``; every response carries
``{"ok": true, ...}`` or ``{"ok": false, "error": <type>, "message": ...}``.

:data:`VERBS` is the wire: every field each verb takes and its default.
:func:`parse` checks a request against it, each field against its
``FIELD_DOMAINS`` entry, before any handler runs.  What the verbs do:

* ``submit`` queues an artifact run and answers its job id; ``status``,
  ``result`` (blocking while ``wait``, for at most ``timeout`` s) and
  ``cancel`` follow a job; ``stats``, ``ping`` and ``shutdown`` are the
  daemon's counters, a liveness probe and a graceful stop.
  ``priority`` is the client's fair-queue weight (higher drains faster,
  never starves others).
* ``dyn_open``, ``dyn_update``, ``dyn_query``, ``dyn_staleness`` and
  ``dyn_close`` drive streaming sessions (``docs/dynamic.md``).  A
  ``dyn_update`` batch with an invalid op is refused whole
  (``BadUpdate``): nothing is applied or logged.  A ``dyn_query`` job
  pins the session's epoch at submit; if it advanced before dispatch,
  ``if_stale: "reject"`` fails the job (``StaleEpoch``) and
  ``"requeue"`` re-pins it (the result reports ``repinned_from_epoch``).

Result documents are JSON-safe summaries, not pickles: ``parallel_cc``
reports ``n_components`` and a sha256 of the label array (plus the
labels themselves when small); ``square_root`` reports the cut ``value``,
the hex-packed witness ``side`` (:func:`repro.sched.ledger.encode_side`),
``trials``/``completed`` and the achieved success probability;
``approx_cut`` reports the estimate and witness value.  Everything needed
to *verify* a result against a direct :func:`repro.harness.run_algorithm`
call crosses the wire; bulk payloads stay in the daemon.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.core.trials import (
    ALGORITHM_FIELDS,
    ALGORITHMS,
    FIELDS,
    field_error,
    fields_conflict,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_REQUEST_LINE",
    "ALGORITHMS",
    "ALGORITHM_FIELDS",
    "VERBS",
    "REQUIRED",
    "FORWARDED",
    "DYNAMIC_ALGORITHMS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "ProtocolError",
    "parse",
    "encode_line",
    "decode_line",
    "error_doc",
    "ok_doc",
    "result_doc",
    "dyn_result_doc",
]

#: Bumped on incompatible wire changes; ping reports it.  2 added the
#: dynamic-session verbs (dyn_open/dyn_update/dyn_query/dyn_staleness/
#: dyn_close) — a pure extension, so 1-era clients keep working.  3
#: refuses unknown fields: a request carrying one, which 2 answered by
#: ignoring the field, is now a ``ProtocolError``.
PROTOCOL_VERSION = 3

#: Internal job tags for dynamic-session queries (created by
#: ``dyn_query``, never by ``submit``).
DYNAMIC_ALGORITHMS = ("dyn_components", "dyn_cut")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Label arrays at most this long ride along in cc result docs.
_MAX_INLINE_LABELS = 4096

#: Longest request line the daemon buffers (bytes, newline included): a
#: longer one is answered with a ``ProtocolError`` and its connection
#: closed.  8 MiB is some 250 000 ``dyn_update`` ops on one line.
MAX_REQUEST_LINE = 1 << 23


class ProtocolError(Exception):
    """Malformed request or illegal op (reported, never fatal)."""


#: Defaults that are markers (compared by identity): a field the verb
#: cannot do without; an optional field passed on to the callee only when
#: sent, the callee (the algorithm, the dynamic graph) owning its default.
REQUIRED, FORWARDED = "<required>", "<forwarded>"

#: The wire: verb -> {field: default, REQUIRED or FORWARDED}.  Every field
#: is checked against its ``FIELD_DOMAINS`` entry; a ``None`` default
#: stands for "not sent" (no domain admits ``None``).  ``p``'s is the
#: serving daemon's configured ``p``, which it hands :func:`parse`.
VERBS = {
    "ping": {}, "stats": {}, "shutdown": {},
    "submit": {
        "algorithm": REQUIRED, "path": REQUIRED, "seed": 0, "p": None,
        "client": "anon", "priority": 1.0, "fingerprint": None,
        # every algorithm's fields; parse keeps each to its algorithm's own
        **dict.fromkeys(FIELDS, FORWARDED)},
    "status": {"job": REQUIRED},
    "result": {"job": REQUIRED, "wait": False, "timeout": None},
    "cancel": {"job": REQUIRED},
    "dyn_open": {
        "path": REQUIRED, "seed": 0, "p": None, "fingerprint": None,
        **dict.fromkeys(("reconnect_budget", "success_prob", "trial_scale"),
                        FORWARDED)},
    "dyn_update": {"session": REQUIRED, "ops": REQUIRED},
    "dyn_staleness": {"session": REQUIRED},
    "dyn_query": {
        "session": REQUIRED, "query": REQUIRED, "mode": "exact",
        "if_stale": "reject", "client": "anon", "priority": 1.0},
    "dyn_close": {"session": REQUIRED, "discard": True},
}


def parse(verb, req: dict, defaults: dict | None = None) -> dict:
    """``req``'s arguments for ``verb``, checked against :data:`VERBS`.

    Every field the verb declares comes back under its name (the value
    sent, else ``defaults``' entry, else the table's default), except the
    FORWARDED ones, which come back under ``"kwargs"`` and only when sent.
    ``submit``'s algorithm fields must be its algorithm's and pass the
    cross-field rules (:func:`~repro.core.trials.fields_conflict`).
    Raises :class:`ProtocolError` naming the field at fault.
    """
    fields = VERBS.get(verb) if isinstance(verb, str) else None
    if fields is None:
        raise ProtocolError(f"unknown op {verb!r}")
    for name in req:
        if name != "op" and name not in fields:
            raise ProtocolError(f"{verb} has no field {name!r}")
    args, kwargs, defaults = {}, {}, defaults or {}
    for name, default in fields.items():
        if name not in req:
            if default is REQUIRED:
                raise ProtocolError(f"{verb} needs '{name}'")
            if default is not FORWARDED:
                args[name] = defaults.get(name, default)
            continue
        bad = field_error(name, req[name])
        if bad:
            raise ProtocolError(f"'{name}' {bad}")
        (kwargs if default is FORWARDED else args)[name] = req[name]
    args["kwargs"] = kwargs
    if verb == "submit":
        bad = fields_conflict(args["algorithm"], kwargs, "'{}'".format)
        if bad:
            raise ProtocolError(bad)
    return args


def encode_line(doc: dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return (json.dumps(doc, separators=(",", ":"), sort_keys=True)
            + "\n").encode()


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line into a dict (raises ProtocolError)."""
    try:
        doc = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(doc).__name__}")
    return doc


def ok_doc(**fields: Any) -> dict:
    return {"ok": True, **fields}


def error_doc(error: str, message: str) -> dict:
    return {"ok": False, "error": error, "message": message}


def _labels_sha(labels: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def result_doc(algorithm: str, result: Any) -> dict:
    """JSON-safe summary of an algorithm result object (see module doc)."""
    from repro.sched.ledger import encode_side

    if algorithm == "parallel_cc":
        labels = np.asarray(result.labels)
        doc = {
            "algorithm": algorithm,
            "n_components": int(result.n_components),
            "labels_sha256": _labels_sha(labels),
        }
        if labels.size <= _MAX_INLINE_LABELS:
            doc["labels"] = labels.tolist()
        return doc
    if algorithm == "approx_cut":
        return {
            "algorithm": algorithm,
            "estimate": float(result.estimate),
            "witness_value": (None if result.witness_value is None
                              else float(result.witness_value)),
            "witness_side": (None if result.witness_side is None
                             else encode_side(result.witness_side)),
        }
    if algorithm == "square_root":
        return {
            "algorithm": algorithm,
            "value": float(result.value),
            "side": (None if result.side is None
                     else encode_side(result.side)),
            "trials": int(result.trials),
            # None for fixed-trials runs, where no probability target applies
            "achieved_success_prob": (
                None if result.achieved_success_prob is None
                else float(result.achieved_success_prob)),
            "variant": result.variant,
        }
    raise ProtocolError(f"unknown algorithm {algorithm!r}")


def dyn_result_doc(result) -> dict:
    """JSON-safe summary of a dynamic query result.

    Accepts a :class:`~repro.dynamic.graph.DynamicCCResult` or
    :class:`~repro.dynamic.graph.DynamicCutResult`; the epoch and
    fingerprint ride along so clients can verify which graph version
    the answer certifies.
    """
    from repro.dynamic.graph import DynamicCCResult
    from repro.sched.ledger import encode_side

    if isinstance(result, DynamicCCResult):
        labels = np.asarray(result.labels)
        doc = {
            "algorithm": "dyn_components",
            "epoch": int(result.epoch),
            "fingerprint": result.fingerprint,
            "n_components": int(result.n_components),
            "labels_sha256": _labels_sha(labels),
            "via": result.via,
        }
        if labels.size <= _MAX_INLINE_LABELS:
            doc["labels"] = labels.tolist()
        return doc
    return {
        "algorithm": "dyn_cut",
        "epoch": int(result.epoch),
        "fingerprint": result.fingerprint,
        "mode": result.mode,
        "value": float(result.value),
        "witness_value": (None if result.witness_value is None
                          else float(result.witness_value)),
        "side": (None if result.side is None
                 else encode_side(np.asarray(result.side, dtype=bool))),
        "certificate": result.certificate,
    }
