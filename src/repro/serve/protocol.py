"""The line-delimited-JSON wire protocol of the serve daemon.

One connection, one JSON object per line, request/response in lockstep.
Every request carries ``{"op": <name>, ...}``; every response carries
``{"ok": true, ...}`` or ``{"ok": false, "error": <type>, "message": ...}``.
Ops:

``submit``
    ``{"op": "submit", "algorithm": "parallel_cc" | "approx_cut" |
    "square_root", "path": <graph file>, "seed": int, "p": int,
    "client": str, "priority": float, ...algorithm kwargs}`` →
    ``{"ok": true, "job": <id>}``.  ``priority`` is the client's fair-
    queue weight (default 1.0; higher drains faster, never starves
    others).  Optional algorithm kwargs: ``variant``/``trials``/
    ``trial_scale``/``success_prob`` for ``square_root``, ``eps``/
    ``delta`` for the others where applicable.
``status``
    ``{"op": "status", "job": <id>}`` → job state (``queued`` /
    ``running`` / ``done`` / ``failed`` / ``cancelled``) plus progress
    (waves completed / planned).
``result``
    ``{"op": "result", "job": <id>, "wait": bool, "timeout": float}`` →
    the result document (below), blocking until terminal when ``wait``.
``cancel``
    ``{"op": "cancel", "job": <id>}`` → cancels a queued/running job.
``stats``
    daemon-wide counters: cache stats, queue depths, per-client served
    slices, backend pool spawns, uptime.
``ping`` / ``shutdown``
    liveness probe / graceful stop.

Dynamic-graph sessions (``docs/dynamic.md``):

``dyn_open``
    ``{"op": "dyn_open", "path": <graph file>, "seed": int, "p": int,
    "reconnect_budget": int, "success_prob": float, "trial_scale":
    float}`` (all but ``path`` optional) → ``{"ok": true, "session":
    <id>, "epoch": 0, "fingerprint": ...}``.  Opens a streaming session
    on the file's graph (epoch 0).
``dyn_update``
    ``{"op": "dyn_update", "session": <id>, "ops": [["insert", u, v, w],
    ["delete", u, v], ["reweight", u, v, w], ...]}`` → the new epoch's
    staleness document.  Applied inline (no backend work); each batch
    closes an epoch and is write-ahead logged for restart replay.  A
    batch with an invalid op is refused whole (``BadUpdate``): nothing
    is applied and nothing is logged.
``dyn_query``
    ``{"op": "dyn_query", "session": <id>, "query": "components" |
    "cut", "mode": "exact" | "approx", "if_stale": "reject" |
    "requeue"}`` → ``{"ok": true, "job": <id>}``.  Queries run through
    the job queue (the backend is single-tenant); the job pins the
    session's epoch at submit.  If the epoch advanced before dispatch,
    ``"reject"`` (default) fails the job with the typed ``StaleEpoch``
    error; ``"requeue"`` re-pins it to the latest epoch and the result
    reports ``repinned_from_epoch``.
``dyn_staleness``
    ``{"op": "dyn_staleness", "session": <id>}`` → epoch, fingerprint
    (``null`` until a query materialized the snapshot), ``n``, ``m``,
    updates so far, the forest's ``cc_dirty``/``uf_stale`` flags,
    maintenance counters.
``dyn_close``
    ``{"op": "dyn_close", "session": <id>}`` → drops the session, its
    plane pin and (by default) its persisted stream.

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

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_REQUEST_LINE",
    "ALGORITHMS",
    "DYNAMIC_ALGORITHMS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "ProtocolError",
    "encode_line",
    "decode_line",
    "error_doc",
    "ok_doc",
    "result_doc",
    "dyn_result_doc",
]

#: Bumped on incompatible wire changes; ping reports it.  2 added the
#: dynamic-session verbs (dyn_open/dyn_update/dyn_query/dyn_staleness/
#: dyn_close) — a pure extension, so 1-era clients keep working.
PROTOCOL_VERSION = 2

#: Algorithm tags accepted by ``submit`` (the artifact executables).
ALGORITHMS = ("parallel_cc", "approx_cut", "square_root")

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
