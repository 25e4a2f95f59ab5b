"""Dynamic-graph sessions: the serve daemon's streaming-update state.

A *session* wraps one :class:`~repro.dynamic.graph.DynamicGraph` behind
the daemon's ``dyn_*`` verbs.  Durability: a session document
(``<state_dir>/dynamic/<id>.json``) pins the initial graph by path +
content fingerprint, and an append-only update
log (``<id>.updates.jsonl``) records every accepted batch **before** it
is applied (write-ahead).  Every dynamic answer is a pure function of
the epoch graph, the seed and ``p``, so a daemon killed mid-stream
replays the log on restart and serves bit-identical answers from the
epoch it reached — the dynamic analogue of the trial ledger's resume.

Updates are applied inline on the connection thread (O(α) bookkeeping,
no backend work); queries go through the job queue so the single-tenant
backend only ever runs on the executor thread.
"""

from __future__ import annotations

import json
import os
import threading

from repro.dynamic.graph import DynamicGraph
from repro.sched.ledger import write_atomic

__all__ = ["DynamicSession", "DynamicSessionManager"]


class DynamicSession:
    """One live dynamic graph plus its durable update log."""

    def __init__(self, sid: str, doc: dict, dyn: DynamicGraph,
                 log_path: str):
        self.id = sid
        self.doc = doc              # persisted session document
        self.dyn = dyn
        self.log_path = log_path
        self.lock = threading.Lock()
        # The graph calls back once a batch has validated (and before it
        # mutates anything), so a rejected batch never reaches the log.
        dyn.on_batch = self._log_batch

    def _append(self, doc: dict) -> None:
        line = json.dumps(doc, separators=(",", ":"))
        with open(self.log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _log_batch(self, epoch: int, ops: list) -> None:
        self._append({"epoch": epoch, "ops": ops})

    def update(self, ops: list) -> dict:
        """Validate one batch, write-ahead log it, apply it atomically.

        Raises ``KeyError``/``ValueError`` (the daemon's ``BadUpdate``)
        with the log, the graph and its epoch untouched.
        """
        with self.lock:
            return self.dyn.update_edges(ops)


class DynamicSessionManager:
    """Session registry + persistence under ``state_dir/dynamic/``."""

    def __init__(self, state_dir: str):
        self.dir = os.path.join(state_dir, "dynamic")
        os.makedirs(self.dir, exist_ok=True)
        self.sessions: dict[str, DynamicSession] = {}
        self._lock = threading.Lock()
        self._seq = self._next_seq()

    def _next_seq(self) -> int:
        top = 0
        for name in os.listdir(self.dir):
            if name.startswith("d") and name.endswith(".json"):
                try:
                    top = max(top, int(name[1:-5]))
                except ValueError:
                    continue
        return top + 1

    def _paths(self, sid: str) -> tuple[str, str]:
        return (os.path.join(self.dir, f"{sid}.json"),
                os.path.join(self.dir, f"{sid}.updates.jsonl"))

    @staticmethod
    def _whole_records(log_path: str) -> list[dict]:
        """The update log's records, a torn tail truncated away first.

        A final record with no terminating newline was cut short inside
        :meth:`DynamicSession._append` — never fsynced, never acknowledged
        to a client — so dropping it resumes at the last whole epoch.  A
        malformed record anywhere else raises ``ValueError``.
        """
        with open(log_path, "rb+") as fh:
            data = fh.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                fh.truncate(whole)
        return [json.loads(line) for line in data[:whole].splitlines()
                if line.strip()]

    # -- lifecycle -----------------------------------------------------------

    def open(self, g, *, path: str, fingerprint: str, seed: int, p: int,
             backend=None, **dyn_kwargs) -> DynamicSession:
        """Create, persist and register a fresh session at epoch 0."""
        with self._lock:
            sid = f"d{self._seq:06d}"
            self._seq += 1
        doc = {"id": sid, "path": os.path.abspath(path),
               "fingerprint": fingerprint, "seed": int(seed), "p": int(p),
               "dyn_kwargs": dyn_kwargs}
        doc_path, log_path = self._paths(sid)
        write_atomic(doc_path, json.dumps(doc, sort_keys=True))
        open(log_path, "a").close()
        dyn = DynamicGraph(g, p=int(p), seed=int(seed), backend=backend,
                           **dyn_kwargs)
        session = DynamicSession(sid, doc, dyn, log_path)
        with self._lock:
            self.sessions[sid] = session
        return session

    def resume_all(self, load_graph, *, backend=None) -> list[str]:
        """Rebuild every persisted session by replaying its update log.

        ``load_graph(path, expected_fp)`` supplies the initial graph
        (the daemon passes its cache's loader, so the fingerprint pin is
        re-validated).  A session is skipped — its jobs fail with a typed
        error rather than silently serving different bits — when its
        document is unreadable or names a knob the graph no longer takes,
        its graph file vanished or changed, or its log holds a malformed
        record or a batch the graph rejects (a torn *tail* is just
        truncated, see :meth:`_whole_records`).  Log records other than
        ``ops`` are ignored.  Returns resumed session ids.
        """
        resumed = []
        for name in sorted(os.listdir(self.dir)):
            if not (name.startswith("d") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.dir, name),
                          encoding="utf-8") as fh:
                    doc = json.load(fh)
                sid = doc["id"]
            except (OSError, ValueError, KeyError, TypeError):
                continue  # unreadable session document
            if sid in self.sessions:
                continue
            _doc_path, log_path = self._paths(sid)
            try:
                g = load_graph(doc["path"], doc["fingerprint"])
            except Exception:
                continue  # graph gone/changed: session unrecoverable
            try:
                entries = self._whole_records(log_path)
                dyn = DynamicGraph(g, p=int(doc["p"]), seed=int(doc["seed"]),
                                   backend=backend,
                                   **doc.get("dyn_kwargs", {}))
                # The hooks are attached by DynamicSession below, AFTER the
                # replay — replayed records must not re-append log lines.
                for entry in entries:
                    if "ops" in entry:
                        dyn.update_edges(entry["ops"])
            except (KeyError, TypeError, ValueError):
                continue  # bad record, unknown knob, batch that won't apply
            session = DynamicSession(sid, doc, dyn, log_path)
            with self._lock:
                self.sessions[sid] = session
            resumed.append(sid)
        return resumed

    def get(self, sid: str) -> DynamicSession | None:
        with self._lock:
            return self.sessions.get(sid)

    def close(self, sid: str, *, discard: bool = True) -> bool:
        """Drop a session (and, by default, its persisted state)."""
        with self._lock:
            session = self.sessions.pop(sid, None)
        if session is None:
            return False
        if discard:
            for path in self._paths(sid):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self.sessions),
                "epochs": {sid: s.dyn.epoch
                           for sid, s in sorted(self.sessions.items())},
            }
