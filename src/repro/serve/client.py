"""Blocking client for the serve daemon's line-JSON protocol.

One persistent socket, request/response in lockstep (the protocol is
strictly synchronous per connection; open several clients for overlap).
Raises :class:`ServeError` on any ``{"ok": false}`` reply, with the
daemon-reported error type preserved on the exception.
"""

from __future__ import annotations

import os
import socket
import time

from repro.serve.protocol import decode_line, encode_line

__all__ = ["Client", "ServeError", "wait_server"]


class ServeError(RuntimeError):
    """A request the daemon answered ``ok: false``."""

    def __init__(self, error: str, message: str):
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


def _connect(address: str, timeout: float | None):
    if os.sep in address or address.startswith("."):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        host, _, port = address.rpartition(":")
        sock = socket.create_connection(
            (host or "127.0.0.1", int(port)), timeout=timeout)
    return sock


def wait_server(address: str, timeout: float = 10.0,
                poll_s: float = 0.05) -> None:
    """Block until a daemon answers ``ping`` at ``address`` (or raise)."""
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with Client(address, timeout=max(poll_s, 1.0)) as c:
                c.ping()
                return
        except (OSError, ServeError) as exc:
            last = exc
            time.sleep(poll_s)
    raise TimeoutError(
        f"no serve daemon at {address!r} within {timeout}s: {last}")


class Client:
    """Synchronous serve-daemon client (see module docstring).

    ``client``/``priority`` name this client's fair-queue identity and
    weight; every submit stamps them unless overridden per call.
    """

    def __init__(self, address: str, *, client: str = "anon",
                 priority: float = 1.0, timeout: float | None = None):
        self.address = address
        self.name = client
        self.priority = float(priority)
        self._sock = _connect(address, timeout)
        self._fh = self._sock.makefile("rwb")

    # -- plumbing ------------------------------------------------------------

    def request(self, doc: dict) -> dict:
        """Send one request document, return the (ok) reply document."""
        self._fh.write(encode_line(doc))
        self._fh.flush()
        line = self._fh.readline()
        if not line:
            raise ConnectionError("serve daemon closed the connection")
        reply = decode_line(line)
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "Error"),
                             reply.get("message", ""))
        return reply

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, verb: str, **fields) -> dict:
        """Send one ``verb`` request, leaving out the fields set to ``None``
        (the daemon applies the verb's defaults), and return the reply."""
        return self.request({"op": verb, **{
            name: value for name, value in fields.items()
            if value is not None}})

    # -- ops -----------------------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def submit(self, algorithm: str, path: str, *, seed: int = 0,
               p: int | None = None, priority: float | None = None,
               fingerprint: str | None = None, **kwargs) -> str:
        """Submit a query; returns the job id immediately."""
        return self.call(
            "submit", algorithm=algorithm, path=path, seed=seed, p=p,
            client=self.name,
            priority=self.priority if priority is None else priority,
            fingerprint=fingerprint, **kwargs)["job"]

    def status(self, job: str) -> dict:
        return self.call("status", job=job)

    def result(self, job: str, *, wait: bool = True,
               timeout: float | None = None) -> dict:
        """The job's result document (blocking until terminal by default).

        Raises :class:`ServeError` (``JobFailed`` / ``JobCancelled``) for
        unsuccessful terminal states; returns ``None`` result for a job
        still in flight when ``wait=False`` or the timeout lapsed.
        """
        return self.call("result", job=job, wait=wait,
                         timeout=timeout)["result"]

    def run(self, algorithm: str, path: str, **kwargs) -> dict:
        """submit + blocking result in one call."""
        return self.result(self.submit(algorithm, path, **kwargs))

    def cancel(self, job: str) -> dict:
        return self.call("cancel", job=job)

    # -- dynamic sessions ----------------------------------------------------

    def dyn_open(self, path: str, *, seed: int = 0, p: int | None = None,
                 fingerprint: str | None = None, **kwargs) -> str:
        """Open a streaming session on a graph file; returns the session id."""
        return self.call("dyn_open", path=path, seed=seed, p=p,
                         fingerprint=fingerprint, **kwargs)["session"]

    def dyn_update(self, session: str, ops: list) -> dict:
        """Apply one update batch (closing an epoch); returns staleness."""
        return self.call("dyn_update", session=session, ops=ops)

    def dyn_staleness(self, session: str) -> dict:
        return self.call("dyn_staleness", session=session)

    def dyn_query(self, session: str, query: str, *, mode: str = "exact",
                  if_stale: str = "reject",
                  priority: float | None = None) -> str:
        """Submit a components/cut query on the session's current epoch."""
        return self.call(
            "dyn_query", session=session, query=query, mode=mode,
            if_stale=if_stale, client=self.name,
            priority=self.priority if priority is None else priority)["job"]

    def dyn_components(self, session: str, *, if_stale: str = "reject",
                       timeout: float | None = None) -> dict:
        """dyn_query('components') + blocking result in one call."""
        return self.result(self.dyn_query(session, "components",
                                          if_stale=if_stale),
                           timeout=timeout)

    def dyn_cut(self, session: str, *, mode: str = "exact",
                if_stale: str = "reject",
                timeout: float | None = None) -> dict:
        """dyn_query('cut') + blocking result in one call."""
        return self.result(self.dyn_query(session, "cut", mode=mode,
                                          if_stale=if_stale),
                           timeout=timeout)

    def dyn_close(self, session: str, *, discard: bool = True) -> dict:
        return self.call("dyn_close", session=session, discard=discard)

    def stats(self) -> dict:
        return self.call("stats")

    def shutdown(self) -> dict:
        return self.call("shutdown")
