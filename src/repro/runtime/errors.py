"""Typed failures of the multiprocess execution backend.

Every error a real run can hit — a worker segfaulting, a program raising
on one rank, a rank hanging past the inactivity timeout — surfaces as a
:class:`WorkerFailure` (a ``RuntimeError``) carrying the failing rank(s),
never as a hang: the parent bounds every wait and tears the worker pool
down before re-raising.  Failures also carry *where* the run was: the
failing rank's completed-superstep count (``superstep``, read from the
control block) and, stamped by the trial scheduler (:mod:`repro.sched`),
the trial ids in flight — the retryable unit of work that was lost.
"""

from __future__ import annotations

__all__ = [
    "WorkerFailure",
    "WorkerCrashError",
    "WorkerProgramError",
    "WorkerTimeoutError",
]


class WorkerFailure(RuntimeError):
    """Base class for multiprocess-backend failures.

    Attributes
    ----------
    trials:
        Trial ids in flight when the failure hit, stamped by the trial
        scheduler via :meth:`attach_trials`; ``None`` outside a scheduled
        run.
    """

    trials: tuple[int, ...] | None = None

    def attach_trials(self, trial_ids) -> "WorkerFailure":
        """Stamp the in-flight trial ids onto this failure (idempotent).

        Extends the message so the context survives plain ``str(exc)``
        formatting in logs and test output.
        """
        ids = tuple(int(t) for t in trial_ids)
        if self.trials == ids:
            return self
        self.trials = ids
        if self.args:
            self.args = (
                f"{self.args[0]} [trial(s) in flight: {list(ids)}]",
            ) + self.args[1:]
        return self


class WorkerCrashError(WorkerFailure):
    """A worker process died without reporting a Python exception.

    Typically an abrupt exit (``os._exit``, OOM kill, segfault).  Carries
    the global rank, the exit code, and the number of supersteps the rank
    had completed (the superstep in flight) when the parent knows it.
    """

    def __init__(self, rank: int, exitcode: int | None,
                 superstep: int | None = None):
        self.rank = rank
        self.exitcode = exitcode
        self.superstep = superstep
        at = "" if superstep is None else f" during superstep {superstep}"
        super().__init__(
            f"worker rank {rank} died unexpectedly{at} "
            f"(exit code {exitcode})"
        )


class WorkerProgramError(WorkerFailure):
    """The SPMD program raised on one rank; carries the remote traceback."""

    def __init__(self, rank: int, exc_type: str, remote_traceback: str):
        self.rank = rank
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker rank {rank} raised {exc_type}\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )


class WorkerTimeoutError(WorkerFailure):
    """No worker made progress within the configured inactivity timeout.

    ``missing`` lists the global ranks the parent was still waiting
    on (alive but silent — hung, deadlocked outside a collective, or
    legitimately slower than the timeout allows); ``supersteps`` maps each
    missing rank to the number of supersteps it had completed, when the
    parent knows it.
    """

    def __init__(self, timeout_s: float, missing: list[int],
                 supersteps: dict[int, int] | None = None):
        self.timeout_s = timeout_s
        self.missing = list(missing)
        self.supersteps = dict(supersteps) if supersteps else None
        at = ""
        if self.supersteps:
            at = (" (completed supersteps: "
                  + ", ".join(f"rank {r}: {s}"
                              for r, s in sorted(self.supersteps.items()))
                  + ")")
        super().__init__(
            f"no worker activity for {timeout_s:g}s; still waiting on "
            f"rank(s) {self.missing}{at} (raise MpBackend(timeout=...) if "
            "the computation is legitimately slow)"
        )
