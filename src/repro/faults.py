"""Deterministic fault injection for the execution backends.

The fault-tolerant trial scheduler (:mod:`repro.sched`) only earns its
keep if its recovery paths are *testable*: a retry loop nobody can trigger
on demand is dead code.  This module describes faults as data — a
:class:`FaultPlan` of :class:`FaultSpec` records, each pinned to a global
rank, a local superstep index, a dispatch (wave) index and an attempt
number — so the exact same failure fires at the exact same point of the
computation on every run, on both backends:

* the **multiprocess backend** injects at the worker driver loop
  (:mod:`repro.runtime.worker`) just before the rank ships its ``step``-th
  collective request over the transport;
* the **simulator** injects at the engine's step loop via a transparent
  generator wrapper (:meth:`SimBackend.run(..., faults=...)
  <repro.runtime.sim.SimBackend.run>`) at the same point: after local
  compute, before the ``step``-th collective executes.

Both seams therefore surface the *same* typed
:class:`~repro.runtime.errors.WorkerFailure` errors, which is what lets
the scheduler exercise one recovery path for both runtimes.

Fault kinds
-----------
``crash``
    The rank dies abruptly (``os._exit`` under mp; a raised
    :class:`~repro.runtime.errors.WorkerCrashError` under sim).
``stall``
    The rank sleeps ``seconds`` of real wall-clock before proceeding
    (visible in measured times and, under mp, in per-event ``wall_s``).
``work``
    The rank charges ``ops`` extra synthetic operations — a *deterministic*
    straggler: the imbalance shows up bit-identically in both backends'
    wait counters and trace wait deltas.
``delay``
    The rank sleeps ``seconds`` before shipping the collective request
    (mp: at the transport seam; sim: same point in the wrapper).
``drop``
    The rank's collective request is never delivered.  Under mp the worker
    goes silent and the parent's inactivity timeout fires
    (:class:`~repro.runtime.errors.WorkerTimeoutError`); the simulator
    raises the same error type immediately (it has no wall clock to wait
    out).

Plan syntax
-----------
Inline (CLI ``--inject-faults``)::

    crash:rank=1,step=2;work:rank=0,step=1,ops=5e4;stall:rank=1,step=0,secs=0.2

JSON (a path given to ``--inject-faults`` is loaded as a file)::

    {"faults": [{"kind": "crash", "rank": 1, "step": 2, "attempt": 0}]}

``attempt`` (default 0) scopes a fault to one retry attempt — the default
makes a fault fire on the first try and vanish on the retry, which is the
shape every recovery test wants.  ``wave`` (default 0) scopes it to one
scheduler dispatch when trials are dispatched in multiple batches.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_plan",
]

#: Recognized fault kinds (see module docstring).
FAULT_KINDS = ("crash", "stall", "work", "delay", "drop")

#: Exit code of an injected crash (distinctive, out of errno range).
CRASH_EXIT_CODE = 113


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: *what* happens *where* and *when*.

    ``step`` is the target rank's local superstep index — the number of
    collectives that rank has already completed when the fault fires
    (0-based: ``step=0`` fires before the rank's first collective).
    """

    kind: str
    rank: int
    step: int
    wave: int = 0        # scheduler dispatch index this fault belongs to
    attempt: int = 0     # retry attempt it fires on (0 = first try)
    seconds: float = 0.0  # stall/delay duration
    ops: float = 0.0     # synthetic work charge
    exitcode: int = CRASH_EXIT_CODE

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.step < 0:
            raise ValueError(f"fault step must be >= 0, got {self.step}")
        if self.wave < 0 or self.attempt < 0:
            raise ValueError("fault wave/attempt must be >= 0")
        if self.kind in ("stall", "delay") and not self.seconds > 0:
            raise ValueError(f"{self.kind} fault needs seconds > 0")
        if self.kind == "work" and not self.ops > 0:
            raise ValueError("work fault needs ops > 0")
        if not math.isfinite(self.seconds) or not math.isfinite(self.ops):
            raise ValueError("fault seconds/ops must be finite")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of deterministic faults, filterable per dispatch.

    The scheduler narrows the plan per ``(wave, attempt)`` before handing
    the remaining specs to a backend, so backends never know about retry
    attempts — they just fire whatever they are given.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_dispatch(self, wave: int, attempt: int) -> tuple[FaultSpec, ...]:
        """The specs that fire on dispatch ``wave``, retry ``attempt``."""
        return tuple(s for s in self.specs
                     if s.wave == wave and s.attempt == attempt)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"faults": [asdict(s) for s in self.specs]},
                          indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "faults" not in doc:
            raise ValueError('fault plan JSON must be {"faults": [...]}')
        return cls(tuple(FaultSpec(**entry) for entry in doc["faults"]))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


_FIELD_TYPES = {
    "rank": int, "step": int, "wave": int, "attempt": int,
    "secs": float, "seconds": float, "ops": float, "exitcode": int,
}


def _parse_entry(entry: str) -> FaultSpec:
    kind, sep, rest = entry.partition(":")
    kind = kind.strip()
    if not sep or not rest.strip():
        raise ValueError(
            f"fault entry {entry!r} must look like "
            "'kind:rank=R,step=K[,key=value...]'"
        )
    kw: dict = {}
    for item in rest.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _FIELD_TYPES:
            raise ValueError(
                f"bad fault field {item!r} in {entry!r}; known fields: "
                f"{sorted(set(_FIELD_TYPES) - {'secs'})}"
            )
        conv = _FIELD_TYPES[key]
        if key == "secs":
            key = "seconds"
        try:
            kw[key] = conv(float(value)) if conv is int else conv(value)
        except ValueError:
            raise ValueError(
                f"fault field {item!r} in {entry!r} is not a number"
            ) from None
    missing = {"rank", "step"} - set(kw)
    if missing:
        raise ValueError(f"fault entry {entry!r} missing {sorted(missing)}")
    return FaultSpec(kind=kind, **kw)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a fault plan: inline spec, JSON document, or a file path.

    A path to an existing file is loaded as JSON; a string starting with
    ``{`` is parsed as JSON directly; anything else uses the inline
    ``kind:rank=R,step=K;...`` syntax.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty fault plan")
    if os.path.isfile(text):
        return FaultPlan.load(text)
    if text.startswith("{"):
        return FaultPlan.from_json(text)
    entries = [e.strip() for e in text.split(";") if e.strip()]
    if not entries:
        raise ValueError("empty fault plan")
    return FaultPlan(tuple(_parse_entry(e) for e in entries))


class FaultInjector:
    """One rank's view of a set of fault specs, indexed by superstep.

    Both seams drive the same object: call :meth:`at` with the rank's
    local superstep index right before it issues that collective, and
    apply whatever comes back.  ``active`` lets the fault-free fast path
    skip the lookup entirely.
    """

    def __init__(self, specs, rank: int):
        self._by_step: dict[int, list[FaultSpec]] = {}
        for spec in specs or ():
            if spec.rank == rank:
                self._by_step.setdefault(spec.step, []).append(spec)
        self.rank = rank
        self.active = bool(self._by_step)

    def at(self, step: int) -> list[FaultSpec]:
        """The specs that fire before this rank's ``step``-th collective."""
        if not self.active:
            return []
        return self._by_step.get(step, [])
