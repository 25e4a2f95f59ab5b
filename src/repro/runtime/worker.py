"""Worker-process side of the multiprocess backends.

Each OS process runs the **same generator program** the simulator runs,
with a real :class:`~repro.bsp.engine.Context` (own Philox stream, own
:class:`~repro.bsp.counters.ProcCounters`, shared cache geometry).  The
driver loop below plays the engine's role locally: it advances the
generator until it yields a :class:`~repro.bsp.comm.CollectiveOp`, ships
the request to the coordinator over a pipe (bulk arrays via shared
memory), blocks for the result, and resumes the generator with it.

Program charges accumulate locally in exactly the simulator's order;
every request carries this rank's :class:`~repro.bsp.counters.ProcCounters`
and the reply carries them back, charged, to be adopted in place
(:mod:`repro.runtime.mp` has the parity argument).  Wall-clock is split
into *application* time (generator running) and *MPI* time (blocked on a
collective), the measured analogue of the paper's T_app/T_MPI split.

One lifecycle under ``mp`` and ``warm``: a worker is a command loop
(:func:`persistent_worker_main`) with one transport opened at process
start and closed at exit.  What is fixed for the process arrives in a
picklable :class:`WorkerSpec`; what belongs to a run arrives in its
``CMD_RUN``.  Must be spawn-safe: this module is imported fresh in spawned
children and the entry point is a top-level function.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Callable

from repro.bsp.comm import CollectiveOp, Communicator, Group
from repro.bsp.counters import ProcCounters
from repro.bsp.engine import Context
from repro.bsp.errors import CollectiveMismatchError
from repro.cache.model import CacheParams
from repro.faults import FaultInjector
from repro.graph.shm import resolve_plane
from repro.rng.streams import RngStreams
from repro.runtime.transport import Transport, TransportStats, encode_payload

__all__ = ["WorkerSpec", "persistent_worker_main",
           "MSG_OP", "MSG_DONE", "MSG_ERROR",
           "REPLY_RESULT", "CMD_RUN", "CMD_EXIT"]

#: Wire tags: worker -> coordinator.
MSG_OP = "op"
MSG_DONE = "done"
MSG_ERROR = "error"

#: Wire tags: coordinator -> worker, inside a run.
REPLY_RESULT = "result"

#: Wire tags: coordinator -> worker, between runs (the command loop).
CMD_RUN = "run"
CMD_EXIT = "exit"


@dataclass(frozen=True)
class WorkerSpec:
    """What is fixed for a worker's lifetime, shipped picklable at process
    start; everything that belongs to a run travels in its ``CMD_RUN``."""

    rank: int
    p: int
    cache: CacheParams
    shm_threshold: int
    #: Pooled-arena transport (default); False selects the legacy
    #: one-segment-per-array codec, the transport gate's reference.
    use_arena: bool = True
    #: Shared-memory slab name prefix for this rank's arena.  Set by the
    #: coordinator to a per-pool deterministic value so that a killed
    #: worker's slabs can be swept by name prefix at pool shutdown.
    slab_prefix: str | None = None


def _drive(conn, spec: WorkerSpec, transport: Transport, *, world_gid, seed,
           program, args, kwargs, faults) -> None:
    """Run one ``CMD_RUN`` to completion, brokering collectives via ``conn``.

    ``transport`` is the worker's one arena, open across runs; its stats
    restart here so the DONE message carries this run's only.
    """
    world = Group(world_gid, tuple(range(spec.p)))
    counters = ProcCounters()
    ctx = Context(
        rank=spec.rank,
        p=spec.p,
        comm=Communicator(world, spec.rank),
        rng=RngStreams(seed).for_rank(spec.rank),
        counters=counters,
        cache=spec.cache,
    )
    gen = gen_value = None
    app_s = mpi_s = 0.0
    inbox = None
    transport.stats = TransportStats()
    # Every MSG_DONE of the previous run is in, so every peer has decoded
    # what this arena lent it: slabs no reply got to name are free.
    transport.release_all()
    injector = FaultInjector(faults, spec.rank)
    local_step = 0  # collectives this rank has completed

    # Graph-plane markers resolve here, once per run: attach the published
    # segment (cached across a warm worker's runs) and rebuild zero-copy
    # read-only views — the O(1)-pickle input path (repro.graph.shm).
    gen = program(ctx, *resolve_plane(args), **resolve_plane(kwargs))
    while True:
        t0 = perf_counter()
        try:
            op = gen.send(inbox)
        except StopIteration as stop:
            app_s += perf_counter() - t0
            gen_value = stop.value
            break
        app_s += perf_counter() - t0

        if not isinstance(op, CollectiveOp):
            raise TypeError(
                f"rank {spec.rank} yielded {type(op).__name__}; programs may "
                "only yield collective operations (use `yield from comm.<op>`)"
            )
        if op.sender != spec.rank:
            raise CollectiveMismatchError(
                f"rank {spec.rank} issued a collective through rank "
                f"{op.sender}'s communicator view"
            )

        # Deterministic fault injection point: after local compute, before
        # this rank's `local_step`-th collective request leaves the process
        # (the simulator wrapper injects at the same point — see
        # repro.faults).  `work` charges land before the counters are
        # pickled below, so the synthetic imbalance propagates into wait
        # counters exactly as real computation would.
        delay_s = 0.0
        dropped = False
        for fault in injector.at(local_step):
            if fault.kind == "crash":
                conn.close()  # abrupt: no error report, just a dead process
                os._exit(fault.exitcode)
            elif fault.kind == "work":
                counters.charge(ops=fault.ops)
            elif fault.kind == "stall":
                time.sleep(fault.seconds)
            elif fault.kind == "delay":
                delay_s += fault.seconds
            elif fault.kind == "drop":
                dropped = True

        t1 = perf_counter()
        wire_payload, _ = transport.encode(op.payload, op.kind)
        msg = (MSG_OP, spec.rank, replace(op, payload=wire_payload), counters)
        buf = ForkingPickler.dumps(msg)
        transport.stats.note(op.kind, pickle_bytes=len(buf))
        if dropped:
            # The request never reaches the coordinator: go silent until
            # the inactivity timeout tears the pool down.
            while True:
                time.sleep(3600.0)
        if delay_s:
            time.sleep(delay_s)
        conn.send_bytes(buf)
        msg = conn.recv()
        mpi_s += perf_counter() - t1

        if msg[0] != REPLY_RESULT:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected coordinator reply {msg[0]!r}")
        # The coordinator ran the collective on the counters this request
        # carried; adopt the result in place (the program holds `counters`).
        # `freed` names the slabs of this arena every reader — coordinator
        # or peer — has provably decoded; none is pooled before it is named.
        _, payload, charged, freed = msg
        transport.release(freed)
        vars(counters).update(vars(charged))
        inbox = transport.decode(payload, op.kind)
        local_step += 1

    # The DONE value rides legacy one-shot segments: this run is past its
    # arena sends when the coordinator decodes, so arena slabs cannot
    # carry it.
    done_value = encode_payload(gen_value, spec.shm_threshold)
    conn.send((
        MSG_DONE, spec.rank, done_value,
        counters, app_s, mpi_s, transport.stats,
    ))


def _reset_inherited_signals() -> None:
    """Fork-started workers inherit the parent's signal dispositions —
    including any custom SIGINT/SIGTERM handler a long-running CLI
    (``repro.cli serve``) installed, which must never run inside a
    worker.  Shutdown is the coordinator's concern: workers ignore
    Ctrl-C (the coordinator drains the pool and sends CMD_EXIT) and
    take the default action on SIGTERM."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass


def persistent_worker_main(conn, spec: WorkerSpec, first=None) -> None:
    """Process entry point: the command loop.  Never raises.

    ``first``, when given, is a :data:`CMD_RUN` the worker starts on
    without waiting — a fork-started one-shot pool hands the run over in
    the process arguments.  Then it blocks on commands and drives each
    :data:`CMD_RUN` through
    :func:`_drive` against the one :class:`~repro.runtime.transport.
    Transport` opened here, so arena slabs stay mapped across runs.
    Programs arrive pickled by *reference* (module + qualname) the
    **first** time a coordinator-assigned token appears; repeat runs ship
    only the token and the worker replays the cached callable — programs
    must therefore be importable module-level functions, true of every
    program in the tree.  :data:`CMD_EXIT` (or EOF from a departed
    coordinator) closes the arena — unlinking this worker's own slabs, so
    a clean exit leaves nothing for the leak sweep to find — and exits;
    any error is reported and ends the process, because a failed
    collective can leave peers blocked mid-protocol — the coordinator
    discards the whole pool on failure anyway.
    """
    _reset_inherited_signals()
    transport = Transport(threshold=spec.shm_threshold,
                          use_arena=spec.use_arena,
                          slab_prefix=spec.slab_prefix)
    programs: dict[int, Callable] = {}  # coordinator token -> callable
    try:
        while True:
            try:
                msg, first = first or conn.recv(), None
            except EOFError:  # coordinator went away: clean exit
                break
            if msg[0] == CMD_EXIT:
                break
            if msg[0] != CMD_RUN:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown worker command {msg[0]!r}")
            _, world_gid, seed, token, program, args, kwargs, faults = msg
            if program is None:
                program = programs[token]
            else:
                programs[token] = program
            _drive(conn, spec, transport, world_gid=world_gid, seed=seed,
                   program=program, args=args, kwargs=kwargs, faults=faults)
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
        try:
            conn.send((
                MSG_ERROR, spec.rank, type(exc).__name__,
                traceback.format_exc(),
            ))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        transport.close()
        conn.close()
