"""Worker-process side of the multiprocess backends: the command loop and
the peer-to-peer superstep.

Each worker runs the simulator's generator program with its own
:class:`~repro.bsp.engine.Context` and :class:`~repro.bsp.engine.Engine`.
A superstep concerns one group's members and nobody else (:class:`Peers`):
a rank posts its request into its slot of the pool's :class:`ControlBlock`
and rings its group's doorbells; once every member has posted the
matching collective (same run, group and per-group step) it runs
``Engine._execute`` on those requests, as every member does, and keeps
its own result and counters — the simulator's arithmetic on the same
inputs.  Wall-clock splits into *application* time (generator running)
and *MPI* time (encode to result).  One command loop
(:func:`persistent_worker_main`) under ``mp`` and ``warm``, spawn-safe;
a one-shot ``mp`` run's rank 0 is the caller itself (:func:`run_here`).
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import time
import traceback
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

from repro.bsp.comm import CollectiveOp, Communicator, Group
from repro.bsp.counters import ProcCounters
from repro.bsp.engine import Context, Engine
from repro.bsp.errors import CollectiveMismatchError
from repro.bsp.fusion import FusionConfig
from repro.cache.model import CacheParams
from repro.faults import FaultInjector
from repro.graph.shm import resolve_plane
from repro.malloc import trim
from repro.rng.streams import RngStreams
from repro.runtime.errors import WorkerCrashError, WorkerProgramError
from repro.runtime.transport import Transport, TransportStats, encode_payload
from repro.shmem import attach_segment
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["WorkerSpec", "ControlBlock", "persistent_worker_main",
           "MSG_DONE", "MSG_ERROR", "MSG_FAULT", "CMD_RUN", "CMD_EXIT"]

#: Worker -> parent.  ``MSG_ERROR``: the program raised (type name and
#: traceback); ``MSG_FAULT``: the superstep raised (a deadlock, a
#: mismatch, a failing fold) and carries the exception itself.
MSG_DONE, MSG_ERROR, MSG_FAULT = "done", "error", "fault"
#: Parent -> worker, between runs.
CMD_RUN, CMD_EXIT = "run", "exit"

#: Collectives that move values without folding (or slicing) them: in
#: arena mode they run on the senders' descriptors, and each member maps
#: the slabs its own result points into.
FORWARDED = frozenset({"bcast", "gather", "allgather", "alltoall",
                       "gatherv", "allgatherv", "alltoallv"})

#: A rank's state in its control-block head.
RUNNING, BLOCKED, DONE = 0, 1, 2
#: int64 words per head (run, state, completed steps, version) and per
#: slot (seq — 0 while written —, run, gid, per-group step, post bytes).
_HEAD, _SLOT = 4, 5
#: Post bytes a slot holds; a longer post rides an arena slab.
_SLOT_BYTES = 1 << 17
#: How long a waiting rank polls before it sleeps on its doorbell, when
#: every rank has a CPU of its own (a peer about to post is cheaper to
#: poll for than to be woken by); and its longest sleep, between checks
#: for a deadlock and for a departed parent (the caller's rank: for its
#: workers' reports and deaths, ``_WATCH_S``).
_SPIN_S, _WAKE_S, _WATCH_S = 2e-3, 1.0, 0.05


@dataclass(frozen=True)
class WorkerSpec:
    """What is fixed for a worker's lifetime: ``slab_prefix`` names its
    segments (the parent's sweep), ``block`` is the pool's control block."""

    rank: int
    p: int
    cache: CacheParams
    shm_threshold: int
    use_arena: bool = True
    slab_prefix: str | None = None
    block: str = ""
    trace: bool = False
    fuse: FusionConfig | None = None


class ControlBlock:
    """One pool's superstep state, in one segment the parent owns.  Per
    rank: a head (run, state, completed steps, a version bumped on every
    state change) and two post slots; per (reader, owner): the owner's
    last post the reader copied (``sack``) and the last whose payload it
    is done with (``dack``).  Slots are seqlocks; every word has one
    writer, stores reach other processes in program order (x86-TSO), and
    the doorbell semaphores are full barriers."""

    def __init__(self, seg, p: int):
        self.seg, self.p = seg, p
        self.sack = p * _HEAD + 2 * p * _SLOT
        self.dack = self.sack + p * p
        self.data = 8 * (self.dack + p * p)
        self.w = seg.buf[:self.data].cast("q")

    @staticmethod
    def nbytes(p: int) -> int:
        return 8 * (p * _HEAD + 2 * p * _SLOT + 2 * p * p) + 2 * p * _SLOT_BYTES

    def slot(self, rank: int, i: int) -> tuple[int, int]:
        """Word index and data offset of ``rank``'s slot ``i``."""
        k = 2 * rank + i
        return self.p * _HEAD + k * _SLOT, self.data + k * _SLOT_BYTES

    def heads(self) -> list[list[int]]:
        return [self.w[r * _HEAD:(r + 1) * _HEAD].tolist()
                for r in range(self.p)]

    def close(self) -> None:
        self.w.release()
        self.seg.close()


class _Fault(Exception):
    """Wraps an exception the superstep raised, for ``MSG_FAULT``."""


class _AsIs(BaseException):
    """Wraps what the caller's rank raises unchanged: a worker failure its
    watch found, or its own crash fault."""


class _Capture(Tracer):
    """A worker's tracer: keeps the hook calls of the groups this rank is
    the lowest member of, stamped with the Lamport step the posted clocks
    give; the parent replays them in ``(step, gid, order)`` order, which
    respects every rank's program order."""

    enabled = True

    def __init__(self, rank: int):
        self.rank, self.clock, self.events = rank, {}, []

    def on_collective(self, **kw) -> None:
        step = 1 + max(self.clock.get(r, 0) for r in kw["participants"])
        self.clock.update(dict.fromkeys(kw["participants"], step))
        self._keep(step, "on_collective", kw)

    def on_merge(self, **kw) -> None:
        self._keep(self.clock[self.rank], "on_merge", kw)

    def _keep(self, step, hook, kw) -> None:
        if min(kw["participants"]) == self.rank:
            self.events.append((step, kw["gid"], len(self.events), hook, kw))


class Peers:
    """This rank's end of the control block (post, match, ack) and its
    transport.  A reader acks a post's slot as it copies it and the post's
    payload segments at its own next post; the owner reuses either once
    every reader has."""

    def __init__(self, spec: WorkerSpec, bells):
        self.spec, self.rank, self.p = spec, spec.rank, spec.p
        self.block = ControlBlock(attach_segment(spec.block), spec.p)
        self.bells, self.bell = bells, bells[spec.rank]
        self.transport = Transport(threshold=spec.shm_threshold,
                                   use_arena=spec.use_arena,
                                   slab_prefix=spec.slab_prefix)
        self.watch = None  # the caller's rank: see run_here
        self.seq = 0
        self.readers = [(), ()]  # per slot: the ranks that must copy it
        self.lent = []           # (seq, segment names, readers) unacked
        self.read = []           # (owner, seq) read since our last post
        self.ppid = os.getppid()
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        self.spin_s = _SPIN_S if spec.p <= (cpus or 1) else 0.0
        self.run, self.engine = 0, None

    def _set(self, state: int, steps: int | None = None) -> None:
        w, h = self.block.w, self.rank * _HEAD
        w[h + 1] = state
        if steps is not None:
            w[h + 2] = steps
        w[h + 3] += 1

    def begin(self, engine: Engine | None) -> None:
        """A new run — the parent's count of them is ours: it sends every
        run to every rank.  The readers of the last one have acked it."""
        self.run, self.engine = self.run + 1, engine
        self.transport.release([n for _, ns, _ in self.lent for n in ns])
        self.lent = []
        # State before run word: a peer's snapshot pairing the new run
        # with the last run's DONE would read this rank as terminated.
        self._set(RUNNING, 0)
        self.block.w[self.rank * _HEAD] = self.run

    def _ack_reads(self) -> None:
        w, row = self.block.w, self.block.dack + self.rank * self.p
        for owner, seq in self.read:
            w[row + owner] = seq
        self.read = []

    def exchange(self, group: Group, gstep: int, buf: bytes,
                 names: list[str], readers: tuple) -> dict[int, bytes]:
        """Post ``buf`` as this rank's ``gstep``-th collective on
        ``group``; return every other member's matching post.  ``names``
        are the post's payload segments, ``readers`` who will map them."""
        me, p, b = self.rank, self.p, self.block
        w, s = b.w, self.seq + 1
        others = tuple(m for m in group.members if m != me)
        self._ack_reads()
        old = self.readers[s & 1]
        if old:  # the slot's last post must be copied by all its readers
            self._wait(lambda: all(w[b.sack + r * p + me] >= s - 2
                                   for r in old))
        if names:
            self.lent.append((s, names, readers))
        n = len(buf)
        if n > _SLOT_BYTES:  # every member reads this slab, as a slot
            seg = self.transport.arena.acquire(n)
            seg.buf[:n] = buf
            self.lent.append((s, [seg.name], others))
            buf = pickle.dumps((seg.name, n))
            n = -len(buf)
        word, off = b.slot(me, s & 1)
        w[word] = 0
        b.seg.buf[off:off + len(buf)] = buf
        w[word + 1], w[word + 2], w[word + 3], w[word + 4] = \
            self.run, group.gid, gstep, n
        w[word] = self.seq = s
        self.readers[s & 1] = others
        self._set(BLOCKED)
        got: dict[int, tuple[int, bytes]] = {}
        want = (self.run, group.gid, gstep)
        self._scan(others, want, got)
        for m in others:
            self.bells[m].release()

        def complete() -> bool:
            for m in self._scan(others, want, got):
                self.bells[m].release()  # it may wait to reuse the slot
            return len(got) == len(others)

        if len(got) < len(others):
            self._wait(complete, group)
        self.read += [(m, got[m][0]) for m in others]
        return {m: data for m, (_, data) in got.items()}

    def _scan(self, others, want, got) -> list[int]:
        """Copy the matching posts now in their slots; ack their slots."""
        b, new = self.block, []
        for m in others:
            if m in got:
                continue
            for i in (0, 1):
                word, off = b.slot(m, i)
                s = b.w[word]
                if s and (b.w[word + 1], b.w[word + 2],
                          b.w[word + 3]) == want:
                    n = b.w[word + 4]
                    data = bytes(b.seg.buf[off:off + abs(n)])
                    if b.w[word] == s:  # not rewritten meanwhile
                        got[m] = (s, self._resolve(n, data))
                        b.w[b.sack + self.rank * self.p + m] = s
                        new.append(m)
                    break
        return new

    def _resolve(self, n: int, data: bytes) -> bytes:
        if n >= 0:
            return data
        name, size = pickle.loads(data)  # an oversized post's slab
        return bytes(self.transport.attach(name).buf[:size])

    def _wait(self, done, group: Group | None = None) -> None:
        start = now = perf_counter()
        while now - start < self.spin_s:
            if done():
                return
            if now - start > 2e-4:  # yield, should the peer share our CPU
                os.sched_yield()
            now = perf_counter()
        while not done():
            while self.bell.acquire(False):
                pass  # rings are hints: drain them, then re-check
            if done():
                return
            if group is not None:
                self._check_deadlock(group)
            if self.bell.acquire(timeout=_WAKE_S if self.watch is None
                                 else _WATCH_S):
                continue
            try:  # the caller's rank watches its workers
                if self.watch is not None:
                    self.watch()
                elif os.getppid() != self.ppid:
                    os._exit(1)  # the parent is gone
            except Exception as exc:
                raise _AsIs(exc) from None

    def _check_deadlock(self, group: Group) -> None:
        """``Engine._ready`` on a consistent snapshot of every rank's
        pending request: it raises when a waiting group has a terminated
        member, or when every live rank is blocked and no group is
        complete — so the last rank to block finds a deadlock at once."""
        b, run, p = self.block, self.run, self.p
        w, heads = b.w, b.heads()
        live = {r for r, h in enumerate(heads) if h[0] != run or h[1] != DONE}
        if set(group.members) <= live and any(
                h[0] != run or h[1] == RUNNING for h in heads):
            return
        pending = {}
        try:
            for r in live:
                if heads[r][0] != run or heads[r][1] != BLOCKED:
                    continue
                word, off = max((b.slot(r, i) for i in (0, 1)),
                                key=lambda s: w[s[0]])
                want = (run, w[word + 2], w[word + 3])
                n = w[word + 4]
                op = _op(r, pickle.loads(self._resolve(
                    n, bytes(b.seg.buf[off:off + abs(n)]))))
                # Complete but not yet noticed: every member posted it —
                # the post is still in its slot, or it copied this one.
                if all(m == r or w[b.sack + m * p + r] >= w[word] or any(
                        w[ws] and (w[ws + 1], w[ws + 2], w[ws + 3]) == want
                        for ws, _ in (b.slot(m, 0), b.slot(m, 1)))
                       for m in op.group.members):
                    return
                pending[r] = op
        except Exception:  # a slot rewritten under us: someone moved on
            return
        if [h[3] for h in b.heads()] == [h[3] for h in heads]:
            self.engine._ready(pending, live, p)

    def executed(self, steps: int) -> None:
        """The collective is done here: publish it, and pool what only we
        read, and what readers acked of *earlier* posts — this collective's
        members acked the last one as they posted, so what is pooled when
        does not depend on who got here first."""
        self._set(RUNNING, steps)
        w, me, keep = self.block.w, self.rank, []
        for entry in self.lent:
            s, names, readers = entry
            if not readers or s < self.seq and all(
                    w[self.block.dack + r * self.p + me] >= s
                    for r in readers):
                self.transport.release(names)
            else:
                keep.append(entry)
        self.lent = keep

    def finish(self) -> None:
        self._ack_reads()
        self._set(DONE)
        for r, bell in enumerate(self.bells):
            if r != self.rank:
                bell.release()

    def close(self) -> None:
        self.begin(None)  # pools, or unlinks, every lent segment
        self.block.close()
        self.transport.close()
        self.bells = self.bell = None  # a traceback may outlive the pool


def _post(op: CollectiveOp, payload, counters: ProcCounters, engine: Engine,
          capture: _Capture | None) -> bytes:
    """A request as its peers need it: op fields, payload, counters, and
    this rank's own entries of the engine's fusion and trace state."""
    fusion = engine._fusion
    return pickle.dumps((
        op.group.gid, op.group.members, op.kind, op.local_rank, payload,
        op.root, op.op, tuple(vars(counters).values()),
        engine._post_sync.get(op.sender),
        fusion and fusion._last_sync.get(op.sender),
        None if capture is None else capture.clock.get(op.sender, 0),
    ), pickle.HIGHEST_PROTOCOL)


def _op(sender: int, post: tuple) -> CollectiveOp:
    gid, members, kind, local_rank, payload, root, fold = post[:7]
    return CollectiveOp(Group(gid, members), kind, sender, local_rank,
                        payload, root, fold)


def _superstep(engine: Engine, transport: Transport, capture, op, wire,
               got, counters: ProcCounters, forwarded: bool, wall_s: float):
    """Run the matched collective on every member's request; returns this
    rank's result.  Our own counters are charged in place."""
    rank = op.sender
    ops = [replace(op, payload=wire) if forwarded else op]
    charged = {rank: counters}
    for m, data in got.items():
        post = pickle.loads(data)
        theirs = _op(m, post)
        if not forwarded:
            theirs = replace(theirs, payload=transport.decode(
                theirs.payload, theirs.kind))
        ops.append(theirs)
        charged[m] = ProcCounters(*post[7])
        post_sync, last_sync, clock = post[8:]
        if post_sync is not None:
            engine._post_sync[m] = post_sync
        if last_sync is not None:
            engine._fusion._last_sync[m] = last_sync
        if capture is not None:
            capture.clock[m] = clock
    results: dict[int, object] = {}
    engine._execute(op.group, ops, charged, results, wall_s=wall_s)
    if forwarded:
        return transport.decode(results[rank], op.kind)
    return results[rank]


def _readers(op: CollectiveOp, forwarded: bool) -> tuple:
    """Who maps ``op``'s payload: a forwarded gather's root, or all."""
    members = op.group.members
    if forwarded and op.kind in ("gather", "gatherv"):
        members = (members[op.root],)
    return tuple(m for m in members if m != op.sender)


def _drive(peers: Peers, world_gid, seed, program, args, kwargs,
           faults) -> tuple:
    """Run one ``CMD_RUN`` to completion, collective by collective; returns
    what ``MSG_DONE`` carries after the rank (the value first)."""
    spec, transport = peers.spec, peers.transport
    start = resource.getrusage(resource.RUSAGE_SELF)
    capture = _Capture(spec.rank) if spec.trace else None
    engine = Engine(cache=spec.cache, fuse=spec.fuse,
                    tracer=NULL_TRACER if capture is None else capture)
    engine._begin_run(spec.p)
    counters = ProcCounters()
    world = Group(world_gid, tuple(range(spec.p)))  # the engine's too
    ctx = Context(rank=spec.rank, p=spec.p, comm=Communicator(world, spec.rank),
                  rng=RngStreams(seed).for_rank(spec.rank),
                  counters=counters, cache=spec.cache)
    gen_value = inbox = None
    app_s = mpi_s = 0.0
    transport.stats = TransportStats()  # the DONE message's: this run's
    peers.begin(engine)
    injector = FaultInjector(faults, spec.rank)
    local_step = 0  # collectives this rank has completed
    gsteps: dict[int, int] = {}  # gid -> collectives posted on it
    last = perf_counter()

    # Graph-plane handles resolve to zero-copy views (repro.graph.shm);
    # the inputs then travel by reference (Transport.register).
    args, kwargs = resolve_plane(args), resolve_plane(kwargs)
    transport.register((args, kwargs))
    gen = program(ctx, *args, **kwargs)
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

        # Fault injection point, as in the simulator's wrapper: before the
        # `local_step`-th post, so `work` reaches the posted counters.
        delay_s = 0.0
        dropped = False
        for fault in injector.at(local_step):
            if fault.kind == "crash":
                if peers.watch is None:  # abrupt: no report, a dead process
                    os._exit(fault.exitcode)
                raise _AsIs(WorkerCrashError(spec.rank, fault.exitcode,
                                             superstep=local_step))
            elif fault.kind == "work":
                counters.charge(ops=fault.ops)
            elif fault.kind == "stall":
                time.sleep(fault.seconds)
            elif fault.kind == "delay":
                delay_s += fault.seconds
            elif fault.kind == "drop":
                dropped = True

        t1 = perf_counter()
        wire, names = transport.encode(op.payload, op.kind)
        buf = _post(op, wire, counters, engine, capture)
        transport.stats.note(op.kind, pickle_bytes=len(buf))
        while dropped:  # never posted: silent until the inactivity timeout
            time.sleep(_WATCH_S)
        if delay_s:
            time.sleep(delay_s)
        gid = op.group.gid
        gsteps[gid] = gsteps.get(gid, 0) + 1
        forwarded = transport.use_arena and op.kind in FORWARDED
        try:
            got = peers.exchange(op.group, gsteps[gid], buf, names,
                                 _readers(op, forwarded))
            inbox = _superstep(engine, transport, capture, op, wire, got,
                               counters, forwarded, perf_counter() - last)
        except Exception as exc:
            raise _Fault(exc) from exc
        last = perf_counter()
        mpi_s += last - t1
        local_step += 1
        peers.executed(local_step)

    peers.finish()
    transport.register(())
    end = resource.getrusage(resource.RUSAGE_SELF)
    usage = {"minor_faults": end.ru_minflt - start.ru_minflt, "cpu_s": (
        end.ru_utime + end.ru_stime - start.ru_utime - start.ru_stime)}
    return (gen_value, counters, app_s, mpi_s, transport.stats,
            None if capture is None else capture.events, usage)


def run_here(peers: Peers, msg: tuple, watch: Callable[[], None]) -> tuple:
    """The ``CMD_RUN`` ``msg`` as the caller's own rank (``watch`` checks
    its workers between sleeps): what ``MSG_DONE`` would carry after the
    rank, or what the parent raises for such a report."""
    peers.watch = watch
    try:
        return _drive(peers, *msg[1:3], *msg[4:])
    except _AsIs as exc:
        raise exc.args[0] from None
    except _Fault as fault:
        watch()  # a worker's report first: its failure may be the cause
        raise fault.args[0] from None
    except Exception as exc:
        raise WorkerProgramError(peers.rank, type(exc).__name__,
                                 traceback.format_exc()) from None


def persistent_worker_main(conn, spec: WorkerSpec, bells,
                           first=None) -> None:
    """Process entry point: the command loop; never raises.  ``first`` is
    a ``CMD_RUN`` to start on (a forked one-shot pool's).  Programs come
    by reference the first time the parent uses a token, then the token
    alone.  ``CMD_EXIT`` or EOF closes the transport, unlinking this
    worker's slabs; an error is reported and ends the process."""
    # Fork-started workers inherit the parent's signal handlers (the serve
    # CLI installs some); shutdown is the parent's concern.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    # A forked worker maps the caller's heap copy-on-write; giving its free
    # pages back spares the caller (rank 0) a page copy at each write
    # there: 3.4 -> 1.1 us a fault on a 2-vCPU VM.  The walk costs ~37 ms
    # per GB of fragmented heap (docs/runtime.md).
    trim()
    peers = None
    programs: dict[int, Callable] = {}  # parent token -> callable
    try:
        peers = Peers(spec, bells)
        while True:
            try:
                msg, first = first or conn.recv(), None
            except EOFError:  # the parent went away: clean exit
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
            value, *done = _drive(peers, world_gid, seed, program, args,
                                  kwargs, faults)
            # The value rides one-shot segments its single reader, the
            # parent, unlinks.
            conn.send((MSG_DONE, spec.rank,
                       encode_payload(value, spec.shm_threshold), *done))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        error = (MSG_ERROR, spec.rank, type(exc).__name__,
                 traceback.format_exc())
        try:
            conn.send((MSG_FAULT, spec.rank, exc.args[0])
                      if isinstance(exc, _Fault) else error)
        except Exception:
            try:
                conn.send(error)  # the exception did not pickle
            except Exception:  # pragma: no cover - pipe already gone
                pass
    finally:
        if peers is not None:
            peers.close()
        conn.close()
