"""The BSP superstep engine.

Runs ``p`` virtual processors, each executing the same generator program
(SPMD).  A processor runs local code until it yields a
:class:`~repro.bsp.comm.CollectiveOp`; once every member of the group has
yielded a matching request, the engine executes the collective, charges
communication and synchronization imbalance, and resumes the members.
Sub-communicators from ``split`` progress independently, like processor
groups running minimum-cut trials concurrently.  Execution is
deterministic: ranks in order, complete collectives in gid order, all
randomness from one root seed through per-rank Philox streams.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable

import numpy as np

from repro.bsp.comm import CollectiveOp, Communicator, Group, payload_words
from repro.bsp.counters import CountersReport, ProcCounters
from repro.bsp.errors import CollectiveMismatchError, DeadlockError
from repro.bsp.fusion import FusionConfig, FusionState, as_fusion_config
from repro.bsp.machine import MachineModel, TimeEstimate
from repro.cache.model import CacheParams
from repro.rng.streams import RngStreams
from repro.trace.events import FINAL, TraceEvent
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["Context", "Engine", "RunResult"]


class Context:
    """Per-processor execution context handed to SPMD programs: global
    ``rank`` of ``p``, the world ``comm`` (``split`` it for groups), this
    processor's Philox ``rng`` stream and cost ``counters``, and the
    ``cache`` geometry of the analytic CO charges."""

    __slots__ = ("rank", "p", "comm", "rng", "counters", "cache")

    def __init__(self, rank: int, p: int, comm: Communicator,
                 rng: np.random.Generator, counters: ProcCounters,
                 cache: CacheParams):
        self.rank = rank
        self.p = p
        self.comm = comm
        self.rng = rng
        self.counters = counters
        self.cache = cache

    # -- cost charging helpers ---------------------------------------------

    def charge(self, ops: float = 0.0, misses: float = 0.0) -> None:
        """Charge raw local computation / cache misses."""
        self.counters.charge(ops=ops, misses=misses)

    def charge_scan(self, elems: float, words_per_elem: int = 1) -> None:
        """Streaming pass over ``elems`` elements: linear ops, scan misses."""
        self.counters.charge(
            ops=elems, misses=self.cache.scan(elems * words_per_elem)
        )

    def charge_sort(self, elems: float, words_per_elem: int = 1) -> None:
        """Comparison sort of ``elems`` elements: n log n ops, CO sort misses."""
        if elems <= 1:
            return
        self.counters.charge(
            ops=elems * max(1.0, np.log2(elems)),
            misses=self.cache.sort(elems * words_per_elem),
        )

    def charge_random(self, accesses: float, working_set: float | None = None) -> None:
        """``accesses`` random touches into a working set of given size."""
        self.counters.charge(
            ops=accesses, misses=self.cache.random_access(accesses, working_set)
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one SPMD run: per-rank return values + aggregated costs."""

    values: list
    report: CountersReport
    time: TimeEstimate
    trace: list[TraceEvent] | None = None

    @property
    def root_value(self) -> Any:
        """Return value of rank 0 (where algorithms deposit their result)."""
        return self.values[0]

    def trace_kinds(self) -> list[str]:
        """Sequence of executed collective kinds (traced runs only).

        A fused superstep contributes every collective merged into it, so
        the list is the same with and without fusion.  The terminal
        :data:`~repro.trace.events.FINAL` flush record is not a collective
        and is excluded.
        """
        if self.trace is None:
            raise ValueError("an untraced run has no event log")
        return [k for ev in self.trace if ev.kind != FINAL
                for k in ev.fused or (ev.kind,)]


#: Collectives whose members must agree on the root rank.
ROOTED_KINDS = frozenset(
    {"bcast", "gather", "reduce", "gatherv", "scatterv"}
)

_DONE = object()


def _zigzag(x: int) -> int:
    """Fold an integer onto the non-negatives (for the gid pairing)."""
    return 2 * x if x >= 0 else -2 * x - 1


def _cantor(a: int, b: int) -> int:
    """Cantor pairing: a bijection N x N -> N."""
    return (a + b) * (a + b + 1) // 2 + b


def _split_gid(parent_gid: int, split_seq: int, color: int) -> int:
    """Deterministic gid of a split-created group.

    A pure function of (parent group, how many splits that group executed
    before this one, color) — all scheduler-independent quantities — so
    sub-communicator identities, and with them trace event streams, are
    identical across backends regardless of how concurrently-progressing
    groups interleave.  The +2 keeps clear of the world gid (1) and the
    trace FINAL record's gid (0); injectivity is Cantor's.
    """
    return _cantor(_cantor(parent_gid, split_seq), _zigzag(color)) + 2


class Engine:
    """Deterministic BSP simulator; see module docstring."""

    def __init__(self, cache: CacheParams | None = None,
                 machine: MachineModel | None = None,
                 tracer: Tracer | None = None,
                 fuse: bool | FusionConfig | None = None):
        self.cache = cache or CacheParams()
        self.machine = machine or MachineModel()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Automatic adjacent-fusion policy; None (default) disables the
        #: merge so superstep counts match the pre-fusion engine exactly.
        self.fuse = as_fusion_config(fuse)
        self._next_gid = 0
        self._split_seq: dict[int, int] = {}
        # Auto-fusion bookkeeping (reset per run; see _execute):
        self._fusion: FusionState | None = None
        self._post_sync: dict[int, tuple[float, float]] = {}  # rank -> (ops, misses)

    def _new_group(self, members: tuple[int, ...]) -> Group:
        self._next_gid += 1
        return Group(self._next_gid, members)

    # -- main entry ----------------------------------------------------------

    def _begin_run(self, p) -> Group:
        """Validate ``p``, reset the per-run state, return the world group.
        Group ids restart every run, so gids (and traces) are a pure
        function of (program, p, seed) on every backend."""
        try:
            p = operator.index(p)
        except TypeError:
            raise TypeError(
                f"p must be an integer, got {type(p).__name__} ({p!r})"
            ) from None
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        self._next_gid = 0
        self._split_seq = {}
        self._fusion = FusionState(self.fuse) if self.fuse is not None else None
        self._post_sync = {}
        return self._new_group(tuple(range(p)))

    def run(
        self,
        program: Callable[..., Generator],
        p: int,
        *,
        seed: int = 0,
        args: Iterable[Any] = (),
        kwargs: dict | None = None,
    ) -> RunResult:
        """Execute ``program(ctx, *args, **kwargs)`` on ``p`` processors.

        ``p`` must be an integer >= 1 (``p = 1``: every collective is a
        self-communication); anything else raises ``TypeError`` or
        ``ValueError`` before any program code runs, on every backend.
        """
        world = self._begin_run(p)
        p = world.size
        kwargs = kwargs or {}
        tracer = self._tracer
        events_before = len(tracer)
        streams = RngStreams(seed)
        counters = [ProcCounters() for _ in range(p)]
        gens = [
            program(
                Context(
                    rank=r, p=p, comm=Communicator(world, r),
                    rng=streams.for_rank(r), counters=counters[r],
                    cache=self.cache,
                ),
                *args, **kwargs,
            )
            for r in range(p)
        ]
        values: list[Any] = [None] * p
        inbox: list[Any] = [None] * p          # value to send into the generator
        pending: dict[int, CollectiveOp] = {}  # rank -> blocked request
        live = set(range(p))                   # ranks not yet terminated
        runnable: list[int] = list(range(p))

        while live:
            # Phase 1: advance runnable processors until they block or finish.
            for r in runnable:
                try:
                    op = gens[r].send(inbox[r])
                except StopIteration as stop:
                    values[r] = stop.value
                    live.discard(r)
                    continue
                if not isinstance(op, CollectiveOp):
                    raise TypeError(
                        f"rank {r} yielded {type(op).__name__}; programs may only "
                        "yield collective operations (use `yield from comm.<op>`)"
                    )
                if op.sender != r:
                    raise CollectiveMismatchError(
                        f"rank {r} issued a collective through rank {op.sender}'s "
                        "communicator view"
                    )
                pending[r] = op
                inbox[r] = None
            runnable = []

            # Phase 2: execute the groups whose members all posted a request.
            for group, ops in self._ready(pending, live, p):
                self._execute(group, ops, counters, inbox)
                for op in ops:
                    del pending[op.sender]
                    runnable.append(op.sender)
            runnable.sort()

        trace = None
        if tracer.enabled:
            tracer.on_finish([c.snapshot() for c in counters])
            # This run's slice: canonical order, and a tracer spanning
            # several runs keeps Lamport steps strictly increasing, so
            # earlier runs' events sort strictly before ours.
            trace = tracer.events()[events_before:]
        report = CountersReport.from_procs(counters)
        return RunResult(values=values, report=report,
                         time=self.machine.predict(report),
                         trace=trace)

    def _ready(self, pending: dict[int, CollectiveOp], live, p: int,
               ) -> list[tuple[Group, list[CollectiveOp]]]:
        """The groups, in gid order, whose members have all posted a request.

        ``pending`` maps each blocked rank to its request; ``live`` holds
        the ranks that have not terminated (on mp workers: blocked or
        still computing).  Raises :class:`DeadlockError` when a waiting
        group has a terminated member, and when every live rank is blocked
        yet no group is complete.
        """
        by_group: dict[int, list[CollectiveOp]] = {}
        for op in pending.values():
            by_group.setdefault(op.group.gid, []).append(op)
        ready = []
        for gid in sorted(by_group):
            ops = by_group[gid]
            group = ops[0].group
            waiting = {op.sender for op in ops}
            missing = [m for m in group.members if m not in waiting]
            if any(m in live for m in missing):
                continue  # computing, or blocked on another group; not ready
            if missing:
                raise DeadlockError(
                    f"collective {ops[0].kind!r} on group {gid} can never "
                    f"complete: member(s) {missing} already terminated while "
                    f"{sorted(waiting)} are waiting"
                )
            ready.append((group, ops))
        if not ready and pending and len(pending) == len(live):
            blocked = {
                r: f"{op.kind} on group {op.group.gid}"
                for r, op in sorted(pending.items())
            }
            raise DeadlockError(
                f"no collective can complete; blocked processors: {blocked}; "
                f"terminated: {[r for r in range(p) if r not in live]}"
            )
        return ready

    # -- collective execution ------------------------------------------------

    def _handler_for(self, group: Group, ops: list[CollectiveOp]) -> Callable:
        """The ``_exec_<kind>`` method for a matched collective, once its
        members are seen to agree on the kind and (if rooted) the root."""
        kinds = {op.kind for op in ops}
        if len(kinds) != 1:
            detail = {op.sender: op.kind for op in ops}
            raise CollectiveMismatchError(
                f"group {group.gid} members issued different collectives: {detail}"
            )
        kind = ops[0].kind
        if kind in ROOTED_KINDS:
            roots = {op.root for op in ops}
            if len(roots) != 1:
                raise CollectiveMismatchError(
                    f"group {group.gid} members disagree on the {kind} root: {roots}"
                )
        handler = getattr(self, f"_exec_{kind}", None)
        if handler is None:
            raise CollectiveMismatchError(f"unknown collective kind {kind!r}")
        return handler

    def _execute(
        self,
        group: Group,
        ops: list[CollectiveOp],
        counters: list[ProcCounters],
        inbox: list[Any],
        wall_s: float = 0.0,
    ) -> None:
        """Run one matched collective: sync accounting, fusion, charges on
        ``counters``, trace record, results into ``inbox``.  ``wall_s`` is
        the measured time since the previous record (mp workers only)."""
        ops.sort(key=lambda o: o.local_rank)
        handler = self._handler_for(group, ops)
        kind = ops[0].kind
        members = group.members
        gid = group.gid
        fusion = self._fusion

        # Adjacent fusion: every member arrived with *zero* local charges
        # since this group's previous collective, so it joins the group's
        # current superstep — a pure latency elision that changes only the
        # superstep count (every since-sync value is zero).
        merged = False
        words = -1
        track = fusion is not None or self._tracer.enabled
        clean: tuple[bool, ...] = ()
        if track:
            # Arrival cleanliness: no (ops, misses) charges since the
            # member's previous sync — for the merge and the trace record.
            clean = tuple(
                self._post_sync.get(m, (0.0, 0.0))
                == (counters[m].ops, counters[m].misses)
                for m in members
            )
        if fusion is not None:
            merged, words = fusion.step(group, ops, clean)

        if not merged:
            # Synchronization accounting: supersteps + imbalance wait.
            since_sync = [
                counters[m].ops - counters[m].ops_at_last_sync for m in members
            ]
            slowest = max(since_sync)
            for m, c in zip(members, since_sync):
                counters[m].wait_ops += slowest - c
                counters[m].ops_at_last_sync = counters[m].ops
                counters[m].supersteps += 1

        results = handler(group, ops, counters)
        if self._tracer.enabled:
            # Post-collective cumulative snapshots: the tracer derives the
            # exact since-sync deltas itself (ops[i].sender == members[i]).
            if words < 0:
                words = sum(payload_words(op.payload) for op in ops)
            snapshots = [counters[m].snapshot() for m in members]
            if merged:
                self._tracer.on_merge(
                    kind=kind, gid=gid, participants=members,
                    words=words, snapshots=snapshots, wall_s=wall_s,
                )
            else:
                self._tracer.on_collective(
                    kind=kind, gid=gid, participants=members,
                    words=words, snapshots=snapshots, wall_s=wall_s,
                    clean=clean,
                )
        if track:
            self._post_sync.update(
                (m, (counters[m].ops, counters[m].misses)) for m in members
            )
        for op, res in zip(ops, results):
            inbox[op.sender] = res

    def _charge(self, counters: list[ProcCounters], member: int,
                sent: float, recv: float) -> None:
        moved = sent + recv
        counters[member].charge_comm(
            sent, recv, misses=self.cache.scan(moved) if moved else 0.0
        )

    def _exec_barrier(self, group, ops, counters):
        for op in ops:
            self._charge(counters, op.sender, 1, 1)
        return [None] * len(ops)

    def _exec_bcast(self, group, ops, counters):
        value = ops[ops[0].root].payload  # ops are sorted by local rank
        k = payload_words(value)
        for op in ops:
            if op.local_rank == op.root:
                self._charge(counters, op.sender, k, 0)
            else:
                self._charge(counters, op.sender, 0, k)
        return [value] * len(ops)

    def _exec_gather(self, group, ops, counters):
        gathered = [op.payload for op in ops]
        total = sum(payload_words(v) for v in gathered)
        results = []
        for op in ops:
            if op.local_rank == op.root:
                self._charge(counters, op.sender, 0, total)
                results.append(gathered)
            else:
                self._charge(counters, op.sender, payload_words(op.payload), 0)
                results.append(None)
        return results

    def _exec_allgather(self, group, ops, counters):
        gathered = [op.payload for op in ops]
        total = sum(payload_words(v) for v in gathered)
        for op in ops:
            self._charge(counters, op.sender, payload_words(op.payload), total)
        return [gathered] * len(ops)

    def _reduce_values(self, ops, counters):
        fold = ops[0].op
        assert fold is not None
        acc = ops[0].payload
        for op in ops[1:]:
            acc = fold(acc, op.payload)
        # Tree reduction: every proc sends/combines O(k) words.
        for op in ops:
            k = payload_words(op.payload)
            counters[op.sender].charge(ops=float(k))
        return acc

    def _exec_reduce(self, group, ops, counters):
        acc = self._reduce_values(ops, counters)
        k = payload_words(acc)
        results = []
        for op in ops:
            if op.local_rank == op.root:
                self._charge(counters, op.sender, 0, k)
                results.append(acc)
            else:
                self._charge(counters, op.sender, payload_words(op.payload), 0)
                results.append(None)
        return results

    def _exec_allreduce(self, group, ops, counters):
        acc = self._reduce_values(ops, counters)
        k = payload_words(acc)
        for op in ops:
            self._charge(counters, op.sender, payload_words(op.payload), k)
        return [acc] * len(ops)

    # -- typed array collectives --------------------------------------------
    #
    # The untyped counterparts' semantics and charges: a bundle's words
    # are its columns' (``counts`` is free, as in MPI), and results are
    # concatenated/split column-wise in local-rank order.

    @staticmethod
    def _concat_bundles(group, parts):
        # ArrayBundle — or, on mp workers, its wire descriptor.
        try:
            return type(parts[0]).concat(parts)
        except ValueError as exc:
            raise CollectiveMismatchError(
                f"group {group.gid} members' bundles do not align: {exc}"
            ) from None

    def _exec_gatherv(self, group, ops, counters):
        gathered = self._concat_bundles(group, [op.payload for op in ops])
        total = gathered.__bsp_words__()
        results = []
        for op in ops:
            if op.local_rank == op.root:
                self._charge(counters, op.sender, 0, total)
                results.append(gathered)
            else:
                self._charge(counters, op.sender, payload_words(op.payload), 0)
                results.append(None)
        return results

    def _exec_allgatherv(self, group, ops, counters):
        gathered = self._concat_bundles(group, [op.payload for op in ops])
        total = gathered.__bsp_words__()
        for op in ops:
            self._charge(counters, op.sender, payload_words(op.payload), total)
        return [gathered] * len(ops)

    def _exec_scatterv(self, group, ops, counters):
        bundle = ops[ops[0].root].payload  # ops are sorted by local rank
        parts = bundle.split_rows(bundle.counts)
        results = []
        for op in ops:
            part = parts[op.local_rank]
            if op.local_rank == op.root:
                self._charge(counters, op.sender, bundle.__bsp_words__(), 0)
            else:
                self._charge(counters, op.sender, 0, part.__bsp_words__())
            results.append(part)
        return results

    def _exec_alltoallv(self, group, ops, counters):
        size = group.size
        for op in ops:
            if len(op.payload) != size:
                raise CollectiveMismatchError(
                    f"alltoallv payload of rank {op.sender} has "
                    f"{len(op.payload)} parcels, expected {size}"
                )
        results = []
        for i, op in enumerate(ops):
            received = self._concat_bundles(
                group, [ops[j].payload[i] for j in range(size)]
            )
            sent = sum(payload_words(b) for b in op.payload)
            self._charge(counters, op.sender, sent, received.__bsp_words__())
            results.append(received)
        return results

    def _exec_alltoall(self, group, ops, counters):
        size = group.size
        for op in ops:
            if len(op.payload) != size:
                raise CollectiveMismatchError(
                    f"alltoall payload of rank {op.sender} has {len(op.payload)} "
                    f"items, expected {size}"
                )
        results = []
        for i, op in enumerate(ops):
            received = [ops[j].payload[i] for j in range(size)]
            sent = sum(payload_words(v) for v in op.payload)
            recv = sum(payload_words(v) for v in received)
            self._charge(counters, op.sender, sent, recv)
            results.append(received)
        return results

    def _exec_split(self, group, ops, counters):
        # payload = (color, key); new groups ordered by color, then (key, rank).
        # Child gids are a deterministic function of (parent gid, split
        # sequence number, color) so that traces match across backends.
        seq = self._split_seq.get(group.gid, 0)
        self._split_seq[group.gid] = seq + 1
        by_color: dict[int, list[CollectiveOp]] = {}
        for op in ops:
            by_color.setdefault(op.payload[0], []).append(op)
        new_comm: dict[int, Communicator] = {}
        for color in sorted(by_color):
            cohort = sorted(by_color[color], key=lambda o: (o.payload[1], o.local_rank))
            new_group = Group(_split_gid(group.gid, seq, color),
                              tuple(o.sender for o in cohort))
            for local, op in enumerate(cohort):
                new_comm[op.sender] = Communicator(new_group, local)
        for op in ops:
            self._charge(counters, op.sender, 1, 1)
        return [new_comm[op.sender] for op in ops]
