"""Communicators and collective operations for SPMD generator programs.

Programs are written in mpi4py style but as Python generators: every
collective is invoked with ``yield from`` and returns its result, e.g.::

    def program(ctx):
        parts = yield from ctx.comm.gather(local_part, root=0)
        total = yield from ctx.comm.allreduce(x, op=operator.add)
        return total

A :class:`Communicator` is a per-processor view (local rank + size) onto a
shared :class:`Group` of global processor ids.  ``split`` creates
sub-communicators, which the minimum-cut algorithm uses both to assign
trials to processor groups and to halve groups inside Recursive Contraction.

Received payloads are shared objects, not copies: like MPI buffers on a
shared simulator they must be treated as **read-only** by receivers (copy
before mutating).  The engine charges transfer volume as if the data moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.bsp.arrays import ArrayBundle, as_bundle

__all__ = ["Group", "Communicator", "payload_words"]


def payload_words(x: Any) -> int:
    """Number of machine words a payload occupies on the wire.

    numpy arrays count one word per element; containers sum their items;
    ``None`` is free; scalars and small objects count one word.  Objects can
    override via a ``__bsp_words__()`` method.
    """
    # Exact-type fast paths for the dominant wire shapes — ndarrays and flat
    # tuples/lists of them (sort parcels, gathered forests).  Exact ``type``
    # checks cannot shadow ``__bsp_words__`` overrides (builtins never define
    # it), so these return the same counts as the general walk below.
    tx = type(x)
    if tx is np.ndarray:
        return int(x.size)
    if tx is ArrayBundle:
        return x.__bsp_words__()
    if tx is tuple or tx is list:
        total = 0
        for item in x:
            if type(item) is np.ndarray:
                total += item.size
            else:
                total += payload_words(item)
        return int(total)
    if x is None:
        return 0
    if isinstance(x, np.ndarray):
        return int(x.size)
    if hasattr(x, "__bsp_words__"):
        return int(x.__bsp_words__())
    if isinstance(x, (list, tuple)):
        return sum(payload_words(item) for item in x)
    if isinstance(x, dict):
        return sum(1 + payload_words(vv) for vv in x.values())
    return 1


@dataclass(frozen=True)
class Group:
    """A shared processor group: engine-unique id + global member ranks."""

    gid: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of member processors."""
        return len(self.members)


@dataclass(frozen=True)
class CollectiveOp:
    """One processor's pending collective request (engine-internal)."""

    group: Group
    kind: str
    sender: int          # global rank of the issuing processor
    local_rank: int
    payload: Any = None
    root: int = 0        # local rank of the root, where applicable
    op: Callable[[Any, Any], Any] | None = None


class Communicator:
    """Per-processor view of a :class:`Group` with MPI-style collectives.

    All methods are generator functions; call them with ``yield from``.
    """

    __slots__ = ("group", "rank", "_global_rank")

    def __init__(self, group: Group, local_rank: int):
        if not 0 <= local_rank < group.size:
            raise ValueError(f"local rank {local_rank} out of range for {group}")
        self.group = group
        self.rank = local_rank
        self._global_rank = group.members[local_rank]

    @property
    def size(self) -> int:
        """Number of member processors of this communicator."""
        return self.group.size

    def _op(self, kind: str, payload: Any = None, root: int = 0,
            op: Callable | None = None) -> CollectiveOp:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size-{self.size} comm")
        return CollectiveOp(
            group=self.group, kind=kind, sender=self._global_rank,
            local_rank=self.rank, payload=payload, root=root, op=op,
        )

    # -- collectives (generator functions; use with `yield from`) ----------

    def barrier(self):
        """Synchronize the group."""
        yield self._op("barrier")

    def bcast(self, value: Any = None, root: int = 0):
        """Root's ``value`` is returned at every member."""
        result = yield self._op("bcast", value if self.rank == root else None, root)
        return result

    def gather(self, value: Any, root: int = 0):
        """Returns the list of member values at the root, ``None`` elsewhere."""
        result = yield self._op("gather", value, root)
        return result

    def allgather(self, value: Any):
        """Returns the list of member values at every member."""
        result = yield self._op("allgather", value)
        return result

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0):
        """Left-fold of member values with ``op`` at the root (local-rank order)."""
        result = yield self._op("reduce", value, root, op)
        return result

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]):
        """Reduce then broadcast: every member gets the folded value."""
        result = yield self._op("allreduce", value, 0, op)
        return result

    def alltoall(self, values: Sequence[Any]):
        """Member i's ``values[j]`` is delivered to member j's result[i]."""
        if len(values) != self.size:
            raise ValueError("alltoall needs exactly one value per member")
        result = yield self._op("alltoall", list(values))
        return result

    # -- typed array collectives -------------------------------------------
    #
    # The *v operations move numpy columns as ArrayBundles: aligned typed
    # buffers with per-member row counts as uncharged metadata.  They are
    # drop-in replacements for the gather/allgather/alltoall of
    # tuples-of-arrays — identical communication charges and bit-identical
    # values — but the engine concatenates/splits column-wise, and the mp
    # transport moves each payload as one contiguous (counts, dtype,
    # flat-buffer) triple per column instead of pickled object parts.

    def gatherv(self, *columns, root: int = 0):
        """Typed gather: members' aligned columns, concatenated at the root.

        Each member contributes equal-length columns (or one ready
        :class:`ArrayBundle`).  The root receives an :class:`ArrayBundle`
        whose columns are the members' columns concatenated in local-rank
        order and whose ``counts`` are the per-member row counts; other
        members receive ``None``.  Charges are identical to
        ``gather((col0, col1, ...))``.
        """
        payload = columns[0] if len(columns) == 1 else ArrayBundle(*columns)
        result = yield self._op("gatherv", as_bundle(payload), root)
        return result

    def allgatherv(self, *columns):
        """Typed allgather: the concatenated bundle at every member.

        Like :meth:`gatherv`, but every member receives the (shared,
        read-only) concatenated :class:`ArrayBundle`.  Charges are
        identical to ``allgather((col0, col1, ...))``.
        """
        payload = columns[0] if len(columns) == 1 else ArrayBundle(*columns)
        result = yield self._op("allgatherv", as_bundle(payload))
        return result

    def scatterv(self, columns=None, counts=None, root: int = 0):
        """Typed scatter: the root's columns split into per-member row blocks.

        The root provides aligned columns (bundle, array, or tuple of
        arrays) plus ``counts`` — one non-negative row count per member,
        summing to the bundle's row count.  Member ``i`` receives the
        :class:`ArrayBundle` holding rows ``sum(counts[:i]) ..
        sum(counts[:i+1])``.  The root is charged for sending every row
        once, each member for receiving its own block.
        """
        if self.rank == root:
            if columns is None or counts is None:
                raise ValueError(
                    "scatterv root must provide columns and per-member counts"
                )
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (self.size,):
                raise ValueError(
                    f"scatterv needs one count per member, got {counts.shape} "
                    f"for a size-{self.size} communicator"
                )
            bundle = as_bundle(columns)
            if counts.size and counts.min() < 0:
                raise ValueError("scatterv counts must be non-negative")
            if int(counts.sum()) != bundle.nrows:
                raise ValueError(
                    f"scatterv counts sum to {int(counts.sum())}, bundle "
                    f"has {bundle.nrows} rows"
                )
            payload = ArrayBundle(*bundle.columns, counts=counts)
        else:
            payload = None
        result = yield self._op("scatterv", payload, root)
        return result

    def alltoallv(self, parcels: Sequence):
        """Typed all-to-all: one bundle per destination, concatenated receives.

        ``parcels[j]`` (a bundle, array, or tuple of aligned arrays) is
        delivered to member ``j``; every member receives an
        :class:`ArrayBundle` whose columns are the senders' contributions
        concatenated in local-rank order, with per-sender row counts in
        ``counts``.  All parcels of one exchange must agree on the column
        count and dtypes.  Charges are identical to ``alltoall`` of the
        same tuples-of-arrays.
        """
        if len(parcels) != self.size:
            raise ValueError("alltoallv needs exactly one parcel per member")
        bundles = [as_bundle(q) for q in parcels]
        ncols = bundles[0].ncols
        if any(b.ncols != ncols for b in bundles):
            raise ValueError(
                "alltoallv parcels must agree on the column count; got "
                f"{[b.ncols for b in bundles]}"
            )
        result = yield self._op("alltoallv", bundles)
        return result

    def split(self, color: int, key: int | None = None):
        """Partition the group by ``color`` into new communicators.

        Members of equal color form a new group, ordered by ``(key, old
        local rank)`` (``key`` defaults to the old local rank, preserving
        relative order as in ``MPI_Comm_split``).  Returns this member's new
        :class:`Communicator`.
        """
        result = yield self._op(
            "split", (int(color), self.rank if key is None else int(key))
        )
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(gid={self.group.gid}, rank={self.rank}/{self.size})"
