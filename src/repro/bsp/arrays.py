"""Typed multi-column array payloads for the array collectives.

An :class:`ArrayBundle` is the unit the typed collectives
(``gatherv``/``allgatherv``/``scatterv``/``alltoallv``) move: numpy
*columns* aligned on axis 0 — e.g. an edge slice's ``(u, v, w)`` — plus
an optional per-member ``counts`` vector, metadata that is not charged as
volume (as MPI does not charge ``MPI_Gatherv``'s count arrays).  One
container lets the transport pack a multi-column payload into one
shared-memory slab and the engine concatenate contributions column-wise.
Receivers treat the columns as read-only (:mod:`repro.bsp.comm`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["ArrayBundle", "as_bundle", "concat_columns"]


class ArrayBundle:
    """Aligned numpy columns moved as one typed payload.

    Parameters
    ----------
    columns:
        One or more ``np.ndarray`` of equal length along axis 0 (any
        dtypes, any trailing shape — 1-D edge columns and 2-D matrix row
        blocks both qualify).
    counts:
        Optional per-member row counts (metadata).  On results of the
        typed collectives this is the number of rows each group member
        contributed, in local-rank order.
    """

    __slots__ = ("columns", "counts", "_words")

    def __init__(self, *columns: np.ndarray, counts=None):
        if not columns:
            raise ValueError("ArrayBundle needs at least one column")
        cols = []
        for c in columns:
            if not isinstance(c, np.ndarray):
                raise TypeError(
                    f"bundle columns must be numpy arrays, got {type(c).__name__}"
                )
            if c.dtype.hasobject:
                raise TypeError("bundle columns must have non-object dtypes")
            cols.append(c)
        nrows = cols[0].shape[0] if cols[0].ndim else None
        for c in cols:
            if c.ndim == 0 or c.shape[0] != nrows:
                raise ValueError(
                    "bundle columns must be aligned on axis 0; got shapes "
                    f"{[c.shape for c in cols]}"
                )
        self.columns: tuple[np.ndarray, ...] = tuple(cols)
        self.counts = None if counts is None else \
            np.asarray(counts, dtype=np.int64)
        self._words = int(sum(c.size for c in cols))

    # -- payload protocol ---------------------------------------------------

    def __bsp_words__(self) -> int:
        """Wire volume in machine words: one per element, counts free."""
        return self._words

    # -- container protocol -------------------------------------------------

    @property
    def nrows(self) -> int:
        """Rows along axis 0 (shared by every column)."""
        return int(self.columns[0].shape[0])

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate columns, so ``su, sv, sw = bundle`` destructures."""
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.columns[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shapes = ", ".join(f"{c.dtype}{list(c.shape)}" for c in self.columns)
        return f"ArrayBundle({shapes})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArrayBundle):
            return NotImplemented
        if self.ncols != other.ncols:
            return False
        return all(
            a.dtype == b.dtype and a.shape == b.shape and bool(np.all(a == b))
            for a, b in zip(self.columns, other.columns)
        )

    __hash__ = None  # mutable ndarray contents; match ndarray's behaviour

    # -- structural operations ----------------------------------------------

    @classmethod
    def concat(cls, bundles: Sequence["ArrayBundle"]) -> "ArrayBundle":
        """Column-wise concatenation along axis 0, in the given order.

        The result's ``counts`` records each input bundle's row count, so
        a receiver can recover the per-member boundaries.
        """
        cols, counts = concat_columns(bundles)
        return cls(*cols, counts=counts)

    def split_rows(self, counts: Iterable[int]) -> list["ArrayBundle"]:
        """Split into consecutive row blocks of the given sizes (views)."""
        counts = np.asarray(list(counts), dtype=np.int64)
        if counts.size and counts.min() < 0:
            raise ValueError("split counts must be non-negative")
        if int(counts.sum()) != self.nrows:
            raise ValueError(
                f"split counts sum to {int(counts.sum())}, bundle has "
                f"{self.nrows} rows"
            )
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return [
            ArrayBundle(*(c[bounds[i]:bounds[i + 1]] for c in self.columns))
            for i in range(counts.size)
        ]


def concat_columns(bundles, join=np.concatenate):
    """``(columns, counts)`` of the column-wise ``join`` of aligned bundles
    — anything with ``columns`` whose entries have a ``shape``.
    :meth:`ArrayBundle.concat` joins arrays; the mp transport joins their
    descriptors, under this validation and its wording."""
    if not bundles:
        raise ValueError("cannot concatenate zero bundles")
    ncols = [len(b.columns) for b in bundles]
    if len(set(ncols)) != 1:
        raise ValueError(
            f"bundles must agree on the column count; got {ncols}")
    cols = [join([b.columns[j] for b in bundles]) for j in range(ncols[0])]
    return tuple(cols), np.array([b.columns[0].shape[0] for b in bundles],
                                 dtype=np.int64)


def as_bundle(x) -> ArrayBundle:
    """Coerce a bundle, a bare array, or a tuple/list of arrays."""
    if isinstance(x, ArrayBundle):
        return x
    if isinstance(x, np.ndarray):
        return ArrayBundle(x)
    if isinstance(x, (tuple, list)):
        return ArrayBundle(*x)
    raise TypeError(
        f"cannot interpret {type(x).__name__} as an array bundle"
    )
