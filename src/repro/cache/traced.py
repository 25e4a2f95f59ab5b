"""Instrumentation interface between algorithms and the cache simulator.

Sequential algorithms (the baselines and the sequential legs of the BSP
codes) accept a :class:`MemoryTracker`.  The null implementation makes the
instrumentation free in normal runs; :class:`LRUTracker` maps named arrays
onto a flat simulated address space and feeds the LRU simulator, standing in
for the PAPI LLC hardware counters of the paper's §5.

The tracker also counts completed "instructions" (one per element charged via
:meth:`MemoryTracker.ops`), giving the Instructions-per-Miss metric of
Figures 4 and 8.
"""

from __future__ import annotations

import numpy as np

from repro.cache.lru import LRUCache

__all__ = ["MemoryTracker", "NullTracker", "LRUTracker", "AnalyticTracker"]


class MemoryTracker:
    """Interface: named-array allocation, element touches, op counting."""

    #: True when the tracker replays the exact access sequence (LRU
    #: simulation); algorithms use this to choose a faithful per-access
    #: trace over vectorized batch charging.
    is_tracing = False

    def alloc(self, name: str, n_elems: int, words_per_elem: int = 1) -> None:
        """Register (or re-register, resizing) an array of elements."""
        raise NotImplementedError

    def touch(self, name: str, idx) -> None:
        """Random accesses to elements ``idx`` (scalar or array) of ``name``."""
        raise NotImplementedError

    def scan(self, name: str, start: int = 0, length: int | None = None) -> None:
        """Sequential access to a range of elements of ``name``."""
        raise NotImplementedError

    def ops(self, k: int) -> None:
        """Charge ``k`` completed instructions."""
        raise NotImplementedError

    def matrices(self, name, sizes, ops, picks=None, reads=None, moved=None):
        """Charge a stack of square matrices of ``name``, row by row: matrix
        ``i`` (``sizes[i]`` vertices) is scanned, touched at ``picks[i,
        :reads[i]]``, scanned again if ``moved[i]`` and charged ``ops[i]``
        instructions — in that order, the sequence a tracer replays."""
        for i, n in enumerate(np.asarray(sizes).tolist()):
            self.scan(name, 0, n * n)
            if picks is not None:
                self.touch(name, picks[i, :reads[i]])
            if moved is not None and moved[i]:
                self.scan(name, 0, n * n)
            self.ops(int(ops[i]))

    @property
    def miss_count(self) -> int:
        raise NotImplementedError

    @property
    def op_count(self) -> int:
        raise NotImplementedError

    def instructions_per_miss(self) -> float:
        """IPM as reported in Figures 4c/8 (inf when no misses occurred)."""
        m = self.miss_count
        return float("inf") if m == 0 else self.op_count / m


class NullTracker(MemoryTracker):
    """Free no-op tracker used when instrumentation is off."""

    def alloc(self, name, n_elems, words_per_elem=1):
        pass

    def touch(self, name, idx):
        pass

    def scan(self, name, start=0, length=None):
        pass

    def ops(self, k):
        pass

    def matrices(self, name, sizes, ops, picks=None, reads=None, moved=None):
        pass

    @property
    def miss_count(self) -> int:
        return 0

    @property
    def op_count(self) -> int:
        return 0


class AnalyticTracker(MemoryTracker):
    """O(1)-per-call tracker using the closed-form CO charges.

    Counts every charged instruction and estimates misses with the
    :class:`~repro.cache.model.CacheParams` formulas instead of simulating.
    Used inside BSP programs to account for their sequential legs (e.g. the
    Karger–Stein leaf of the Recursive Step) without trace overhead.
    """

    def __init__(self, params=None):
        from repro.cache.model import CacheParams

        self.params = params or CacheParams()
        self._sizes: dict[str, int] = {}
        self._misses = 0.0
        self._ops = 0

    def alloc(self, name, n_elems, words_per_elem=1):
        self._sizes[name] = max(
            self._sizes.get(name, 0), int(n_elems) * int(words_per_elem)
        )

    def touch(self, name, idx):
        k = int(np.size(idx))
        self._misses += self.params.random_access(k, self._sizes.get(name, k))

    def scan(self, name, start=0, length=None):
        if length is None:
            length = self._sizes.get(name, 0) - start
        self._misses += self.params.scan(max(length, 0))

    def ops(self, k):
        self._ops += int(k)

    def matrices(self, name, sizes, ops, picks=None, reads=None, moved=None):
        """The whole stack at once: every miss term is an integer (scans
        ceil(n/B) + 1, a random access in cache is a scan), so their float
        sum is exact in any order, and equals the row-by-row charges."""
        def scans(n):  # CacheParams.scan, elementwise: 0 when n = 0
            return np.ceil(n / self.params.B) + (n > 0)
        words = np.asarray(sizes, dtype=np.int64) ** 2
        misses = scans(words) * (1 + (0 if moved is None else moved))
        if picks is not None:  # CacheParams.random_access, elementwise
            ws = self._sizes.get(name, reads)
            misses = misses + np.where(ws <= self.params.M,
                                       scans(np.minimum(ws, reads)), reads)
        self._misses += float(misses.sum())
        self._ops += int(np.sum(ops))

    @property
    def miss_count(self) -> int:
        return int(self._misses)

    @property
    def op_count(self) -> int:
        return self._ops


class LRUTracker(MemoryTracker):
    """Feeds named-array accesses into an :class:`LRUCache`.

    Arrays live at block-aligned base addresses in one flat address space;
    an element access of array ``a`` at index ``i`` touches words
    ``base_a + i*words`` .. ``base_a + (i+1)*words - 1`` (only the first word
    is simulated for multi-word elements — same block behaviour, cheaper).
    """

    is_tracing = True

    def __init__(self, M: int, B: int):
        self.cache = LRUCache(M, B)
        self._base: dict[str, int] = {}
        self._size: dict[str, int] = {}
        self._words: dict[str, int] = {}
        self._next_base = 0
        self._ops = 0

    def alloc(self, name, n_elems, words_per_elem=1):
        if n_elems < 0 or words_per_elem < 1:
            raise ValueError("invalid allocation")
        if name in self._base and self._size[name] >= n_elems * words_per_elem:
            return  # existing allocation is big enough; reuse it
        words = int(n_elems) * int(words_per_elem)
        # Block-align each array so arrays do not share blocks.
        base = -(-self._next_base // self.cache.B) * self.cache.B
        self._base[name] = base
        self._size[name] = words
        self._words[name] = int(words_per_elem)
        self._next_base = base + max(words, 1)

    def _resolve(self, name: str) -> tuple[int, int, int]:
        if name not in self._base:
            raise KeyError(f"array {name!r} was never allocated")
        return self._base[name], self._size[name], self._words[name]

    def touch(self, name, idx):
        base, size, words = self._resolve(name)
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        if idx.size == 0:
            return
        addr = base + idx * words
        if addr.min() < base or (addr.max() - base) >= max(size, 1):
            raise IndexError(f"access out of bounds for array {name!r}")
        self.cache.access(addr)

    def scan(self, name, start=0, length=None):
        base, size, words = self._resolve(name)
        total_elems = size // words if words else 0
        if length is None:
            length = total_elems - start
        if length <= 0:
            return
        if start < 0 or (start + length) > total_elems:
            raise IndexError(f"scan out of bounds for array {name!r}")
        self.cache.access_range(base + start * words, length * words)

    def ops(self, k):
        self._ops += int(k)

    def address(self, name: str, idx) -> np.ndarray:
        """Simulated word addresses of elements ``idx`` of array ``name``.

        Lets callers build one *interleaved* access sequence spanning
        several arrays (e.g. an edge stream mixed with map lookups) and
        replay it with :meth:`access_sequence`, which is what determines
        whether small hot arrays stay resident under LRU.
        """
        base, size, words = self._resolve(name)
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        addr = base + idx * words
        if idx.size and (addr.min() < base or (addr.max() - base) >= max(size, 1)):
            raise IndexError(f"access out of bounds for array {name!r}")
        return addr

    def access_sequence(self, addrs: np.ndarray) -> None:
        """Replay a pre-built interleaved address sequence."""
        self.cache.access(addrs)

    @property
    def miss_count(self) -> int:
        return self.cache.misses

    @property
    def op_count(self) -> int:
        return self._ops
