"""A bounded LRU *store* — an actual container, not a miss simulator.

:mod:`repro.cache.lru` models cache behavior analytically; this module
holds real objects with real eviction, for layers that cache expensive
artifacts (the serve daemon's loaded graphs and 2-out plans).  Capacity
is counted in caller-supplied *weight* units (entries by default, bytes
if the caller sizes its values), recency is move-to-end on hit, and the
hit/miss/eviction counters feed the daemon's ``stats`` endpoint.

Thread-safe: every public method holds one internal lock, and
:meth:`get_or_load` runs the loader **outside** the lock so a slow load
(a multi-GB graph parse) never blocks hits on other keys — at the cost
that two racing loads of the same key both run (the second insert wins;
correct for pure loaders, which ours are).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """LRU-evicting mapping bounded by total weight.

    ``capacity`` is the maximum total weight held; a single entry heavier
    than the capacity is rejected with ``ValueError`` rather than
    silently thrashing the whole store.

    ``on_evict(key, value)`` is called for every entry that *leaves* the
    store — LRU evictions, :meth:`pop` and :meth:`clear`, but **not**
    same-key replacement (the key is still present) — always outside the
    lock, so a callback may re-enter the store.  The shared-memory
    attachment cache (:class:`repro.shmem.AttachCache`) uses it to close
    a mapping when its entry leaves.
    """

    def __init__(self, capacity: float,
                 on_evict: Callable[[Hashable, Any], None] | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.on_evict = on_evict
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self._weight = 0.0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _notify(self, evicted: "list[tuple[Hashable, Any]]") -> None:
        if self.on_evict is not None:
            for key, value in evicted:
                self.on_evict(key, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def weight(self) -> float:
        """Total weight currently held."""
        with self._lock:
            return self._weight

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts a hit or miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key][0]
            self.misses += 1
            return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up without touching recency or counters (introspection)."""
        with self._lock:
            entry = self._entries.get(key)
            return default if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, weight: float = 1.0) -> None:
        """Insert/replace ``key``, evicting LRU entries to fit."""
        weight = float(weight)
        if weight > self.capacity:
            raise ValueError(
                f"entry weight {weight} exceeds store capacity "
                f"{self.capacity}"
            )
        if weight < 0:
            raise ValueError(f"entry weight must be >= 0, got {weight}")
        evicted: list[tuple[Hashable, Any]] = []
        with self._lock:
            if key in self._entries:
                self._weight -= self._entries.pop(key)[1]
            while self._entries and self._weight + weight > self.capacity:
                k, (v, w) = self._entries.popitem(last=False)
                self._weight -= w
                self.evictions += 1
                evicted.append((k, v))
            self._entries[key] = (value, weight)
            self._weight += weight
        self._notify(evicted)

    def get_or_load(self, key: Hashable, loader: Callable[[], Any],
                    weigher: Callable[[Any], float] = lambda _v: 1.0) -> Any:
        """Return the cached value, loading (outside the lock) on a miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = loader()
        self.put(key, value, weigher(value))
        return value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._entries:
                value, w = self._entries.pop(key)
                self._weight -= w
            else:
                return default
        self._notify([(key, value)])
        return value

    def clear(self) -> None:
        with self._lock:
            evicted = [(k, v) for k, (v, _w) in self._entries.items()]
            self._entries.clear()
            self._weight = 0.0
        self._notify(evicted)

    def keys(self) -> Iterator[Hashable]:
        """LRU-to-MRU key snapshot."""
        with self._lock:
            return iter(list(self._entries))

    def stats(self) -> dict:
        """JSON-ready counters for the daemon's ``stats`` endpoint."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "weight": self._weight,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
