"""repro.dynamic — streaming edge updates with warm CC and cut queries.

Batched inserts/deletes/reweights close *epochs*; each epoch has a
canonical frozen snapshot and content fingerprint that every cache
(graph plane, 2-out plans, serve layer) keys off.  Components stay warm
through an incremental spanning forest + union-find with a bounded
reconnection search (cc_kernel fallback).  Exact cuts reuse a 2-out
plan cached per epoch; approximate cuts run §3.3's algorithm on the
epoch snapshot itself.  See ``docs/dynamic.md``.
"""

from repro.dynamic.graph import (
    UPDATE_OPS,
    DynamicCCResult,
    DynamicCutResult,
    DynamicGraph,
    canonical_roots,
)
from repro.dynamic.stream import apply_stream, update_stream

__all__ = [
    "UPDATE_OPS",
    "DynamicCCResult",
    "DynamicCutResult",
    "DynamicGraph",
    "apply_stream",
    "canonical_roots",
    "update_stream",
]
