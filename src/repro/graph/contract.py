"""Sequential contraction utilities.

Edge contraction (§2.4) merges the endpoints of an edge, removes the loops
this creates, and combines parallel edges.  These helpers implement the
vectorized sequential pieces that both the BSP algorithms and the baselines
share: relabeling endpoints under a vertex mapping, stripping loops,
combining parallel edges, and computing the components induced by an edge
subset (used by Prefix Selection and by the CC algorithm's root step).

The per-edge work is carried by :mod:`repro.kernels`; the scalar loops that
used to live here are its test oracles (:mod:`repro.kernels.reference`).
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.kernels import (
    cc_labels,
    cc_roots,
    combine_packed,
    pack_edge_keys,
    unpack_edge_keys,
)

__all__ = [
    "relabel_edges",
    "combine_parallel_edges",
    "contract_edges",
    "components_from_edges",
    "compress_labels",
    "union_find_components",
]


def relabel_edges(g: EdgeList, labels: np.ndarray, n_new: int) -> EdgeList:
    """Replace each edge ``(u, v)`` by ``(labels[u], labels[v])``, drop loops.

    The result is a multigraph on ``n_new`` vertices; parallel edges are
    *not* combined (that is bulk contraction's job).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.n,):
        raise ValueError("labels must map every vertex of g")
    if labels.size and (labels.min() < 0 or labels.max() >= n_new):
        raise ValueError("label out of range")
    u = labels[g.u]
    v = labels[g.v]
    keep = u != v
    return EdgeList(n_new, u[keep], v[keep], g.w[keep], validate=False)


def combine_parallel_edges(g: EdgeList) -> EdgeList:
    """Merge parallel edges, summing their weights (sorted-key combine)."""
    if g.m == 0:
        return g.copy()
    # Canonical form guarantees u <= v, so the packed key is already canonical.
    keys, w = combine_packed(pack_edge_keys(g.u, g.v, g.n), g.w)
    u, v = unpack_edge_keys(keys, g.n)
    return EdgeList(g.n, u, v, w, canonical=False, validate=False)


def contract_edges(g: EdgeList, edge_index: np.ndarray) -> tuple[EdgeList, np.ndarray]:
    """Contract the edges at ``edge_index`` (bulk), combining parallel edges.

    Returns ``(contracted_graph, labels)`` where ``labels[x]`` is the new id
    (``0..n'-1``) of original vertex ``x``.  Contracting never decreases the
    minimum cut value (§2.4).
    """
    labels, n_new = components_from_edges(g.n, g.u[edge_index], g.v[edge_index])
    h = relabel_edges(g, labels, n_new)
    return combine_parallel_edges(h), labels


def union_find_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected-component root id per vertex over the edge set
    (:func:`repro.kernels.cc_roots`).

    The root of a component is its minimum member vertex; use
    :func:`compress_labels` for dense ``0..k-1`` labels.
    """
    return cc_roots(n, u, v)


def compress_labels(roots: np.ndarray) -> tuple[np.ndarray, int]:
    """Map arbitrary root ids to dense labels ``0..k-1`` (order-preserving)."""
    uniq, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64), int(uniq.size)


def components_from_edges(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, int]:
    """Connected components of ``(range(n), edges)``: dense labels + count.

    Labels are assigned in order of first appearance, so the output is
    deterministic (and identical to the scalar oracle's).
    """
    return cc_labels(n, u, v)
