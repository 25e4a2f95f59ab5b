"""Minimum-cut graph clustering (the §1 application [39, 40]).

The CLICK-style kernel the paper cites for gene-expression analysis and
large-scale graph clustering: recursively split the similarity graph along
its global minimum cut until a stopping criterion declares the cluster
coherent.  The library version of ``examples/graph_clustering.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.mincut import minimum_cut
from repro.graph.edgelist import EdgeList

__all__ = ["mincut_clustering", "relative_cut_criterion", "ClusteringResult"]


def relative_cut_criterion(threshold: float = 0.7) -> Callable[[EdgeList, float], bool]:
    """Stop splitting when the cut costs at least ``threshold`` of the
    cluster's average incident weight (2W/n) — i.e. the cluster has no
    cheap separator relative to its density."""

    def accept(sub: EdgeList, cut_value: float) -> bool:
        if sub.n <= 1:
            return True
        density = 2.0 * sub.total_weight() / sub.n
        return cut_value >= threshold * density

    return accept


@dataclass(frozen=True)
class ClusteringResult:
    """Result of a recursive min-cut clustering."""

    labels: np.ndarray        # dense cluster id per vertex
    n_clusters: int
    cut_values: list[float]   # value of every accepted split, in order

    def clusters(self) -> list[np.ndarray]:
        """Vertex arrays per cluster, ordered by cluster id."""
        return [np.flatnonzero(self.labels == c) for c in range(self.n_clusters)]


def mincut_clustering(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    accept: Callable[[EdgeList, float], bool] | None = None,
    min_cluster: int = 1,
    max_clusters: int | None = None,
    trial_scale: float = 1.0,
) -> ClusteringResult:
    """Recursively split ``g`` along global minimum cuts.

    ``accept(subgraph, cut_value)`` decides whether a cluster is kept whole
    (default: :func:`relative_cut_criterion`).  Disconnected clusters are
    always split (their minimum cut is 0).  ``min_cluster`` stops recursion
    below a size; ``max_clusters`` caps the cluster count.
    """
    if accept is None:
        accept = relative_cut_criterion()
    labels = np.zeros(g.n, dtype=np.int64)
    cut_values: list[float] = []
    # Worklist of (vertex array, depth); depth seeds distinct randomness.
    work: list[tuple[np.ndarray, int]] = [(np.arange(g.n, dtype=np.int64), 0)]
    final: list[np.ndarray] = []

    while work:
        vertices, depth = work.pop()
        if vertices.size <= max(min_cluster, 1) or vertices.size < 2:
            final.append(vertices)
            continue
        if max_clusters is not None and \
                len(final) + len(work) + 1 >= max_clusters:
            final.append(vertices)
            continue
        sub, mapping = g.induced(vertices)
        if sub.m == 0:
            # Fully disconnected cluster: every vertex is its own cluster.
            final.extend(np.array([x]) for x in vertices)
            continue
        res = minimum_cut(sub, p=p, seed=seed + depth,
                          trial_scale=trial_scale)
        if res.value > 0 and accept(sub, res.value):
            final.append(vertices)
            continue
        cut_values.append(res.value)
        work.append((mapping[res.side], depth + 1))
        work.append((mapping[~res.side], depth + 1))

    for cid, vertices in enumerate(final):
        labels[vertices] = cid
    return ClusteringResult(
        labels=labels, n_clusters=len(final), cut_values=cut_values
    )
