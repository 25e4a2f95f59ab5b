"""Graph substrate: representations, generators, IO, contraction helpers.

The paper stores graphs either as a *distributed array of edges* (each
processor holds O(m/p) weighted edges, §3) or, for dense graphs
(m >= n^2/log n), as a *distributed adjacency matrix* (Theta(n/p) rows per
processor, §3).  The sequential building blocks live here; the distributed
slicing is done by the BSP algorithms themselves.
"""

from repro.graph.edgelist import EdgeList
from repro.graph.matrix import AdjacencyMatrix
from repro.graph.contract import (
    contract_edges,
    relabel_edges,
    combine_parallel_edges,
    components_from_edges,
)
from repro.graph.generators import (
    erdos_renyi,
    watts_strogatz,
    barabasi_albert,
    rmat,
    grid_graph,
    clustered_er,
    ring_of_cliques,
    two_cliques_bridge,
    weighted_cycle,
    star_graph,
    complete_graph,
    verification_suite,
)
from repro.graph.io import (
    read_edgelist,
    write_edgelist,
    read_snap,
    stream_edge_chunks,
)
from repro.graph.fingerprint import (
    cached_fingerprint,
    content_fingerprint,
    freeze_edges,
)
from repro.graph.shm import GraphHandle, plane_slices

__all__ = [
    "EdgeList",
    "AdjacencyMatrix",
    "contract_edges",
    "relabel_edges",
    "combine_parallel_edges",
    "components_from_edges",
    "erdos_renyi",
    "watts_strogatz",
    "barabasi_albert",
    "rmat",
    "grid_graph",
    "clustered_er",
    "ring_of_cliques",
    "two_cliques_bridge",
    "weighted_cycle",
    "star_graph",
    "complete_graph",
    "verification_suite",
    "read_edgelist",
    "write_edgelist",
    "read_snap",
    "stream_edge_chunks",
    "content_fingerprint",
    "cached_fingerprint",
    "freeze_edges",
    "GraphHandle",
    "plane_slices",
]
