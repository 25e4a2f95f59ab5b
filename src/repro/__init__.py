"""repro — Communication-Avoiding Parallel Minimum Cuts and Connected Components.

A complete Python reproduction of Gianinazzi, Kalvoda, De Palma, Besta,
Hoefler (PPoPP 2018): the sparsification-based connected-components,
approximate minimum-cut and exact minimum-cut algorithms, executed on a
deterministic BSP machine simulator with the paper's cost model, plus the
baselines and every benchmark of the evaluation section.

Quick start::

    from repro import erdos_renyi, connected_components, minimum_cut
    from repro.rng import philox_stream

    g = erdos_renyi(1000, 4000, philox_stream(0))
    cc = connected_components(g, p=8, seed=1)
    mc = minimum_cut(g, p=8, seed=1)
    print(cc.n_components, mc.value)
"""

from repro import malloc  # noqa: F401 - the allocator policy, set first
from repro.graph import (
    EdgeList,
    AdjacencyMatrix,
    erdos_renyi,
    watts_strogatz,
    barabasi_albert,
    rmat,
)
from repro.core import (
    connected_components,
    approx_minimum_cut,
    minimum_cut,
    minimum_cut_sequential,
    cc_sequential,
    CCResult,
    ApproxMinCutResult,
    MinCutResult,
)
from repro.bsp import Engine, MachineModel
from repro.trace import (
    TraceEvent,
    RecordingTracer,
    aggregate_trace,
    read_jsonl,
    write_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    "EdgeList",
    "AdjacencyMatrix",
    "erdos_renyi",
    "watts_strogatz",
    "barabasi_albert",
    "rmat",
    "connected_components",
    "approx_minimum_cut",
    "minimum_cut",
    "minimum_cut_sequential",
    "cc_sequential",
    "CCResult",
    "ApproxMinCutResult",
    "MinCutResult",
    "Engine",
    "MachineModel",
    "TraceEvent",
    "RecordingTracer",
    "aggregate_trace",
    "read_jsonl",
    "write_jsonl",
    "__version__",
]
