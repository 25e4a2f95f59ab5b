"""The paper's contribution: communication-avoiding sparsification and the
algorithms built on it (connected components, approximate and exact global
minimum cuts).

High-level drivers (resolve ``backend=``, slice the graph, run the SPMD
program):

* :func:`repro.core.components.connected_components`
* :func:`repro.core.approx_mincut.approx_minimum_cut`
* :func:`repro.core.mincut.minimum_cut`
* :func:`repro.core.mincut.minimum_cut_sequential`
"""

from repro.core.components import connected_components, CCResult, cc_sequential
from repro.core.approx_mincut import approx_minimum_cut, ApproxMinCutResult
from repro.core.mincut import (
    minimum_cut,
    minimum_cuts,
    minimum_cut_sequential,
    MinCutResult,
    MinCutsResult,
)
from repro.core.trials import num_trials, eager_survival_probability
from repro.core.two_out import (
    TwoOutPlan,
    TwoOutSummary,
    plan_two_out,
    replica_count,
    singleton_cut,
    two_out_minimum_cut,
)
from repro.core.sparsify import sparsify_weighted, sparsify_unweighted
from repro.core.preprocess import contract_heavy_edges, min_weighted_degree
from repro.core.spanning_forest import minimum_spanning_forest, MSFResult
from repro.core.external import cc_semi_external
from repro.core.clustering import (
    mincut_clustering,
    relative_cut_criterion,
    ClusteringResult,
)

__all__ = [
    "connected_components",
    "cc_sequential",
    "CCResult",
    "approx_minimum_cut",
    "ApproxMinCutResult",
    "minimum_cut",
    "minimum_cuts",
    "minimum_cut_sequential",
    "MinCutResult",
    "MinCutsResult",
    "num_trials",
    "eager_survival_probability",
    "TwoOutPlan",
    "TwoOutSummary",
    "plan_two_out",
    "replica_count",
    "singleton_cut",
    "two_out_minimum_cut",
    "sparsify_weighted",
    "sparsify_unweighted",
    "contract_heavy_edges",
    "min_weighted_degree",
    "minimum_spanning_forest",
    "MSFResult",
    "mincut_clustering",
    "relative_cut_criterion",
    "ClusteringResult",
    "cc_semi_external",
]
