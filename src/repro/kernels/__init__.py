"""Hot-path kernels shared by the contraction algorithms.

Every contraction-style algorithm in this reproduction — Iterated Sampling
(§3.2), Prefix Selection and sparse/dense Bulk Edge Contraction (§4) — bottoms
out in a handful of label/contraction primitives.  This package provides them
(numpy-vectorized wherever that measured faster), one production path each,
with the scalar loops they replaced kept beside them as test oracles:

* :mod:`repro.kernels.unionfind` — connected-component labels and roots
  (compiled scipy traversal), the earliest-arrival spanning forest, and
  Prefix Selection (one early-exit list union-find: the vectorized kernel
  lost to it at every measured size);
* :mod:`repro.kernels.contract` — bulk edge contraction over packed 64-bit
  endpoint keys (relabel via ``np.take``, self-loop mask, parallel-edge
  aggregation);
* :mod:`repro.kernels.twosample` — the per-vertex weighted two-out edge
  sampler of the GNT contraction preprocessing (one batched
  ``searchsorted`` over a shared incidence prefix-sum);
* :mod:`repro.kernels.reference` — the original pure-Python loops, preserved
  verbatim as the test oracles; tests call them, no parameter selects them.

**Bit-exactness contract.**  Each fast kernel returns byte-identical output to
its scalar reference (not merely the same partition): downstream sampling,
sample-sort splitters and communication volumes all depend on exact label
values, so anything weaker would silently change the simulated trajectories
and the recorded BSP counters of EXPERIMENTS.md.

**Cost-charging contract.**  Kernels never touch a BSP
:class:`~repro.bsp.engine.Context` or a cache tracker.  Callers charge costs
analytically (``ctx.charge_scan`` / ``charge_random`` / ``mem.ops``) from
input *sizes*, exactly as before, so vectorizing the Python loops cannot
change any counter.  See ``docs/kernels.md``.
"""

from repro.kernels.contract import (
    bulk_contract_edges,
    combine_packed,
    combine_sorted_run,
    pack_edge_keys,
    relabel_edge_arrays,
    stable_sort_with_order,
    unpack_edge_keys,
)
from repro.kernels.reference import (
    scalar_bulk_contract,
    scalar_cc_roots,
    scalar_earliest_forest,
    scalar_prefix_select,
    scalar_two_out_sample,
)
from repro.kernels.twosample import two_out_sample, vertex_incidence
from repro.kernels.unionfind import (
    cc_labels,
    cc_roots,
    earliest_forest,
    flatten_parents,
    prefix_select_labels,
)

__all__ = [
    "bulk_contract_edges",
    "cc_labels",
    "cc_roots",
    "combine_packed",
    "combine_sorted_run",
    "earliest_forest",
    "flatten_parents",
    "pack_edge_keys",
    "prefix_select_labels",
    "relabel_edge_arrays",
    "scalar_bulk_contract",
    "scalar_cc_roots",
    "scalar_earliest_forest",
    "scalar_prefix_select",
    "scalar_two_out_sample",
    "stable_sort_with_order",
    "two_out_sample",
    "unpack_edge_keys",
    "vertex_incidence",
]
