"""Per-vertex weighted two-out sampling (the GNT contraction step).

Random 2-out contraction (Ghaffari–Nowicki–Thorup; see PAPERS.md and
``docs/two_out.md``) has every vertex choose two incident edges
independently, each proportionally to edge weight; the chosen edges form a
sampled subgraph whose components are then bulk-contracted.  This module
provides the choice step as a vectorized kernel:

* :func:`vertex_incidence` — CSR-style incidence lists of the edge arrays
  (one stable argsort), amortizable across repeated samples on the same
  graph;
* :func:`two_out_sample` — all ``2 n`` weighted choices in one batch via
  :meth:`~repro.rng.sampling.CumulativeWeightSampler.sample_in_segments`
  (a single ``searchsorted`` over one shared prefix-sum).

**RNG contract.**  A call consumes exactly ``2 n`` uniforms from ``rng``
in one batch; draws ``2x`` and ``2x + 1`` belong to vertex ``x``.
Isolated vertices still own their two slots (drawn and discarded), so the
draw-to-vertex keying is a pure function of ``n`` — independent of the
edge set, the processor count and the execution backend.  That fixed
keying is what makes the 2-out preprocessing invariant to ``p`` and
backend, exactly like the per-trial streams of the minimum cut.

**Bit-exactness contract.**  The scalar oracle
(:func:`repro.kernels.reference.scalar_two_out_sample`) given the same
draw batch returns byte-identical output, because both accumulate the same
prefix-sums in the same order and resolve draws with the same
binary-search semantics (``bisect_right`` == ``searchsorted`` right) and
the same round-off clamp.
"""

from __future__ import annotations

import numpy as np

from repro.rng.sampling import CumulativeWeightSampler

__all__ = ["vertex_incidence", "two_out_sample"]


def vertex_incidence(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style incidence lists of the edge arrays.

    Returns ``(edge_idx, starts)`` with
    ``edge_idx[starts[x]:starts[x + 1]]`` the indices (into ``u``/``v``)
    of the edges incident to vertex ``x`` — the u-side entries in edge
    order, then the v-side entries in edge order (every edge appears
    exactly twice overall).  The order is pinned by a *stable* argsort so
    the scalar reference can reproduce it with two sequential passes.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = int(u.size)
    owner = np.concatenate([u, v])
    slots = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.argsort(owner, kind="stable")
    edge_idx = slots[order]
    counts = np.bincount(owner, minlength=n).astype(np.int64) if m else \
        np.zeros(n, dtype=np.int64)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return edge_idx, starts


def two_out_sample(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    rng: np.random.Generator,
    *,
    incidence: tuple[np.ndarray, np.ndarray] | None = None,
    sampler: CumulativeWeightSampler | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two weighted incident-edge choices per vertex (the 2-out step).

    Returns ``(e1, e2)``: int64 arrays of length ``n`` holding each
    vertex's two chosen edge indices, ``-1`` for isolated vertices.  The
    choices are i.i.d. *with replacement* proportionally to edge weight
    within the vertex's incidence list (a degree-1 vertex picks its only
    edge twice — harmless for contraction).

    ``incidence`` (from :func:`vertex_incidence`) and ``sampler`` (a
    :class:`~repro.rng.sampling.CumulativeWeightSampler` built over
    ``w[edge_idx]``) let callers amortize the preprocessing across the
    contraction replicas and rounds that resample the same graph; both
    are rebuilt when omitted.
    """
    draws = rng.random(2 * n)
    if incidence is None:
        incidence = vertex_incidence(n, u, v)
    edge_idx, starts = incidence
    e1 = np.full(n, -1, dtype=np.int64)
    e2 = np.full(n, -1, dtype=np.int64)
    if edge_idx.size == 0:
        return e1, e2
    if sampler is None:
        sampler = CumulativeWeightSampler(
            np.asarray(w, dtype=np.float64)[edge_idx])
    lo_all, hi_all = starts[:-1], starts[1:]
    live = hi_all > lo_all
    if not live.any():
        return e1, e2
    lo, hi = lo_all[live], hi_all[live]
    pairs = draws.reshape(n, 2)
    s1 = sampler.sample_in_segments(pairs[live, 0], lo, hi)
    s2 = sampler.sample_in_segments(pairs[live, 1], lo, hi)
    e1[live] = edge_idx[s1]
    e2[live] = edge_idx[s2]
    return e1, e2
