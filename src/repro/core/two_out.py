"""Random 2-out contraction preprocessing for the exact minimum cut.

Ghaffari–Nowicki–Thorup (GNT, "Faster algorithms for edge connectivity via
random 2-out contractions"; PAPERS.md): if every vertex of a graph with
minimum degree ``delta`` samples two incident edges and the components of
the sampled subgraph are contracted, the graph shrinks to ``O(n/delta)``
vertices while any fixed **non-singleton** minimum cut survives with
constant probability.  Singleton cuts (one vertex against the rest) need
not survive — but they are checked exactly, for free, as the minimum
weighted degree (:func:`singleton_cut`).  Weighted graphs sample
proportionally to edge weight; the survival argument carries over because
the weight crossing the cut is at most the minimum weighted degree.

One refinement over the naive "contract every sampled component": on
graphs whose only sparse cuts are singletons (e.g. uniform Erdős–Rényi),
the 2-out subgraph is connected w.h.p. and full contraction collapses the
graph to a single vertex — wasting the replica entirely.  We instead
union a random prefix of the sampled edges that stops before the
component count drops below two (the existing deterministic
:func:`~repro.kernels.prefix_select_labels` kernel with target 2).  When
the sample has ``c >= 2`` components this produces *exactly* GNT's
contraction — no prefix of the sample can merge below ``c`` — and when
the sample is connected it leaves two blobs instead of one.  The
contracted edge set is always a subset of the 2-out sample, so every cut
GNT preserve is still preserved, and no replica ever contracts below two
vertices — where it is a leaf: enumerated exactly, no trials needed.

The preservation bound only carries weight when the minimum cut is
non-singleton, in which case its weight is at most the minimum weighted
degree and GNT's argument applies; when the true minimum cut is a
singleton, :func:`singleton_cut` finds it exactly and the replicas
are merely a (cheap) upper-bound search.

The payoff is the §4 trial budget: Karger–Stein needs
``Theta((n^2/m) log^2 n)`` trials on the input but only the (much smaller)
Lemma 2.1 x 2.2 budget of the contracted graph.  Because one
preprocessing preserves the cut only with constant probability
``p0`` (:data:`PRESERVATION_PROB`), we run ``R`` independent contraction
*replicas* (:func:`replica_count`, ``R = O(log 1/eps)``), give each a
trial budget targeting conditional success :data:`REPLICA_TRIAL_PROB`,
and take the best cut over the singleton check and all replicas.  The
overall failure probability is then at most
``prod_r (1 - p0 * x_r) <= (1 - p0 * x)^R <= 1 - success_prob``.

When the planned 2-out trial total is not actually smaller than the
default budget — sparse or tiny graphs, or a minimum degree under
:data:`MIN_DEGREE_GUARD` where GNT's shrinkage argument gives nothing —
the variant *degrades*: it dispatches the unmodified default pipeline, so
``variant="2out"`` is never worse than the default by more than the
(cheap, O(1)-superstep) preprocessing probe.

Determinism: the preprocessing runs as replicated SPMD compute after one
``allgatherv`` — the RNG is keyed by ``(seed, replica, round)`` through
dedicated Philox stream ids (:data:`_STREAM_BASE`, disjoint from every
rank and per-trial stream), and each round's 2n-draw batch assigns slots
``2x, 2x+1`` to vertex ``x`` — so the contracted graphs are bit-identical
for every processor count and backend, exactly like the trial streams.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.bsp.counters import CountersReport
from repro.bsp.machine import TimeEstimate
from repro.cache.traced import AnalyticTracker, MemoryTracker, NullTracker
from repro.core.karger_stein import KS_BASE_SIZE, brute_force_matrix
from repro.core.mincut import MinCutResult, _edges_to_dense, _pick_min, \
    _replicate_edges, _zero_cut, minimum_cut
from repro.core.sparsify import cached_sampler
from repro.core.trials import achieved_success_probability, num_trials
from repro.graph.edgelist import EdgeList
from repro.graph.fingerprint import cached_fingerprint
from repro.graph.shm import plane_slices
from repro.kernels import bulk_contract_edges, prefix_select_labels, \
    two_out_sample, vertex_incidence
from repro.rng.streams import RngStreams, philox_stream
from repro.runtime.base import Backend, owns_backend

__all__ = [
    "MIN_DEGREE_GUARD",
    "PRESERVATION_PROB",
    "REPLICA_TRIAL_PROB",
    "TwoOutPlan",
    "TwoOutSummary",
    "plan_two_out",
    "replica_count",
    "singleton_cut",
    "two_out_contract",
    "two_out_minimum_cut",
    "two_out_program",
]

#: GNT's per-preprocessing cut-preservation probability Omega(1), taken at
#: a deliberately conservative constant (their analysis gives >= 1/2 for
#: one round on simple graphs; empirical rates sit far above this).
PRESERVATION_PROB = 0.25

#: Conditional success probability targeted by each replica's trial
#: budget.  The replica count solves the product bound for these two
#: constants; raising either shrinks budgets but needs more replicas.
REPLICA_TRIAL_PROB = 0.75

#: GNT's minimum-degree requirement: below this the O(n/delta) shrinkage
#: buys nothing (and degree-0 vertices mean a trivial zero cut), so a
#: contraction round refuses to run.
MIN_DEGREE_GUARD = 3

#: Contraction rounds stop once this few vertices remain: another round
#: would spend preservation probability without buying budget.  A round
#: rarely stops *at* it — measured, one round takes every non-degraded
#: plan straight to 2-4 vertices (``docs/two_out.md``).
TARGET_FLOOR = 16

#: Default number of contraction rounds ("a constant number of rounds").
DEFAULT_ROUNDS = 2

#: Philox stream ids for preprocessing draws:
#: ``_STREAM_BASE + replica * _ROUND_STRIDE + round``.  Rank streams live
#: below 2**20 and per-trial aux streams at ``2**20 + trial_id``
#: (:class:`~repro.rng.streams.RngStreams`), so ids from ``2**21`` up are
#: disjoint from both for any realistic trial budget.
_STREAM_BASE = 1 << 21
_ROUND_STRIDE = 64

#: Seed salt for the per-replica trial dispatches, so replica trial
#: streams never coincide with the preprocessing's or each other's.
_REPLICA_SEED_SALT = 0x20072007

#: Per-graph incidence cache: ``id(u) -> (weakref(u), k, arrays)``.  The
#: R replicas all resample the *same* round-0 edge arrays, so the
#: incidence build (argsort) and the weight gather amortize across them;
#: identity-keying with a weakref guard mirrors the sampler cache in
#: :mod:`repro.core.sparsify`.
_INCIDENCE_CACHE: dict[int, tuple] = {}
_INCIDENCE_CACHE_MAX = 8


def _cached_incidence(k: int, u, v, w):
    key = id(u)
    entry = _INCIDENCE_CACHE.get(key)
    if entry is not None and entry[0]() is u and entry[1] == k:
        return entry[2]
    edge_idx, starts = vertex_incidence(k, u, v)
    w_inc = np.asarray(w, dtype=np.float64)[edge_idx]
    if len(_INCIDENCE_CACHE) >= _INCIDENCE_CACHE_MAX:
        _INCIDENCE_CACHE.pop(next(iter(_INCIDENCE_CACHE)))
    _INCIDENCE_CACHE[key] = (weakref.ref(u), k, (edge_idx, starts, w_inc))
    return edge_idx, starts, w_inc


def replica_count(success_prob: float) -> int:
    """Independent contraction replicas for overall ``success_prob``.

    Solves ``(1 - p0 * x)^R <= 1 - success_prob`` with
    ``p0 =`` :data:`PRESERVATION_PROB` and ``x =``
    :data:`REPLICA_TRIAL_PROB`: ``R = O(log 1/eps)`` — the paper-style
    boosting that turns a constant-probability preprocessing into the
    requested guarantee.
    """
    if not 0 < success_prob < 1:
        raise ValueError(
            f"success_prob must be strictly between 0 and 1, "
            f"got {success_prob!r}")
    per = -math.log1p(-PRESERVATION_PROB * REPLICA_TRIAL_PROB)
    return max(1, math.ceil(math.log(1.0 / (1.0 - success_prob)) / per))


def singleton_cut(g: EdgeList) -> tuple[float, np.ndarray]:
    """The best single-vertex cut, computed exactly.

    Returns ``(value, side)`` where ``value`` is the minimum weighted
    degree and ``side`` isolates its (lowest-index) argmin vertex.  2-out
    contraction only guarantees survival of non-singleton cuts; this
    exact check covers the singleton ones, as GNT require.
    """
    if g.n < 2:
        raise ValueError("singleton cut needs at least 2 vertices")
    deg = g.weighted_degrees()
    pivot = int(np.argmin(deg))
    side = np.zeros(g.n, dtype=bool)
    side[pivot] = True
    return float(deg[pivot]), side


def two_out_contract(
    u, v, w, n: int, seed: int, replica: int,
    *,
    rounds: int = DEFAULT_ROUNDS,
    mem: MemoryTracker | None = None,
):
    """One replica's 2-out contraction of the edge arrays.

    Runs up to ``rounds`` rounds; each samples two incident edges per
    vertex (:func:`~repro.kernels.two_out_sample`), contracts the sampled
    components through a random-prefix union clamped at two vertices
    (:func:`~repro.kernels.prefix_select_labels` — see the module
    docstring for why the clamp is sound) and rebuilds the edge
    arrays through the packed-key kernel.  A round refuses to run
    when the minimum degree falls under :data:`MIN_DEGREE_GUARD` or only
    :data:`TARGET_FLOOR` vertices remain.  Returns
    ``(u, v, w, labels, k)``; ``labels`` maps the original ``n`` vertices
    onto the ``k`` contracted ones.

    Deterministic compute keyed by ``(seed, replica, round)`` only —
    callers at every rank produce byte-identical results.
    """
    if not 0 <= rounds < _ROUND_STRIDE:
        raise ValueError(f"rounds must be in [0, {_ROUND_STRIDE}), got {rounds}")
    mem = mem or NullTracker()
    labels_total = np.arange(n, dtype=np.int64)
    k = n
    for rnd in range(rounds):
        m = int(u.size)
        if k <= TARGET_FLOOR or m == 0:
            break
        deg = np.bincount(np.concatenate([u, v]), minlength=k)
        mem.scan("edges", 0, m)
        mem.ops(2 * m + k)
        delta = int(deg.min())
        if delta < MIN_DEGREE_GUARD:
            break
        edge_idx, starts, w_inc = _cached_incidence(k, u, v, w)
        rng = philox_stream(seed, _STREAM_BASE + replica * _ROUND_STRIDE + rnd)
        e1, e2 = two_out_sample(
            k, u, v, w, rng,
            incidence=(edge_idx, starts), sampler=cached_sampler(w_inc),
        )
        chosen = np.concatenate([e1, e2])
        chosen = chosen[chosen >= 0]
        chosen = chosen[rng.permutation(chosen.size)]
        mem.touch("edges", chosen)
        mem.ops(2.0 * k * max(1.0, math.log2(max(m, 2))))
        labels, k_new = prefix_select_labels(k, u[chosen], v[chosen], 2)
        mem.ops(2 * chosen.size + k)
        if k_new >= k:
            break  # sampled subgraph merged nothing: stop, don't loop
        u, v, w = bulk_contract_edges(u, v, w, labels, k_new)
        mem.scan("edges", 0, m)
        mem.ops(m * max(1.0, math.log2(max(m, 2))))
        labels_total = labels[labels_total]
        mem.scan("labels")
        mem.ops(n)
        k = k_new
    return u, v, w, labels_total, k


def _leaf_cut(cu, cv, cw, k, mem):
    """Exact ``(value, side)`` of a leaf replica, None above the base size.

    At ``k <= KS_BASE_SIZE`` every trial of the replica would enumerate
    this same matrix without drawing a random number (the base branch of
    ``karger_stein_matrix``): enumerate it once, charged as that leaf is.
    """
    if not 2 <= k <= KS_BASE_SIZE:
        return None
    if cu.size == 0:
        return 0.0, _zero_cut(k)
    mem.ops((1 << k) * k)
    return brute_force_matrix(_edges_to_dense(cu, cv, cw, k))


def two_out_program(ctx, slices, n, seed, replicas, rounds):
    """SPMD program: replicate the edge array, compute all replicas.

    One ``allgatherv`` is the only communication; the ``replicas``
    contractions are replicated deterministic compute (RNG keyed by
    ``(seed, replica, round)``, never by rank), so every rank returns the
    same ``(contractions, leaves)`` bit for bit — per replica a
    ``(u, v, w, labels, k)`` tuple and its :func:`_leaf_cut` — invariant
    to the processor count and the execution backend.
    """
    fu, fv, fw = yield from _replicate_edges(ctx, slices)
    tracker = AnalyticTracker(ctx.cache)
    tracker.alloc("edges", fu.size, words_per_elem=3)
    tracker.alloc("labels", n)
    out = [two_out_contract(fu, fv, fw, n, seed, r, rounds=rounds, mem=tracker)
           for r in range(replicas)]
    leaves = [_leaf_cut(cu, cv, cw, k, tracker) for cu, cv, cw, _, k in out]
    ctx.charge(ops=tracker.op_count, misses=tracker.miss_count)
    return out, leaves


@dataclass(frozen=True)
class TwoOutPlan:
    """Preprocessing outcome plus the recomputed trial budgets."""

    replicas: int
    rounds: int
    #: Per replica: the contracted ``(u, v, w, labels, k)``.
    contractions: list
    #: Per replica: the enumerated ``(value, side)`` of a leaf replica
    #: (``2 <= k <= KS_BASE_SIZE``; side over its ``k`` vertices), None
    #: for one that needs trials.
    leaves: list
    contracted_n: tuple[int, ...]
    contracted_m: tuple[int, ...]
    #: Lemma 2.1 x 2.2 budget of each contracted graph at
    #: :data:`REPLICA_TRIAL_PROB` (0 for replicas contracted below 2
    #: vertices — nothing left to cut).
    trials_per_replica: tuple[int, ...]
    total_trials: int
    #: The default variant's budget on the *input* graph, same scale.
    default_trials: int
    #: ``default_trials / total_trials`` — the planned dispatched-trial
    #: reduction (1.0 when degraded).
    reduction: float
    #: True when 2-out buys nothing and the default pipeline should run.
    degraded: bool
    singleton_value: float
    report: CountersReport
    time: TimeEstimate
    trace: list | None


@owns_backend
def plan_two_out(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    success_prob: float = 0.9,
    trial_scale: float = 1.0,
    rounds: int = DEFAULT_ROUNDS,
    replicas: int | None = None,
    backend: "str | Backend | None" = None,
) -> TwoOutPlan:
    """Run the preprocessing dispatch and price both trial pipelines.

    This is the analytic half of ``variant="2out"`` — everything except
    dispatching the Karger–Stein trials — shared by the entry point, the
    benchmark and the perf gate (which gates these numbers exactly).
    """
    if g.n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    R = replica_count(success_prob) if replicas is None else int(replicas)
    if R < 1:
        raise ValueError(f"need at least one replica, got {R}")
    sing_val, _ = singleton_cut(g)
    rr = backend.run(
        two_out_program, p, seed=seed,
        args=(plane_slices(g, p), g.n, seed, R, rounds),
    )
    contractions, leaves = rr.root_value
    budgets = tuple(
        0 if k < 2 else num_trials(k, max(int(cu.size), 1),
                                   success_prob=REPLICA_TRIAL_PROB,
                                   scale=trial_scale)
        for (cu, _cv, _cw, _labels, k) in contractions
    )
    total = int(sum(budgets))
    default_trials = num_trials(g.n, max(g.m, 1), success_prob=success_prob,
                                scale=trial_scale)
    degraded = total == 0 or total >= default_trials
    return TwoOutPlan(
        replicas=R, rounds=rounds, contractions=contractions, leaves=leaves,
        contracted_n=tuple(int(k) for (*_a, k) in contractions),
        contracted_m=tuple(int(cu.size) for (cu, *_a) in contractions),
        trials_per_replica=budgets, total_trials=total,
        default_trials=default_trials,
        reduction=1.0 if degraded else default_trials / total,
        degraded=degraded, singleton_value=sing_val,
        report=rr.report, time=rr.time, trace=rr.trace,
    )


@dataclass(frozen=True)
class TwoOutSummary:
    """What the 2-out pipeline did, attached to the MinCutResult."""

    replicas: int
    rounds: int
    contracted_n: tuple[int, ...]
    contracted_m: tuple[int, ...]
    trials_per_replica: tuple[int, ...]
    total_trials: int
    default_trials: int
    reduction: float
    degraded: bool
    singleton_value: float
    #: Trials completed per replica (None on the degraded path).
    replica_completed: tuple[int, ...] | None = None


def _summary_from_plan(plan: TwoOutPlan, completed=None) -> TwoOutSummary:
    return TwoOutSummary(
        replicas=plan.replicas, rounds=plan.rounds,
        contracted_n=plan.contracted_n, contracted_m=plan.contracted_m,
        trials_per_replica=plan.trials_per_replica,
        total_trials=plan.total_trials, default_trials=plan.default_trials,
        reduction=plan.reduction, degraded=plan.degraded,
        singleton_value=plan.singleton_value,
        replica_completed=completed,
    )


def _combine_times(*times) -> TimeEstimate:
    return TimeEstimate(app_s=sum(t.app_s for t in times),
                        mpi_s=sum(t.mpi_s for t in times))


@owns_backend
def two_out_minimum_cut(
    g: EdgeList,
    p: int = 4,
    *,
    seed: int = 0,
    success_prob: float = 0.9,
    trial_scale: float = 1.0,
    scheduler=None,
    backend: "str | Backend | None" = None,
    force: bool = False,
):
    """The ``variant="2out"`` pipeline behind :func:`minimum_cut`.

    Preprocess (:func:`plan_two_out`), then fold the minimum over the
    singleton check, the plan's leaf solutions and — for each replica
    above ``KS_BASE_SIZE`` — its recomputed trial budget dispatched
    through a :class:`~repro.sched.scheduler.TrialScheduler`; or, when
    the plan is degraded, fall back to the unmodified default pipeline
    (the result is then bit-identical to ``variant="default"``).

    ``force=True`` skips the degrade decision and runs the replica path
    regardless (benchmark/test hook for exercising the genuine pipeline
    on graphs where the default budget would still be cheaper).
    The plan goes through the resolved backend's store
    (:attr:`~repro.runtime.base.Backend.plans`), keyed by
    ``(cached_fingerprint(g), seed, p, success_prob, trial_scale)`` —
    every input :func:`plan_two_out` is deterministic in — so a repeat
    call on the same backend instance replays the exact plan a fresh
    call would build, minus its dispatch.
    Returns a :class:`~repro.core.mincut.MinCutResult` with ``variant``
    and ``two_out`` filled in.
    """
    from repro.sched.scheduler import TrialScheduler, merge_reports

    if scheduler is not None and scheduler.checkpoint:
        raise ValueError(
            "variant='2out' does not support scheduler checkpoints: one "
            "ledger cannot span the per-replica dispatches")
    key = (cached_fingerprint(g), int(seed), int(p),
           float(success_prob), float(trial_scale))
    plan = backend.plans.get(key)
    if plan is None:
        plan = plan_two_out(g, p, seed=seed, success_prob=success_prob,
                            trial_scale=trial_scale, backend=backend)
        backend.plans.put(key, plan)

    if plan.degraded and not force:
        base = minimum_cut(
            g, p, seed=seed, success_prob=success_prob,
            trial_scale=trial_scale, backend=backend, scheduler=scheduler,
        )
        trace = None
        if plan.trace is not None or base.trace is not None:
            trace = list(plan.trace or []) + list(base.trace or [])
        return MinCutResult(
            value=base.value, side=base.side, trials=base.trials,
            report=merge_reports([plan.report, base.report]),
            time=_combine_times(plan.time, base.time), trace=trace,
            achieved_success_prob=base.achieved_success_prob,
            ledger=base.ledger, variant="2out",
            two_out=_summary_from_plan(plan),
        )

    sched = scheduler if scheduler is not None else TrialScheduler()
    sing_val, sing_side = singleton_cut(g)
    best = (sing_val, sing_side)
    reports = [plan.report]
    times = [plan.time]
    traces = [plan.trace] if plan.trace is not None else []
    completed = [0] * plan.replicas
    failure = 1.0  # running prod_r (1 - p0 * x_r)
    replica_streams = RngStreams(seed ^ _REPLICA_SEED_SALT)
    for r, (cu, cv, cw, labels, k) in enumerate(plan.contractions):
        budget = plan.trials_per_replica[r]
        if budget == 0:
            continue
        if plan.leaves[r] is not None:  # enumerated in the plan: x_r = 1
            value, side = plan.leaves[r]
            best = _pick_min(best, (value, side[labels]))
            failure *= 1.0 - PRESERVATION_PROB
            continue
        g_r = EdgeList(int(k), cu, cv, cw, canonical=False, validate=False)
        sres = sched.run(
            g_r, p, backend=backend, seed=replica_streams.spawn(r).seed,
            success_prob=REPLICA_TRIAL_PROB, trials=budget,
        )
        side = sres.side[labels] if sres.side is not None else None
        best = _pick_min(best, (sres.value, side))
        completed[r] = sres.completed
        x_r = achieved_success_probability(
            int(k), max(int(cu.size), 1), sres.completed)
        failure *= 1.0 - PRESERVATION_PROB * min(1.0, x_r)
        reports.append(sres.report)
        times.append(sres.time)
        if sres.trace is not None:
            traces.append(sres.trace)
    value, side = best
    trace = [ev for t in traces for ev in t] if traces else None
    return MinCutResult(
        value=value, side=side, trials=plan.total_trials,
        report=merge_reports(reports), time=_combine_times(*times),
        trace=trace, achieved_success_prob=1.0 - failure, ledger=None,
        variant="2out", two_out=_summary_from_plan(plan, tuple(completed)),
    )
