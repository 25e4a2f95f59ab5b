"""Dynamic graphs: batched edge updates with warm CC and cut queries.

A :class:`DynamicGraph` owns an evolving weighted graph on a fixed
vertex set.  Updates arrive in atomic **batches** (:meth:`update_edges`);
each batch closes an *epoch*, the unit of identity for every cache in
the repo: the epoch's canonical snapshot (edges sorted by ``(u, v)``,
arrays frozen) has a content fingerprint, and graph-plane segments,
2-out plans and result caches key off it — they invalidate exactly
when an epoch closes, never mid-batch and never on a query.

Two query families stay warm across epochs (``docs/dynamic.md``):

* :meth:`query_components` — an incremental spanning forest plus a
  union-by-minimum union-find, a bounded reconnection search on
  tree-edge deletes, and the :func:`~repro.core.components.cc_kernel`
  pipeline as the over-budget fallback.  Every path returns the
  canonical :func:`~repro.kernels.cc_labels` form, so answers are
  **bit-identical** to ``cc_labels`` on the epoch snapshot.
* :meth:`query_cut` — ``"exact"``: the 2-out pipeline on the snapshot,
  plan cached per (epoch fingerprint, seed, p); ``"approx"``: the
  O(log n)-approximate cut on the epoch snapshot itself.

Determinism: every answer is a pure function of ``(initial graph,
update stream, seed, p)`` — replaying the same stream into a fresh
``DynamicGraph`` (the serve daemon does exactly this on restart)
reproduces every epoch's answers bit for bit, on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.fingerprint import cached_fingerprint
from repro.graph.shm import bump_epoch, eligible, release_pins
from repro.kernels import cc_roots, earliest_forest, flatten_parents
from repro.rng.streams import RngStreams

__all__ = [
    "DynamicGraph",
    "DynamicCCResult",
    "DynamicCutResult",
    "canonical_roots",
    "UPDATE_OPS",
]

#: The three update verbs a batch may carry.
UPDATE_OPS = ("insert", "delete", "reweight")

#: Salt separating the CC-fallback seed space from trial/update streams.
_CC_SALT = 3 << 16

#: Salt for cut query seeds (exact: one per session; approx: + 1 + epoch).
_CUT_SALT = 4 << 16


def canonical_roots(labels: np.ndarray) -> np.ndarray:
    """Map any dense labelling to its canonical min-vertex root array.

    The backend CC pipelines return exact partitions whose label *ids*
    are trajectory-dependent; this projects them onto the canonical form
    shared with :func:`~repro.kernels.cc_labels` (root = minimum member
    vertex), which is what makes incremental and fallback answers
    byte-comparable.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels, kind="stable")  # vertices ascend per class
    lab_sorted = labels[order]
    starts = np.flatnonzero(np.r_[True, lab_sorted[1:] != lab_sorted[:-1]])
    # labels are dense 0..k-1, so sorted-unique label == label value and
    # order[starts[L]] is class L's minimum vertex.
    mins = np.empty(starts.size, dtype=np.int64)
    mins[lab_sorted[starts]] = order[starts]
    return mins[labels]


@dataclass(frozen=True)
class DynamicCCResult:
    """One components answer, tagged with the epoch it certifies."""

    labels: np.ndarray        # canonical cc_labels form
    n_components: int
    epoch: int
    #: Epoch content fingerprint when the snapshot was materialized at
    #: answer time (cut queries always materialize it), else None.
    fingerprint: str | None
    #: Which path produced it: "incremental" | "forest" | "cc_kernel".
    via: str


@dataclass(frozen=True)
class DynamicCutResult:
    """One cut answer (approx or exact), tagged with its epoch."""

    value: float              # exact value / approximate estimate
    mode: str                 # "exact" | "approx"
    epoch: int
    fingerprint: str
    #: Exact value of the witness side on the epoch snapshot (approx
    #: mode; equals ``value`` in exact mode).
    witness_value: float | None = None
    side: np.ndarray | None = None
    #: Query seed (approx mode) / plan provenance (exact).
    certificate: dict | None = None


class DynamicGraph:
    """Evolving graph with warm component and cut queries (module doc).

    Parameters
    ----------
    g:
        Initial graph (epoch 0); copied, never aliased.
    p, seed, backend:
        Execution parameters for every backend dispatch (CC fallback,
        cut queries).  All answers are deterministic in ``(g, updates,
        seed, p)`` and backend-independent.
    reconnect_budget:
        Max vertices+edges a tree-edge deletion may scan before the
        epoch falls back to the full CC pipeline.
    success_prob, trial_scale:
        Exact-cut trial budget knobs, forwarded to the 2-out pipeline
        (and part of the plan-cache key).
    plane:
        Publish each queried epoch's snapshot into the shared graph
        plane, advancing the pinned segment via
        :func:`~repro.graph.shm.bump_epoch` when the epoch closes.
    plan_cache:
        Optional external 2-out plan cache with the
        :class:`~repro.serve.cache.GraphCache` ``plan_key``/``get_plan``/
        ``put_plan`` API (the serve daemon shares its own); defaults to
        a small internal dict.
    """

    def __init__(self, g: EdgeList, *, p: int = 4, seed: int = 0,
                 backend=None, reconnect_budget: int = 256,
                 success_prob: float = 0.9, trial_scale: float = 1.0,
                 plane: bool = False, plan_cache=None):
        self.n = int(g.n)
        self.p = int(p)
        self.seed = int(seed)
        self.backend = backend
        self.plane = bool(plane)
        self.reconnect_budget = int(reconnect_budget)
        self.success_prob = float(success_prob)
        self.trial_scale = float(trial_scale)
        self._streams = RngStreams(self.seed)

        # -- edge state: the canonical store is the last fold's frozen
        # snapshot, sorted by the int64 key ``u * n + v`` (u < v) kept in
        # ``_keys``; ``_edges`` (key -> weight) and ``_adj`` index it for
        # the O(1) update path, ``_touched`` is what the next fold merges.
        n = self.n
        self._edges: dict[int, float] = {}
        self._adj: dict[int, set[int]] = {}
        for a, b, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
            if a > b:
                a, b = b, a
            key = a * n + b
            self._edges[key] = self._edges.get(key, 0.0) + float(w)
            self._adj.setdefault(a, set()).add(b)
            self._adj.setdefault(b, set()).add(a)
        self._touched: set[int] = set(self._edges)
        self._keys = np.zeros(0, dtype=np.int64)
        self._snapshot = EdgeList(n, self._keys, self._keys, validate=False)
        self._snapshot_epoch = -1

        self.epoch = 0
        self.updates_total = 0
        self._labels_cache: DynamicCCResult | None = None
        self._published_fp: str | None = None
        self._plan_cache = plan_cache
        self._plans: dict[tuple, object] = {}
        # Owner hook (the serve session's write-ahead log): fires once a
        # batch has validated, before it mutates anything.
        self.on_batch = None

        # -- incremental CC state: ``_tree`` (forest edges, by key),
        # ``_tree_adj`` and ``_parent`` come from the initial forest below.
        self._uf_stale = False    # forest exact, parent needs rebuild
        self._cc_dirty = False    # forest unknown, needs cc_kernel fallback
        # ``resparsifications`` stays 0: benchmark readers still name it.
        self.counters = {
            "inserts": 0, "deletes": 0, "reweights": 0,
            "unions": 0, "tree_deletes": 0, "reconnects": 0,
            "splits": 0, "cc_fallbacks": 0, "uf_rebuilds": 0,
            "resparsifications": 0, "epoch_bumps": 0,
        }
        self._parent = cc_roots(self.n, *self._reforest(self.snapshot()))

    def _reforest(self, snap: EdgeList) -> tuple[np.ndarray, np.ndarray]:
        """Reset the forest to the snapshot's earliest spanning forest."""
        fu, fv = earliest_forest(self.n, snap.u, snap.v)
        self._tree = set((np.minimum(fu, fv) * self.n
                          + np.maximum(fu, fv)).tolist())
        self._tree_adj = {}
        for a, b in zip(fu.tolist(), fv.tolist()):
            self._tree_adj.setdefault(a, set()).add(b)
            self._tree_adj.setdefault(b, set()).add(a)
        return fu, fv

    # -- union-find (union by minimum root) ----------------------------------

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:  # full path compression
            parent[x], x = root, int(parent[x])
        return root

    # -- snapshots and epochs ------------------------------------------------

    def snapshot(self) -> EdgeList:
        """The epoch's canonical graph: edges sorted by ``(u, v)``, frozen.

        Canonical order makes the snapshot — and therefore its content
        fingerprint and every downstream RNG trajectory — a pure
        function of the edge *set*, independent of the order updates
        arrived in and of which earlier epochs were ever materialized.
        """
        if self._snapshot_epoch != self.epoch:
            if self._touched:
                self._fold()
            self._snapshot_epoch = self.epoch
        return self._snapshot

    def _fold(self) -> None:
        """Merge the keys touched since the last fold into the store.

        O(k log k + m) for k touched keys: each is looked up once in
        the sorted key array, then one overwrite / delete / insert pass
        builds fresh arrays (snapshots handed out earlier stay valid).
        """
        old_keys, n = self._keys, self.n
        tk = np.fromiter(self._touched, np.int64, len(self._touched))
        tk.sort()
        # weights are positive, so 0.0 marks a key that is absent now
        tw = np.array([self._edges.get(k, 0.0) for k in tk.tolist()])
        live = tw > 0
        pos = np.searchsorted(old_keys, tk)
        was = np.append(old_keys, -1)[pos] == tk      # -1: past the end
        w = self._snapshot.w.copy()
        w[pos[was & live]] = tw[was & live]          # reweighted
        drop = pos[was & ~live]                       # deleted
        new = live & ~was                             # inserted
        keys = np.delete(old_keys, drop)
        at = np.searchsorted(keys, tk[new])
        self._keys = np.insert(keys, at, tk[new])
        u, v = np.divmod(self._keys, n)
        snap = EdgeList(n, u, v, np.insert(np.delete(w, drop), at, tw[new]),
                        canonical=False, validate=False)
        cached_fingerprint(snap, freeze=True)
        self._snapshot = snap
        self._touched.clear()

    def fingerprint(self) -> str:
        return cached_fingerprint(self.snapshot())

    def publish_epoch(self):
        """Publish the epoch snapshot into the graph plane (lazy).

        Called by query paths when ``plane=True``: the first query of an
        epoch pays one :func:`~repro.graph.shm.bump_epoch` (unpinning
        the previous epoch's ``rgpl*`` segment); repeats are free.
        Returns the handle, or ``None`` if the plane is off or the
        snapshot is below its size floor.
        """
        if not self.plane:
            return None
        snap = self.snapshot()
        if not eligible(snap):
            return None
        fp = self.fingerprint()
        if fp == self._published_fp:
            return None
        handle = bump_epoch(self._published_fp, snap, fingerprint=fp)
        self._published_fp = fp
        self.counters["epoch_bumps"] += 1
        return handle

    def close(self) -> None:
        """Drop the plane pin held for the current epoch (idempotent)."""
        if self._published_fp is not None:
            release_pins((self._published_fp,))
            self._published_fp = None

    def __enter__(self) -> "DynamicGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- updates -------------------------------------------------------------

    def update_edges(self, ops) -> dict:
        """Apply one batch of updates; closes an epoch; returns staleness.

        ``ops`` is an iterable of ``("insert", u, v, w)``,
        ``("delete", u, v)`` and ``("reweight", u, v, w)`` tuples (or
        JSON-decoded lists).  Inserting an existing edge combines the
        weights (multigraph semantics, matching
        :func:`~repro.graph.contract.combine_parallel_edges`); deleting
        or reweighting a missing edge raises.  A batch is **atomic**:
        :meth:`_checked` validates all of it first, so a rejected batch
        leaves the graph, its epoch and every cache as they were.  No
        backend work happens here — CC fallback and the snapshot fold
        wait for the next query, so update throughput is bounded by the
        O(α) bookkeeping alone.
        """
        ops = list(ops)
        batch, keys = self._checked(ops)
        if self.on_batch is not None:
            self.on_batch(self.epoch + 1, ops)
        self._touched.update(keys)
        for verb, key, a, b, w in batch:
            if verb == "insert":
                self._insert(key, a, b, w)
            elif verb == "delete":
                self._delete(key, a, b)
            else:
                self._reweight(key, w)
        self.updates_total += len(ops)
        self.epoch += 1
        self._labels_cache = None
        return self.staleness()

    def _checked(self, ops: list) -> tuple[list[tuple], dict[int, bool]]:
        """Validate a whole batch into ``(verb, key, lo, hi, w)`` rows.

        Each op is checked against the edge set as the ops before it
        would leave it (insert-then-delete of one key is legal, deleting
        it twice is not); nothing mutates, so the apply loop cannot raise.
        Also returns the keys the batch names (-> present afterwards).
        """
        n, edges = self.n, self._edges
        present: dict[int, bool] = {}
        rows = []
        for op in ops:
            try:
                verb, a, b = op[0], int(op[1]), int(op[2])
                w = 0.0 if verb == "delete" else float(op[3])
            except (IndexError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed update op {op!r}") from exc
            if verb not in UPDATE_OPS:
                raise ValueError(f"unknown update op {verb!r}; expected "
                                 f"one of {UPDATE_OPS}")
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"({a}, {b}) is a self-loop or names a "
                                 f"vertex outside 0..{n - 1}")
            if verb != "delete" and not w > 0:    # also rejects NaN
                raise ValueError("edge weights must be positive")
            if a > b:
                a, b = b, a
            key = a * n + b
            if verb != "insert" and not present.get(key, key in edges):
                raise KeyError(f"edge ({a}, {b}) not present")
            present[key] = verb != "delete"
            rows.append((verb, key, a, b, w))
        return rows, present

    def _insert(self, key: int, a: int, b: int, w: float) -> None:
        self.counters["inserts"] += 1
        if key in self._edges:
            self._edges[key] += w
            return
        self._edges[key] = w
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)
        if self._cc_dirty:
            return
        if self._uf_stale:
            self._rebuild_parent_from_forest()
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            # union by minimum: the canonical root survives
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            self._parent[hi] = lo
            self._tree.add(key)
            self._tree_adj.setdefault(a, set()).add(b)
            self._tree_adj.setdefault(b, set()).add(a)
            self.counters["unions"] += 1

    def _delete(self, key: int, a: int, b: int) -> None:
        del self._edges[key]
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self.counters["deletes"] += 1
        if self._cc_dirty or key not in self._tree:
            return  # non-tree edge: partition provably unchanged
        self.counters["tree_deletes"] += 1
        self._tree.discard(key)
        self._tree_adj[a].discard(b)
        self._tree_adj[b].discard(a)
        self._reconnect(a, b)

    def _reweight(self, key: int, w: float) -> None:
        self._edges[key] = w
        self.counters["reweights"] += 1

    # -- bounded reconnection search -----------------------------------------

    def _reconnect(self, a: int, b: int) -> None:
        """Repair the forest after deleting tree edge ``(a, b)``.

        Floods the two tree sides of the deleted edge **in lockstep**
        (one scan step each, alternating), so the cost is bounded by
        the *smaller* side even when the other is almost the whole
        graph.  The first side to complete is then scanned for a
        replacement crossing edge.  Finding one keeps the partition;
        exhausting the side proves a split; blowing ``reconnect_budget``
        (scan steps across both phases) marks the epoch dirty for the
        cc_kernel fallback.  Deterministic: floods and scans walk sorted
        adjacency, so the replacement is a function of the graph state.
        """
        budget = self.reconnect_budget
        scanned = 0
        # lockstep flood: sides[i] grows one vertex expansion per turn
        sides = [{a}, {b}]
        queues = [[a], [b]]
        done = None
        while done is None:
            for i in (0, 1):
                if not queues[i]:
                    done = i
                    break
                x = queues[i].pop()
                for y in sorted(self._tree_adj.get(x, ())):
                    scanned += 1
                    if scanned > budget:
                        self._cc_dirty = True
                        return
                    if y not in sides[i]:
                        sides[i].add(y)
                        queues[i].append(y)
        side = sides[done]
        # scan the completed side's incident edges for a crossing edge
        for x in sorted(side):
            for y in sorted(self._adj.get(x, ())):
                scanned += 1
                if scanned > budget:
                    self._cc_dirty = True
                    return
                if y not in side:
                    self._tree.add(x * self.n + y if x < y
                                   else y * self.n + x)
                    self._tree_adj.setdefault(x, set()).add(y)
                    self._tree_adj.setdefault(y, set()).add(x)
                    self.counters["reconnects"] += 1
                    return
        # no crossing edge: the component genuinely split.  The forest
        # is exact again; the parent array (which cannot un-union) is
        # rebuilt from it lazily.
        self.counters["splits"] += 1
        self._uf_stale = True

    def _rebuild_parent_from_forest(self) -> None:
        keys = np.fromiter(self._tree, np.int64, len(self._tree))
        self._parent = cc_roots(self.n, *np.divmod(keys, self.n))
        self._uf_stale = False
        self.counters["uf_rebuilds"] += 1

    # -- queries -------------------------------------------------------------

    def query_components(self) -> DynamicCCResult:
        """Canonical component labels of the current epoch (module doc).

        The answer certifies its graph by **epoch**; the content
        fingerprint rides along only when the epoch snapshot is already
        materialized (cut queries always do) — see :meth:`staleness`.
        """
        if (self._labels_cache is not None
                and self._labels_cache.epoch == self.epoch):
            return self._labels_cache
        if self._cc_dirty:
            roots, via = self._cc_fallback(), "cc_kernel"
        elif self._uf_stale:
            self._rebuild_parent_from_forest()
            roots, via = self._parent.copy(), "forest"
        else:
            self._parent = flatten_parents(self._parent)
            roots, via = self._parent.copy(), "incremental"
        uniq, labels = np.unique(roots, return_inverse=True)
        fresh = self._snapshot_epoch == self.epoch
        result = DynamicCCResult(
            labels=labels.astype(np.int64), n_components=int(uniq.size),
            epoch=self.epoch,
            fingerprint=self.fingerprint() if fresh else None, via=via)
        self._labels_cache = result
        return result

    def _cc_fallback(self) -> np.ndarray:
        """Full recompute through the existing cc_kernel pipeline.

        The dispatch a from-scratch caller would make, on the epoch
        snapshot; labels are canonicalized and the forest and union-find
        rebuilt from the snapshot, so later updates are incremental again.
        """
        from repro.core.components import connected_components

        snap = self.snapshot()
        self.publish_epoch()
        seed = self._streams.spawn(_CC_SALT + self.epoch).seed
        res = connected_components(snap, self.p, seed=seed,
                                   backend=self.backend)
        roots = canonical_roots(res.labels)
        self._reforest(snap)
        self._parent = roots.copy()
        self._cc_dirty = self._uf_stale = False
        self.counters["cc_fallbacks"] += 1
        return roots

    def connected(self, a: int, b: int) -> bool:
        """O(α) connectivity query (resolves any pending maintenance)."""
        return self.component_of(a) == self.component_of(b)

    def component_of(self, x: int) -> int:
        """O(α) canonical component root of vertex ``x``."""
        if self._cc_dirty:
            self.query_components()
        elif self._uf_stale:
            self._rebuild_parent_from_forest()
        return self._find(int(x))

    def query_cut(self, mode: str = "exact") -> DynamicCutResult:
        """Minimum cut of the current epoch's graph (module docstring).

        ``mode="exact"``: the 2-out pipeline on the epoch snapshot; its
        plan is cached per (epoch fingerprint, seed, p), so repeats at
        one epoch skip preprocessing.  ``mode="approx"``: the O(log n)-
        approximate cut on the snapshot at a per-epoch seed, the witness
        side evaluated exactly.  Both are functions of the epoch's edge
        set, the seed and ``p`` alone, never of earlier queries.
        Disconnected epochs answer 0.0 with a canonical witness
        (component 0) in either mode.
        """
        if mode not in ("exact", "approx"):
            raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
        cc = self.query_components()
        fp = self.fingerprint()
        if cc.n_components > 1:
            side = cc.labels == 0
            return DynamicCutResult(
                value=0.0, mode=mode, epoch=self.epoch, fingerprint=fp,
                witness_value=0.0, side=side,
                certificate={"disconnected": True,
                             "n_components": cc.n_components})
        self.publish_epoch()
        if mode == "exact":
            return self._exact_cut(fp)
        return self._approx_cut(fp)

    def _exact_cut(self, fp: str) -> DynamicCutResult:
        from repro.core.two_out import (
            DEFAULT_ROUNDS,
            plan_two_out,
            two_out_minimum_cut,
        )

        snap = self.snapshot()
        seed = self._streams.spawn(_CUT_SALT).seed
        cache = self._plan_cache
        if cache is not None:
            key = cache.plan_key(fp, seed=seed, p=self.p,
                                 success_prob=self.success_prob,
                                 trial_scale=self.trial_scale,
                                 rounds=DEFAULT_ROUNDS, replicas=None)
            plan = cache.get_plan(key)
        else:
            key = (fp, seed, self.p, self.success_prob, self.trial_scale)
            plan = self._plans.get(key)
        plan_hit = plan is not None
        if plan is None:
            plan = plan_two_out(snap, self.p, seed=seed,
                                success_prob=self.success_prob,
                                trial_scale=self.trial_scale,
                                backend=self.backend)
            if cache is not None:
                cache.put_plan(key, plan)
            else:
                if len(self._plans) >= 8:
                    self._plans.pop(next(iter(self._plans)))
                self._plans[key] = plan
        res = two_out_minimum_cut(snap, self.p, seed=seed,
                                  success_prob=self.success_prob,
                                  trial_scale=self.trial_scale,
                                  backend=self.backend, plan=plan)
        return DynamicCutResult(
            value=float(res.value), mode="exact", epoch=self.epoch,
            fingerprint=fp, witness_value=float(res.value), side=res.side,
            certificate={"variant": "2out", "seed": int(seed),
                         "p": self.p, "plan_cached": bool(plan_hit),
                         "trials": int(res.trials)})

    def _approx_cut(self, fp: str) -> DynamicCutResult:
        from repro.core.approx_mincut import approx_minimum_cut

        seed = self._streams.spawn(_CUT_SALT + 1 + self.epoch).seed
        res = approx_minimum_cut(self.snapshot(), self.p, seed=seed,
                                 backend=self.backend)
        return DynamicCutResult(
            value=float(res.estimate), mode="approx", epoch=self.epoch,
            fingerprint=fp, witness_value=res.witness_value,
            side=res.witness_side,
            certificate={"query_seed": int(seed)})

    # -- staleness -----------------------------------------------------------

    def staleness(self) -> dict:
        """JSON-ready report of how far warm state lags the epoch.

        ``fingerprint`` is reported only once a query has materialized
        the epoch snapshot (``null`` before that): an eager O(m) fold
        and hash per batch would defeat the cheap-updates contract.
        :meth:`fingerprint` forces it.
        """
        fresh = self._snapshot_epoch == self.epoch
        return {
            "epoch": self.epoch,
            "fingerprint": self.fingerprint() if fresh else None,
            "n": self.n,
            "m": len(self._edges),
            "updates_total": self.updates_total,
            "cc_dirty": bool(self._cc_dirty),
            "uf_stale": bool(self._uf_stale),
            "counters": dict(self.counters),
        }
