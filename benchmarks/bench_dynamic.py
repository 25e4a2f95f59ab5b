"""Dynamic-graph benchmark: incremental maintenance against full recompute.

``repro.dynamic`` exists so that a churning graph does not pay a full
BSP connected-components dispatch per update batch.  This benchmark
prices both paths on the same deterministic churn workload
(:func:`repro.dynamic.update_stream`) and writes
``results/BENCH_dynamic.json``:

* incremental — a :class:`~repro.dynamic.DynamicGraph` absorbing
  every batch (O(alpha) bookkeeping + bounded reconnection) and
  answering ``query_components()`` after each epoch;
* full — the no-subsystem alternative: re-running
  :func:`~repro.core.connected_components` from scratch on the same
  epoch snapshot (same seed discipline as the incremental fallback, so
  the canonicalized labels must agree bit for bit);
* ``serve`` — the same stream through a live daemon session (sim
  backend, unix socket) at bounded staleness (every answer certifies
  the epoch it describes); its final answer must equal the local one.

The full-over-incremental ratio of the per-epoch medians is what is
gated.  Beside it, the median ``update_edges`` and ``query_components``
seconds of the epochs no fallback answered are recorded (raw, never
gated): the split of the ordinary epoch.  Update throughput and latency
distributions are the end-to-end benchmark's job
(``benchmarks/e2e/run.py --workload dyn_churn``).

Acceptance bars (gated in :mod:`benchmarks.perf_gate`):

* ``speedup_ok`` — incremental per-epoch update+query must run at least
  :data:`DYNAMIC_SPEEDUP_FLOOR` x faster than the full recompute;
* ``results_match`` — incremental labels equal the canonicalized full
  recompute at **every** epoch, and the final exact/approx cut values
  agree with a fresh from-scratch replay.

Wall-clock seconds are environment-dependent; the gate checks the flags
and the deterministic fields (final label sha, component count, cut
values), never raw seconds.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_dynamic
    PYTHONPATH=src python -m benchmarks.bench_dynamic --scale 2.0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Acceptance bar: full-recompute latency over incremental update+query.
DYNAMIC_SPEEDUP_FLOOR = 3.0


def _labels_sha(labels) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def churn_workload(scale: float = 1.0, seed: int = 0):
    """The benchmark's fixed (graph, update stream) churn workload."""
    from repro.dynamic import update_stream
    from repro.graph import erdos_renyi
    from repro.rng import philox_stream

    n = max(200, int(600 * scale))
    g = erdos_renyi(n, 4 * n, philox_stream(seed + 23), weighted=True)
    batches = max(6, int(12 * scale))
    stream = update_stream(g, seed=seed + 1, batches=batches,
                           batch_size=max(8, int(32 * scale)))
    return g, stream


def incremental_vs_full(scale: float = 1.0, seed: int = 0, p: int = 4) -> dict:
    """Per-epoch incremental maintenance vs from-scratch recompute.

    The full leg runs :func:`~repro.core.connected_components` on the
    identical epoch snapshot, then canonicalizes — so agreement is
    required bit for bit, not just up to relabeling.
    """
    from repro.core import connected_components
    from repro.dynamic import DynamicGraph, canonical_roots

    g, stream = churn_workload(scale=scale, seed=seed)
    dyn = DynamicGraph(g, p=p, seed=seed, backend="sim")

    inc_lat, full_lat, split = [], [], []
    match = True
    for ops in stream:
        t0 = time.perf_counter()
        dyn.update_edges(ops)
        t1 = time.perf_counter()
        cc = dyn.query_components()
        t2 = time.perf_counter()
        inc_lat.append(t2 - t0)
        if cc.via != "cc_kernel":
            split.append((t1 - t0, t2 - t1))

        t0 = time.perf_counter()
        # From-scratch pays the canonical array rebuild AND the BSP
        # dispatch every epoch; the incremental query touches neither.
        snap = dyn.snapshot()
        full = connected_components(snap, p, seed=seed, backend="sim")
        roots = canonical_roots(np.asarray(full.labels))
        _, full_labels = np.unique(roots, return_inverse=True)
        full_lat.append(time.perf_counter() - t0)
        match &= bool(np.array_equal(cc.labels, full_labels))
    final = dyn.query_components()
    speedup = float(np.median(full_lat) / max(np.median(inc_lat), 1e-9))
    update_s, query_s = (np.median(split, axis=0).tolist() if split
                         else (None, None))
    return {
        "n": g.n, "m": g.m, "p": p, "epochs": dyn.epoch,
        "speedup": speedup,
        # the ordinary (non-fallback) epoch's split, raw seconds: recorded,
        # never gated
        "incremental_update_s": update_s,
        "incremental_query_s": query_s,
        "speedup_ok": speedup >= DYNAMIC_SPEEDUP_FLOOR,
        "labels_match_every_epoch": bool(match),
        "final_n_components": int(final.n_components),
        "final_labels_sha256": _labels_sha(final.labels),
    }


def cut_determinism(scale: float = 1.0, seed: int = 0, p: int = 4) -> dict:
    """Cut queries after the churn, re-proved by a cold replay.

    Streams the workload into a :class:`~repro.dynamic.DynamicGraph`,
    then replays it into a fresh one: both cut modes are functions of
    the epoch graph, the seed and ``p``, so the replay must report
    identical exact and approximate values.
    """
    from repro.dynamic import DynamicGraph, update_stream
    from repro.graph import erdos_renyi
    from repro.rng import philox_stream

    # Its own small workload: the exact 2-out pipeline prices per-trial
    # BSP dispatches, so this leg checks determinism, not throughput.
    g = erdos_renyi(150, 600, philox_stream(seed + 29), weighted=True)
    stream = list(update_stream(g, seed=seed + 2, batches=6, batch_size=12))
    knobs = dict(p=p, seed=seed, backend="sim", trial_scale=0.2)

    answers = []
    for _ in range(2):
        dyn = DynamicGraph(g, **knobs)
        for ops in stream:
            dyn.update_edges(ops)
        answers.append((dyn.query_cut(mode="exact").value,
                        dyn.query_cut(mode="approx").value))
    (exact, approx), replay = answers
    return {
        "exact_value": float(exact),
        "approx_value": float(approx),
        "replay_match": (exact, approx) == replay,
    }


def serve_replay(scale: float = 1.0, seed: int = 0, p: int = 4) -> dict:
    """The same churn through a live daemon's dynamic session."""
    from repro.graph import write_edgelist
    from repro.serve import Client, Daemon, ServeConfig, wait_server

    g, stream = churn_workload(scale=scale, seed=seed)
    tmp = tempfile.mkdtemp(prefix="bench_dynamic_")
    graph_path = os.path.join(tmp, "bench.edges")
    write_edgelist(g, graph_path)
    cfg = ServeConfig(bind=os.path.join(tmp, "serve.sock"),
                      state_dir=os.path.join(tmp, "state"),
                      backend="sim", p=p)
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        with Client(daemon.address, client="bench") as client:
            sid = client.dyn_open(graph_path, seed=seed, p=p)
            last = None
            for ops in stream:
                st = client.dyn_update(sid, ops)
                last = client.dyn_components(sid)
                assert last["epoch"] == st["epoch"]  # bounded staleness
            client.dyn_close(sid)
    return {
        "final_epoch": int(last["epoch"]),
        "final_n_components": int(last["n_components"]),
        "final_labels_sha256": last["labels_sha256"],
    }


def run_benchmarks(scale: float = 1.0, seed: int = 0, p: int = 4) -> dict:
    cc = incremental_vs_full(scale=scale, seed=seed, p=p)
    cut = cut_determinism(scale=scale, seed=seed, p=p)
    serve = serve_replay(scale=scale, seed=seed, p=p)
    # The daemon replays the identical stream, so its final answer must
    # equal the local incremental one bit for bit.
    served_match = (
        serve["final_epoch"] == cc["epochs"]
        and serve["final_n_components"] == cc["final_n_components"]
        and serve["final_labels_sha256"] == cc["final_labels_sha256"])
    return {
        "workload": {"n": cc["n"], "m": cc["m"], "p": p, "seed": seed,
                     "scale": scale, "epochs": cc["epochs"]},
        "cc": cc,
        "cut": cut,
        "serve": serve,
        "speedup": cc["speedup"],
        "speedup_ok": cc["speedup_ok"],
        "speedup_floor": DYNAMIC_SPEEDUP_FLOOR,
        "results_match": bool(cc["labels_match_every_epoch"]
                              and cut["replay_match"] and served_match),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--procs", "-p", type=int, default=4)
    ap.add_argument("--out", default=str(RESULTS_DIR / "BENCH_dynamic.json"))
    args = ap.parse_args(argv)
    record = run_benchmarks(scale=args.scale, seed=args.seed, p=args.procs)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                              + "\n")
    cc = record["cc"]
    print(f"bench_dynamic: {cc['epochs']} epochs on n={cc['n']} m={cc['m']}, "
          f"incremental update+query {record['speedup']:.1f}x faster than "
          f"full recompute (floor {DYNAMIC_SPEEDUP_FLOOR:g}x), "
          f"results_match={record['results_match']} -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
