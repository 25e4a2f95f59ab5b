"""Serve-daemon benchmark: warm repeat queries against cold one-shot CLI.

The daemon's whole point is amortization: a one-shot CLI run pays
interpreter start-up, module imports, graph parsing and (on the mp
backend) worker-pool spawn on **every** query; the daemon pays them
once.  This benchmark prices both paths on the same workload and writes
``results/BENCH_serve.json``:

* cold — median wall-clock of ``python -m repro.cli <algorithm>``
  subprocess invocations (the artifact's execution model);
* warm — median steady-state repeat latency against a live in-process
  daemon (sim backend, unix socket), after one first query that pays the
  cache miss.  The min-cut leg runs the 2-out variant, whose random
  contraction makes replicas tiny — so serving overhead (process
  start-up, imports, graph load, preprocessing) dominates the query and
  the daemon's graph and plan caches pay off on every repeat;
* concurrent — several clients issuing interleaved queries at different
  priorities; their answers, like the warm ones, go into the
  ``results_match`` flag: every answer equals the direct
  :func:`~repro.harness.run_algorithm` result bit for bit.

Only the cold-over-warm ratios are recorded.  Latency distributions and
throughput are the end-to-end benchmark's job
(``benchmarks/e2e/run.py --workload serve_mix``).

Acceptance bars (gated in :mod:`benchmarks.perf_gate`):

* ``speedup_ok`` — warm steady-state latency at least
  :data:`WARM_SPEEDUP_FLOOR` x below the cold one-shot CLI;
* ``results_match`` — every served answer equals the direct call.

Wall-clock seconds are environment-dependent; the gate checks the flags
and the deterministic result fields, never raw seconds.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_serve
    PYTHONPATH=src python -m benchmarks.bench_serve --repeats 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Acceptance bar: cold one-shot latency over warm repeat-query latency.
WARM_SPEEDUP_FLOOR = 3.0

#: Acceptance bar: input-shipping pickle bytes per warm repeat query,
#: graph plane off over on, at p=4 (gated in benchmarks.perf_gate).
BYTES_REDUCTION_FLOOR = 5.0


def plane_bytes_per_query(p: int = 4, seed: int = 0) -> dict:
    """Warm repeat-query input bytes per dispatch, graph plane off vs on.

    Runs the same ``parallel_cc`` query twice against a fresh
    :class:`~repro.runtime.warm.WarmMpBackend` per mode and reads the
    repeat query's ``input``-kind transport stats: with the plane off the
    dispatch re-pickles every worker's graph slice; with it on the wire
    carries one O(1) segment handle.  Byte counts are deterministic
    (fixed-width segment names and slab tokens), so the perf gate checks
    them exactly and floors the off/on ratio at
    :data:`BYTES_REDUCTION_FLOOR`.
    """
    from repro.graph import erdos_renyi
    from repro.harness.experiment import run_algorithm
    from repro.rng import philox_stream
    from repro.runtime.warm import WarmMpBackend

    g = erdos_renyi(400, 4000, philox_stream(seed + 5), weighted=True)
    out = {"p": p, "n": g.n, "m": g.m, "algorithm": "parallel_cc"}
    values = {}
    for label, plane in (("off", False), ("on", True)):
        be = WarmMpBackend(graph_plane=plane)
        try:
            run_algorithm("parallel_cc", g, p=p, seed=seed, backend=be)
            res = run_algorithm("parallel_cc", g, p=p, seed=seed, backend=be)
            stats = be.last_transport_stats
            out[f"repeat_input_bytes_{label}"] = int(
                stats["per_kind"]["input"]["pickle_bytes"])
            values[label] = (int(res.n_components), int(res.labels.sum()),
                             res.report)
        finally:
            be.close()
    out["reduction"] = round(
        out["repeat_input_bytes_off"]
        / max(out["repeat_input_bytes_on"], 1), 2)
    out["reduction_ok"] = out["reduction"] >= BYTES_REDUCTION_FLOOR
    out["results_match"] = values["off"] == values["on"]
    return out


def _median_s(fn, repeats: int) -> float:
    samples = []
    for _rep in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _cold_runs(graph_path: str, seed: int, repeats: int) -> dict:
    """One-shot CLI subprocesses: the per-query cost without the daemon."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return {
        algorithm: _median_s(lambda: subprocess.run(
            [sys.executable, "-m", "repro.cli", algorithm, graph_path,
             "--seed", str(seed), *extra],
            check=True, capture_output=True, env=env), repeats)
        for algorithm, extra in (("parallel_cc", []),
                                 ("square_root", ["--variant", "2out"]))}


def _warm_runs(client, graph_path: str, seed: int, repeats: int):
    """Repeat queries against a live daemon over one connection: median
    repeat latency and the first answer (which paid the graph-cache miss)."""
    medians, first = {}, {}
    for algorithm, extra in (("parallel_cc", {}),
                             ("square_root", {"variant": "2out"})):
        first[algorithm] = client.run(algorithm, graph_path, seed=seed,
                                      **extra)
        medians[algorithm] = _median_s(
            lambda: client.run(algorithm, graph_path, seed=seed, **extra),
            repeats)
    return medians, first


def _concurrent_answers(address: str, graph_path: str, seed: int,
                        clients: int, per_client: int) -> list[list]:
    """Several prioritized clients interleaving queries; client ``idx``'s
    ``q``-th answer is for seed ``seed + idx * per_client + q``."""
    from repro.serve import Client

    def worker(idx: int):
        with Client(address, client=f"bench{idx}",
                    priority=float(1 + idx % 2)) as c:
            return [c.run("square_root", graph_path,
                          seed=seed + idx * per_client + q, variant="2out")
                    for q in range(per_client)]

    with ThreadPoolExecutor(clients) as pool:
        return list(pool.map(worker, range(clients)))


def run_benchmarks(repeats: int = 5, seed: int = 0,
                   clients: int = 3, per_client: int = 3,
                   plane: bool = False) -> dict:
    from repro.graph import erdos_renyi, write_edgelist
    from repro.harness.experiment import run_algorithm
    from repro.rng import philox_stream
    from repro.serve import Client, Daemon, ServeConfig, wait_server

    tmp = tempfile.mkdtemp(prefix="bench_serve_")
    g = erdos_renyi(120, 600, philox_stream(seed + 17), weighted=True)
    graph_path = os.path.join(tmp, "bench.edges")
    write_edgelist(g, graph_path)

    cold = _cold_runs(graph_path, seed, repeats)

    cfg = ServeConfig(bind=os.path.join(tmp, "serve.sock"),
                      state_dir=os.path.join(tmp, "state"),
                      backend="sim", p=4, wave_size=16)
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        with Client(daemon.address, client="bench") as client:
            warm, first = _warm_runs(client, graph_path, seed, repeats)
        concurrent = _concurrent_answers(daemon.address, graph_path, seed,
                                         clients, per_client)

    # every served answer must equal the direct call, bit for bit
    match = True
    d_cc = run_algorithm("parallel_cc", g, p=4, seed=seed)
    match &= first["parallel_cc"]["n_components"] == d_cc.n_components
    d_sq = run_algorithm("square_root", g, p=4, seed=seed, variant="2out")
    match &= first["square_root"]["value"] == d_sq.value
    for idx, answers in enumerate(concurrent):
        for q, r in enumerate(answers):
            solo = run_algorithm("square_root", g, p=4,
                                 seed=seed + idx * per_client + q,
                                 variant="2out")
            match &= r["value"] == solo.value

    speedups = {algorithm: cold[algorithm] / max(warm[algorithm], 1e-9)
                for algorithm in cold}
    record = {
        "workload": {"n": g.n, "m": g.m, "seed": seed, "repeats": repeats,
                     "clients": clients, "per_client": per_client},
        "warm_speedup": speedups,
        "min_warm_speedup": min(speedups.values()),
        "speedup_ok": min(speedups.values()) >= WARM_SPEEDUP_FLOOR,
        "results_match": bool(match),
        "cc_value": int(d_cc.n_components),
        "sq_value": float(d_sq.value),
        "speedup_floor": WARM_SPEEDUP_FLOOR,
    }
    if plane:
        # Warm repeat-query input bytes, plane off vs on (the number the
        # shared graph plane exists to shrink).
        record["graph_plane"] = plane_bytes_per_query(p=4, seed=seed)
        record["graph_plane"]["bytes_reduction_floor"] = BYTES_REDUCTION_FLOOR
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--clients", type=int, default=3)
    ap.add_argument("--per-client", type=int, default=3)
    ap.add_argument("--out", default=str(RESULTS_DIR / "BENCH_serve.json"))
    args = ap.parse_args(argv)
    record = run_benchmarks(repeats=args.repeats, seed=args.seed,
                            clients=args.clients,
                            per_client=args.per_client, plane=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                              + "\n")
    print(f"bench_serve: cold-over-warm cc "
          f"{record['warm_speedup']['parallel_cc']:.1f}x, min "
          f"{record['min_warm_speedup']:.1f}x "
          f"(floor {WARM_SPEEDUP_FLOOR:g}x), "
          f"results_match={record['results_match']} -> {args.out}")
    gp = record.get("graph_plane")
    if gp:
        print(f"graph plane: warm repeat input bytes "
              f"{gp['repeat_input_bytes_off']} -> "
              f"{gp['repeat_input_bytes_on']} "
              f"({gp['reduction']:.1f}x, floor {BYTES_REDUCTION_FLOOR:g}x, "
              f"results_match={gp['results_match']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
