"""Benchmark regression gate for the vectorized kernel layer.

Two kinds of baseline live in ``results/perf_baseline.json``:

* **Counter fingerprints** — BSP counter reports (ops, misses, volumes,
  supersteps) and result values of six fixed Fig-1/Fig-3-style workloads.
  These are *exact*: the cost model is analytic, so any drift means an
  algorithmic change (intended → re-bless, unintended → a bug).  This is
  the check that proves vectorization did not alter a single simulated
  trajectory.
* **Kernel timings** — wall-clock seconds and speedup ratios of the
  :mod:`benchmarks.bench_kernels` microbenchmarks.  Checked with slack
  (machine noise is real): a vectorized timing may not exceed
  ``slack x baseline`` (default 2.0, override with ``PERF_GATE_SLACK``),
  and each speedup ratio must stay above its floor — 10x for the
  contraction kernel (the acceptance bar), 1.2x elsewhere.
* **Prefix Selection per call** (``prefix_select_small``) — microseconds
  per :func:`~repro.kernels.prefix_select_labels` call at the sizes the
  Karger–Stein recursion visits (k=9, 50, 400), where fixed per-call cost
  is everything; each may not exceed ``slack x`` its blessed value.
* **Recursion tail** (``ks_tail``) — microseconds per whole
  :func:`~repro.core.karger_stein.karger_stein_matrix` recursion on a
  seeded 81-vertex integer matrix (sampling, Prefix Selection, contraction
  and the enumerated leaves together); same ceiling rule.
* **Components at large m** (``cc_large``) — milliseconds per
  :func:`~repro.kernels.cc_labels` call on the three m >= 10^6 inputs of
  :mod:`benchmarks.bench_kernels` (uniform, ``(u, v)``-sorted, AppMC-style
  blocks), where the kernel filters the edges through a sample's
  components first; same ceiling rule.
* **Transport fingerprints** — the mp backend's shared-memory segment
  allocation counts on the :mod:`benchmarks.bench_transport` workloads.
  Segment counts are deterministic (payload sizes are seed-fixed), so
  they are checked *exactly*, plus two floors: the pooled arena must
  allocate at least 2x fewer segments than the legacy codec, and both
  codecs must produce identical results.  Wall-clock is recorded by the
  benchmark but never gated.
* **Scheduler fingerprints** — the fault-tolerant trial scheduler's
  deterministic acceptance bars from :mod:`benchmarks.bench_faults`:
  the scheduled dispatch must match the legacy dispatch's cut value, a
  crash-recovery run must retry exactly once and reproduce the
  fault-free ledger fingerprint bit-for-bit, and the predicted
  (analytic-model) overhead with injection off must stay under 2%.
* **2-out fingerprints** — the random 2-out contraction preprocessing's
  deterministic headline numbers from :mod:`benchmarks.bench_two_out`:
  exact cut values and trial counts (contracted sizes, planned and
  dispatched trials against the default budget), the exactness flags,
  and the >= 3x dispatched-trial reduction floor on the dense workload.
* **Serve fingerprints** — the :mod:`repro.serve` daemon's acceptance
  bars from :mod:`benchmarks.bench_serve`: exact headline result values,
  the served-equals-direct ``results_match`` flag, and the >= 3x
  warm-repeat-over-cold-one-shot latency floor.  Raw seconds are
  recorded in ``results/BENCH_serve.json`` but never gated.
* **Graph-plane fingerprints** — the shared graph plane's deterministic
  input-shipping byte counts from :func:`bench_serve.plane_bytes_per_query`:
  exact bytes per warm repeat query with the plane off and on (pickle
  sizes are deterministic by construction), the bit-identical
  ``results_match`` flag, and the >= 5x off-over-on bytes-reduction
  floor at p=4.
* **Dynamic fingerprints** — the streaming-update subsystem's
  deterministic acceptance bars from :mod:`benchmarks.bench_dynamic`:
  final component count and canonical label sha after the churn
  workload, final exact/approx cut values and the sparsifier's content
  sha (all bit-exact by the replay-determinism contract), the
  every-epoch ``results_match`` flag, and the >= 3x
  incremental-over-full-recompute query floor.  Raw update/query
  latencies are recorded in ``results/BENCH_dynamic.json`` but never
  gated.
* **Fusion fingerprints** — superstep fusion and group-shrink headline
  numbers from :mod:`benchmarks.bench_fusion`: exact superstep and
  total-ops counts per configuration (the schedule is deterministic, so
  drift means the fusion/shrink decisions changed), the bit-identical
  ``values_match`` flags, the >= 1.3x predicted-time reduction floor on
  the dense approximate-min-cut workload (cluster machine profile) and
  the >= 1.2x total-work reduction floor from group-shrink on the
  multi-round CC workload.

Usage::

    PYTHONPATH=src python -m benchmarks.perf_gate --check     # gate
    PYTHONPATH=src python -m benchmarks.perf_gate --rebless   # new baseline

``--check`` exits 1 with a readable diff on any regression, 2 if no
baseline has been blessed yet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench_faults import OVERHEAD_CEILING_PCT
from bench_faults import run_benchmarks as run_fault_benchmarks
from bench_kernels import run_benchmarks
from bench_transport import ALLOC_REDUCTION_FLOOR
from bench_transport import run_benchmarks as run_transport_benchmarks
from bench_serve import BYTES_REDUCTION_FLOOR, WARM_SPEEDUP_FLOOR
from bench_serve import plane_bytes_per_query
from bench_serve import run_benchmarks as run_serve_benchmarks
from bench_two_out import REDUCTION_FLOOR
from bench_two_out import run_benchmarks as run_two_out_benchmarks
from bench_dynamic import DYNAMIC_SPEEDUP_FLOOR
from bench_dynamic import run_benchmarks as run_dynamic_benchmarks
from bench_fusion import OPS_REDUCTION_FLOOR as FUSION_OPS_FLOOR
from bench_fusion import REDUCTION_FLOOR as FUSION_REDUCTION_FLOOR
from bench_fusion import run_benchmarks as run_fusion_benchmarks

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = RESULTS_DIR / "perf_baseline.json"

#: Wall-clock slack multiplier for timing checks (noise tolerance).
DEFAULT_SLACK = 2.0

#: Ceiling sections: name -> (unit, bench_kernels benchmark, its row table,
#: the gated field of a row).  A row may not exceed ``slack x`` its blessing.
CEILINGS = {
    "prefix_select_small": ("us/call", "prefix_select", "small", "us_per_call"),
    "ks_tail": ("us/call", "prefix_select", "ks_tail", "us_per_call"),
    "cc_large": ("ms", "cc", "large", "ms"),
}

#: Minimum vectorized-over-scalar speedup per microbenchmark.
SPEEDUP_FLOORS = {
    "contract": 10.0,
    "cc": 1.2,
    "prefix_select": 1.2,
    "payload_words": 1.2,
}


def counter_fingerprints() -> dict:
    """Exact BSP counter fingerprints of six fixed benchmark workloads."""
    from repro.baselines import galois_cc_parallel, pbgl_cc
    from repro.core import connected_components, minimum_cut
    from repro.graph import barabasi_albert, erdos_renyi
    from repro.rng import philox_stream

    def rep_dict(r):
        return {k: getattr(r, k) for k in
                ("p", "computation", "volume", "supersteps", "misses",
                 "wait", "total_ops", "total_volume")}

    out = {}
    g1 = erdos_renyi(256, 1024, philox_stream(1), weighted=True)
    r = minimum_cut(g1, p=4, seed=1, trials=8)
    out["mincut_sparse_p4"] = {"value": r.value, "report": rep_dict(r.report)}
    r = minimum_cut(g1, p=8, seed=2, trials=2)  # p > trials: grouped path
    out["mincut_parallel_p8"] = {"value": r.value, "report": rep_dict(r.report)}
    g2 = barabasi_albert(2048, 8, philox_stream(3))
    r = connected_components(g2, p=4, seed=3)
    out["cc_sparse_p4"] = {"count": int(r.n_components),
                           "labels_sum": int(r.labels.sum()),
                           "report": rep_dict(r.report)}
    labels, count, rep, _t = galois_cc_parallel(g2, p=4, seed=3)
    out["galois_p4"] = {"count": int(count), "labels_sum": int(labels.sum()),
                        "report": rep_dict(rep)}
    labels, count, rep, _t = pbgl_cc(g2, p=4, seed=3)
    out["pbgl_p4"] = {"count": int(count), "labels_sum": int(labels.sum()),
                      "report": rep_dict(rep)}
    r = connected_components(g2, p=4, seed=3, hybrid=True)
    out["cc_hybrid_p4"] = {"count": int(r.n_components),
                           "labels_sum": int(r.labels.sum()),
                           "report": rep_dict(r.report)}
    return out


def transport_fingerprints(scale: float = 1.0, seed: int = 0) -> dict:
    """Deterministic transport-gate fields per bench_transport workload."""
    results = run_transport_benchmarks(scale=scale, seed=seed, repeats=1)
    return {
        name: {
            "pooled_segments_created":
                r["pooled"]["stats"]["total"]["segments_created"],
            "legacy_segments_created":
                r["legacy"]["stats"]["total"]["segments_created"],
            "results_match": r["results_match"],
        }
        for name, r in results.items()
    }


def sched_fingerprints(scale: float = 1.0, seed: int = 0) -> dict:
    """Deterministic scheduler-gate fields from bench_faults."""
    r = run_fault_benchmarks(scale=scale, seed=seed, repeats=1)
    return {
        "legacy_value": r["legacy"]["value"],
        "scheduled_value": r["scheduled"]["value"],
        "ledger_fingerprint": r["scheduled"]["fingerprint"],
        "values_match": r["values_match"],
        "recovery_value_match": r["recovery_value_match"],
        "recovery_retried": r["recovery_retried"],
        "fingerprint_match": r["fingerprint_match"],
        "predicted_overhead_pct": r["predicted_overhead_pct"],
    }


def two_out_fingerprints(scale: float = 1.0, seed: int = 0) -> dict:
    """Deterministic 2-out-gate fields from bench_two_out."""
    r = run_two_out_benchmarks(scale=scale, seed=seed)
    d = r["dense"]
    return {
        "dense_value": d["value"],
        "contracted_n": d["contracted_n"],
        "planned_trials": d["planned_trials"],
        "dispatched_trials": d["dispatched_trials"],
        "default_trials": d["default_trials"],
        "reduction": d["reduction"],
        "values_match": r["values_match"],
        "small_truth_match": r["small_truth_match"],
        "degrade_honest": r["degrade_honest"],
        "zoo_values_match": r["zoo_values_match"],
        "reduction_ok": r["reduction_ok"],
    }


def serve_fingerprints(seed: int = 0) -> dict:
    """Deterministic serve-gate fields from bench_serve."""
    r = run_serve_benchmarks(repeats=3, seed=seed)
    return {
        "cc_value": r["cc_value"],
        "sq_value": r["sq_value"],
        "min_warm_speedup": r["min_warm_speedup"],
        "speedup_ok": r["speedup_ok"],
        "results_match": r["results_match"],
    }


def graph_plane_fingerprints(seed: int = 0) -> dict:
    """Deterministic shared-graph-plane gate fields from bench_serve.

    Input-shipping bytes per warm repeat query are exact (fixed-width
    segment names and slab tokens pin the pickle sizes), so both counts
    are checked for drift; the off/on ratio must clear
    :data:`~bench_serve.BYTES_REDUCTION_FLOOR` with bit-identical
    results.
    """
    r = plane_bytes_per_query(p=4, seed=seed)
    return {
        "repeat_input_bytes_off": r["repeat_input_bytes_off"],
        "repeat_input_bytes_on": r["repeat_input_bytes_on"],
        "reduction": r["reduction"],
        "reduction_ok": r["reduction_ok"],
        "results_match": r["results_match"],
    }


def dynamic_fingerprints(scale: float = 1.0, seed: int = 0) -> dict:
    """Deterministic dynamic-gate fields from bench_dynamic."""
    r = run_dynamic_benchmarks(scale=scale, seed=seed)
    return {
        "final_n_components": r["cc"]["final_n_components"],
        "final_labels_sha256": r["cc"]["final_labels_sha256"],
        "exact_value": r["cut"]["exact_value"],
        "approx_value": r["cut"]["approx_value"],
        "sparsifier_sha256": r["cut"]["sparsifier_sha256"],
        "resparsifications": r["cut"]["resparsifications"],
        "speedup": r["speedup"],
        "speedup_ok": r["speedup_ok"],
        "results_match": r["results_match"],
    }


def fusion_fingerprints(scale: float = 1.0, seed: int = 0) -> dict:
    """Deterministic fusion/shrink-gate fields from bench_fusion."""
    r = run_fusion_benchmarks(scale=scale, seed=seed)
    a, c = r["appmc_dense"], r["cc_multiround"]
    return {
        "appmc_supersteps_base": a["cluster"]["base"]["supersteps"],
        "appmc_supersteps_fused": a["cluster"]["fused_shrink"]["supersteps"],
        "appmc_reduction": a["reduction"],
        "appmc_default_reduction": a["default_reduction"],
        "appmc_values_match": a["values_match"],
        "cc_supersteps_base": c["default"]["base"]["supersteps"],
        "cc_supersteps_fused": c["default"]["fused"]["supersteps"],
        "cc_total_ops_base": c["default"]["base"]["total_ops"],
        "cc_total_ops_shrunk": c["default"]["fused_shrink"]["total_ops"],
        "cc_ops_reduction": c["ops_reduction"],
        "cc_shrink_fired": c["shrink_fired"],
        "cc_released_min_supersteps": c["released_min_supersteps"],
        "cc_max_supersteps": c["max_supersteps"],
        "cc_values_match": c["values_match"],
    }


def measure(scale: float = 1.0, seed: int = 0) -> dict:
    """Run all baseline sections and return the combined record."""
    timings = run_benchmarks(scale=scale, seed=seed)
    return {
        "counters": counter_fingerprints(),
        "timings": timings,
        **{section: {name: row[field]
                     for name, row in timings[bench][table].items()}
           for section, (_unit, bench, table, field) in CEILINGS.items()},
        "transport": transport_fingerprints(scale=scale, seed=seed),
        "sched": sched_fingerprints(scale=scale, seed=seed),
        "two_out": two_out_fingerprints(scale=scale, seed=seed),
        "serve": serve_fingerprints(seed=seed),
        "fusion": fusion_fingerprints(scale=scale, seed=seed),
        "graph_plane": graph_plane_fingerprints(seed=seed),
        "dynamic": dynamic_fingerprints(scale=scale, seed=seed),
        "meta": {"scale": scale, "seed": seed},
    }


def _diff_counters(base: dict, now: dict, lines: list[str]) -> bool:
    ok = True
    for wl in sorted(base):
        b, n = base[wl], now.get(wl)
        if n == b:
            continue
        ok = False
        if n is None:
            lines.append(f"  counters[{wl}]: missing from current run")
            continue
        for key in sorted(set(b) | set(n)):
            bv, nv = b.get(key), n.get(key)
            if bv == nv:
                continue
            if isinstance(bv, dict) and isinstance(nv, dict):
                for ck in sorted(set(bv) | set(nv)):
                    if bv.get(ck) != nv.get(ck):
                        lines.append(
                            f"  counters[{wl}].{key}.{ck}: "
                            f"baseline={bv.get(ck)!r} current={nv.get(ck)!r}")
            else:
                lines.append(f"  counters[{wl}].{key}: "
                             f"baseline={bv!r} current={nv!r}")
    return ok


def _check_timings(base: dict, now: dict, slack: float,
                   lines: list[str]) -> bool:
    ok = True
    for name in sorted(base):
        b, n = base[name], now.get(name)
        if n is None:
            ok = False
            lines.append(f"  timings[{name}]: missing from current run")
            continue
        limit = b["fast_s"] * slack
        if n["fast_s"] > limit:
            ok = False
            lines.append(
                f"  timings[{name}].fast_s: {n['fast_s']:.4f}s exceeds "
                f"{limit:.4f}s (= {slack:g} x blessed {b['fast_s']:.4f}s)")
        floor = SPEEDUP_FLOORS.get(name, 1.0)
        if n["speedup"] < floor:
            ok = False
            lines.append(
                f"  timings[{name}].speedup: {n['speedup']:.1f}x is under "
                f"the {floor:g}x floor (blessed: {b['speedup']:.1f}x)")
    return ok


def _check_ceilings(section: str, unit: str, base: dict | None, now: dict,
                    slack: float, lines: list[str]) -> bool:
    """Every blessed value of ``section`` is a ceiling, with ``slack``."""
    if base is None:
        lines.append(f"  {section}: section missing from blessed "
                     "baseline (re-bless to record it)")
        return False
    ok = True
    for name in sorted(base):
        limit = base[name] * slack
        if name not in now:
            ok = False
            lines.append(f"  {section}[{name}]: missing from "
                         f"current run")
        elif now[name] > limit:
            ok = False
            lines.append(
                f"  {section}[{name}]: {now[name]:.1f} {unit} "
                f"exceeds {limit:.1f} (= {slack:g} x blessed "
                f"{base[name]:.1f})")
    return ok


def _check_transport(base: dict | None, now: dict, lines: list[str]) -> bool:
    if base is None:
        lines.append("  transport: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    for wl in sorted(base):
        b, n = base[wl], now.get(wl)
        if n is None:
            ok = False
            lines.append(f"  transport[{wl}]: missing from current run")
            continue
        for key in ("pooled_segments_created", "legacy_segments_created"):
            if b[key] != n[key]:
                ok = False
                lines.append(f"  transport[{wl}].{key}: "
                             f"baseline={b[key]} current={n[key]}")
        if not n["results_match"]:
            ok = False
            lines.append(f"  transport[{wl}]: pooled and legacy codecs "
                         f"produced different results")
        reduction = n["legacy_segments_created"] / max(
            n["pooled_segments_created"], 1)
        if reduction < ALLOC_REDUCTION_FLOOR:
            ok = False
            lines.append(
                f"  transport[{wl}]: allocation reduction {reduction:.1f}x "
                f"is under the {ALLOC_REDUCTION_FLOOR:g}x floor")
    return ok


def _check_sched(base: dict | None, now: dict, lines: list[str]) -> bool:
    if base is None:
        lines.append("  sched: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    # Exact drift checks: values and the fault-free ledger fingerprint
    # are analytic, so any change means the scheduled trial trajectories
    # moved.
    for key in ("legacy_value", "scheduled_value", "ledger_fingerprint"):
        if base[key] != now[key]:
            ok = False
            lines.append(f"  sched.{key}: baseline={base[key]!r} "
                         f"current={now[key]!r}")
    # Acceptance bars, re-proved on every run.
    for flag in ("values_match", "recovery_value_match",
                 "recovery_retried", "fingerprint_match"):
        if not now[flag]:
            ok = False
            lines.append(f"  sched.{flag}: False")
    if now["predicted_overhead_pct"] > OVERHEAD_CEILING_PCT:
        ok = False
        lines.append(
            f"  sched.predicted_overhead_pct: "
            f"{now['predicted_overhead_pct']:.3f}% exceeds the "
            f"{OVERHEAD_CEILING_PCT:g}% ceiling")
    return ok


def _check_two_out(base: dict | None, now: dict, lines: list[str]) -> bool:
    if base is None:
        lines.append("  two_out: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    # Exact drift checks: the preprocessing is replicated deterministic
    # compute, so contracted sizes and trial counts moving means the
    # contraction trajectories changed.
    for key in ("dense_value", "contracted_n", "planned_trials",
                "dispatched_trials", "default_trials"):
        if base[key] != now[key]:
            ok = False
            lines.append(f"  two_out.{key}: baseline={base[key]!r} "
                         f"current={now[key]!r}")
    # Acceptance bars, re-proved on every run.
    for flag in ("values_match", "small_truth_match", "degrade_honest",
                 "zoo_values_match"):
        if not now[flag]:
            ok = False
            lines.append(f"  two_out.{flag}: False")
    if now["reduction"] < REDUCTION_FLOOR:
        ok = False
        lines.append(
            f"  two_out.reduction: {now['reduction']:.1f}x is under the "
            f"{REDUCTION_FLOOR:g}x dispatched-trial floor")
    return ok


def _check_serve(base: dict | None, now: dict, lines: list[str]) -> bool:
    if base is None:
        lines.append("  serve: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    # Exact drift checks: every served answer is validated against the
    # direct call, so the headline result values moving means the served
    # algorithms changed.
    for key in ("cc_value", "sq_value"):
        if base[key] != now[key]:
            ok = False
            lines.append(f"  serve.{key}: baseline={base[key]!r} "
                         f"current={now[key]!r}")
    # Acceptance bars, re-proved on every run.
    if not now["results_match"]:
        ok = False
        lines.append("  serve.results_match: served answers differ from "
                     "direct run_algorithm results")
    if now["min_warm_speedup"] < WARM_SPEEDUP_FLOOR:
        ok = False
        lines.append(
            f"  serve.min_warm_speedup: {now['min_warm_speedup']:.1f}x is "
            f"under the {WARM_SPEEDUP_FLOOR:g}x warm-over-cold floor")
    return ok


def _check_fusion(base: dict | None, now: dict, lines: list[str]) -> bool:
    if base is None:
        lines.append("  fusion: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    # Exact drift checks: the fusion/shrink schedule is deterministic, so
    # superstep counts or total work moving means the merge decisions or
    # the shrink trigger changed.
    for key in ("appmc_supersteps_base", "appmc_supersteps_fused",
                "cc_supersteps_base", "cc_supersteps_fused",
                "cc_total_ops_base", "cc_total_ops_shrunk",
                "cc_released_min_supersteps", "cc_max_supersteps"):
        if base[key] != now[key]:
            ok = False
            lines.append(f"  fusion.{key}: baseline={base[key]!r} "
                         f"current={now[key]!r}")
    # Acceptance bars, re-proved on every run.
    for flag in ("appmc_values_match", "cc_values_match", "cc_shrink_fired"):
        if not now[flag]:
            ok = False
            lines.append(f"  fusion.{flag}: False")
    if now["appmc_reduction"] < FUSION_REDUCTION_FLOOR:
        ok = False
        lines.append(
            f"  fusion.appmc_reduction: {now['appmc_reduction']:.2f}x is "
            f"under the {FUSION_REDUCTION_FLOOR:g}x predicted-time floor")
    if now["cc_ops_reduction"] < FUSION_OPS_FLOOR:
        ok = False
        lines.append(
            f"  fusion.cc_ops_reduction: {now['cc_ops_reduction']:.2f}x is "
            f"under the {FUSION_OPS_FLOOR:g}x total-work floor")
    return ok


def _check_graph_plane(base: dict | None, now: dict,
                       lines: list[str]) -> bool:
    if base is None:
        lines.append("  graph_plane: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    # Exact drift checks: input pickle sizes are deterministic, so a
    # byte moving means the wire format (handles, specs, CMD_RUN tuple)
    # changed.
    for key in ("repeat_input_bytes_off", "repeat_input_bytes_on"):
        if base[key] != now[key]:
            ok = False
            lines.append(f"  graph_plane.{key}: baseline={base[key]!r} "
                         f"current={now[key]!r}")
    # Acceptance bars, re-proved on every run.
    if not now["results_match"]:
        ok = False
        lines.append("  graph_plane.results_match: plane-on and plane-off "
                     "runs produced different results")
    if now["reduction"] < BYTES_REDUCTION_FLOOR:
        ok = False
        lines.append(
            f"  graph_plane.reduction: {now['reduction']:.1f}x is under "
            f"the {BYTES_REDUCTION_FLOOR:g}x input-bytes floor")
    return ok


def _check_dynamic(base: dict | None, now: dict, lines: list[str]) -> bool:
    if base is None:
        lines.append("  dynamic: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    ok = True
    # Exact drift checks: the final labels, cut values and sparsifier
    # bytes are pure functions of (workload, seed, p) by the replay-
    # determinism contract, so any movement means the incremental
    # maintenance or amortization policy changed.
    for key in ("final_n_components", "final_labels_sha256", "exact_value",
                "approx_value", "sparsifier_sha256", "resparsifications"):
        if base[key] != now[key]:
            ok = False
            lines.append(f"  dynamic.{key}: baseline={base[key]!r} "
                         f"current={now[key]!r}")
    # Acceptance bars, re-proved on every run.
    if not now["results_match"]:
        ok = False
        lines.append("  dynamic.results_match: incremental answers differ "
                     "from full recompute / replay / served answers")
    if now["speedup"] < DYNAMIC_SPEEDUP_FLOOR:
        ok = False
        lines.append(
            f"  dynamic.speedup: {now['speedup']:.1f}x is under the "
            f"{DYNAMIC_SPEEDUP_FLOOR:g}x incremental-over-full floor")
    return ok


def check(scale: float, seed: int, slack: float) -> int:
    if not BASELINE_PATH.exists():
        print(f"perf_gate: no baseline at {BASELINE_PATH}; "
              f"run with --rebless first", file=sys.stderr)
        return 2
    base = json.loads(BASELINE_PATH.read_text())
    now = measure(scale=scale, seed=seed)
    lines: list[str] = []
    counters_ok = _diff_counters(base["counters"], now["counters"], lines)
    timings_ok = _check_timings(base["timings"], now["timings"], slack, lines)
    ceilings_ok = all([  # a list, not a generator: every section reports
        _check_ceilings(section, unit, base.get(section), now[section],
                        slack, lines)
        for section, (unit, *_row) in CEILINGS.items()])
    transport_ok = _check_transport(base.get("transport"), now["transport"],
                                    lines)
    sched_ok = _check_sched(base.get("sched"), now["sched"], lines)
    two_out_ok = _check_two_out(base.get("two_out"), now["two_out"], lines)
    serve_ok = _check_serve(base.get("serve"), now["serve"], lines)
    fusion_ok = _check_fusion(base.get("fusion"), now["fusion"], lines)
    plane_ok = _check_graph_plane(base.get("graph_plane"),
                                  now["graph_plane"], lines)
    dynamic_ok = _check_dynamic(base.get("dynamic"), now["dynamic"], lines)
    if (counters_ok and timings_ok and ceilings_ok
            and transport_ok and sched_ok
            and two_out_ok and serve_ok and fusion_ok and plane_ok
            and dynamic_ok):
        speeds = ", ".join(f"{k}={v['speedup']:.1f}x"
                           for k, v in sorted(now["timings"].items()))
        segs = ", ".join(
            f"{k}={v['legacy_segments_created']}->"
            f"{v['pooled_segments_created']}"
            for k, v in sorted(now["transport"].items()))
        ceilings = "; ".join(
            f"{section} "
            + ", ".join(f"{k}={v:.1f}" for k, v in sorted(now[section].items()))
            + f" {unit}"
            for section, (unit, *_row) in CEILINGS.items())
        print(f"perf_gate: OK — counters exact, timings within "
              f"{slack:g}x slack ({speeds}; {ceilings}), "
              f"transport segments exact "
              f"({segs}), scheduler overhead "
              f"{now['sched']['predicted_overhead_pct']:+.3f}% with "
              f"bit-identical crash recovery, 2-out trial reduction "
              f"{now['two_out']['reduction']:.1f}x exact, serve warm "
              f"speedup {now['serve']['min_warm_speedup']:.1f}x with "
              f"matching served answers, fusion reduction "
              f"{now['fusion']['appmc_reduction']:.2f}x and shrink "
              f"total-work reduction "
              f"{now['fusion']['cc_ops_reduction']:.2f}x with bit-identical "
              f"results, graph-plane input bytes "
              f"{now['graph_plane']['repeat_input_bytes_off']}->"
              f"{now['graph_plane']['repeat_input_bytes_on']} "
              f"({now['graph_plane']['reduction']:.1f}x) exact, dynamic "
              f"incremental speedup {now['dynamic']['speedup']:.1f}x with "
              f"bit-identical replay")
        return 0
    print("perf_gate: REGRESSION", file=sys.stderr)
    if not counters_ok:
        print("  (counter drift means the simulated algorithm changed: fix "
              "the change, or re-bless if intended)", file=sys.stderr)
    for line in lines:
        print(line, file=sys.stderr)
    print(f"  re-bless (if this change is intended): "
          f"PYTHONPATH=src python -m benchmarks.perf_gate --rebless",
          file=sys.stderr)
    return 1


def rebless(scale: float, seed: int) -> int:
    record = measure(scale=scale, seed=seed)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(record, indent=1, sort_keys=True)
                             + "\n")
    speeds = ", ".join(f"{k}={v['speedup']:.1f}x"
                       for k, v in sorted(record["timings"].items()))
    print(f"perf_gate: blessed new baseline at {BASELINE_PATH} ({speeds})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against the blessed baseline")
    mode.add_argument("--rebless", action="store_true",
                      help="record the current machine as the new baseline")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="microbenchmark size multiplier (default 1.0)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--slack", type=float,
                    default=float(os.environ.get("PERF_GATE_SLACK",
                                                 DEFAULT_SLACK)),
                    help="timing slack multiplier (env PERF_GATE_SLACK)")
    args = ap.parse_args(argv)
    if args.rebless:
        return rebless(args.scale, args.seed)
    return check(args.scale, args.seed, args.slack)


if __name__ == "__main__":
    raise SystemExit(main())
