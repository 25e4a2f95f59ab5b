"""Benchmark regression gate: one baseline, ``results/perf_baseline.json``.

* **Counter fingerprints** (``counters``) — BSP counter reports and result
  values of six fixed Fig-1/Fig-3-style workloads.  *Exact*: the cost model
  is analytic, so any drift means an algorithmic change (intended →
  re-bless, unintended → a bug).  This is the check that proves a kernel or
  runtime change did not alter a single simulated trajectory.
* **Kernel timings** (``timings``) — wall-clock seconds and speedups of the
  :mod:`benchmarks.bench_kernels` microbenchmarks.  Machine noise is real:
  a timing may not exceed ``slack x baseline`` (default 2.0, override with
  ``PERF_GATE_SLACK``), a kernel-over-oracle speedup may not fall under
  its floor (:data:`SPEEDUP_FLOORS`).
* **Ceilings** (:data:`CEILINGS`) — per-call cost where fixed overhead is
  everything: Prefix Selection at the Karger–Stein recursion's own sizes,
  one whole recursion on an 81-vertex matrix, ``cc_labels`` at m >= 10^6.
  Same ``slack x blessed`` rule.
* **Subsystem sections** (:data:`SECTIONS`) — the deterministic acceptance
  bars of the transport, scheduler, 2-out, serve, fusion, graph-plane and
  dynamic benchmarks, one table: each field of a benchmark's result is held
  exactly, or must be true, or is a ratio against a floor or ceiling the
  benchmark module names.  Raw seconds are recorded, never gated.

Usage (``--check`` exits 1 with a readable diff on any regression, 2 if no
baseline has been blessed yet)::

    PYTHONPATH=src python -m benchmarks.perf_gate --check     # gate
    PYTHONPATH=src python -m benchmarks.perf_gate --rebless   # new baseline
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from functools import partial, reduce
from pathlib import Path
from typing import Callable, NamedTuple

import bench_dynamic
import bench_faults
import bench_fusion
import bench_serve
import bench_transport
import bench_two_out
from bench_kernels import run_benchmarks

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
SPEEDUP_FLOORS = {"contract": 10.0, "cc": 1.2, "prefix_select": 1.2,
                  "payload_words": 1.2}


class Flag(NamedTuple):
    """A field that must be true on every run."""

    text: str | None = None  # failure text after the section name


class Bound(NamedTuple):
    """A field held to ``limit`` on every run."""

    holds: Callable[[float, float], bool]  # operator.ge: floor, le: ceiling
    limit: float
    text: str  # failure text after the section name; {v} measured, {b} limit


#: May not drift from its blessing: the field is a pure function of
#: (workload, seed), so movement means the algorithm changed.
EXACT = "exact"
LOOSE = "loose"  # recorded in the baseline, not held
TRUE = Flag()


class Field(NamedTuple):
    key: str
    rule: Flag | Bound | str
    #: Dotted path into the benchmark's result (default: the key) — or a
    #: function of the recorded fields, computed when checked, not recorded.
    path: str | Callable[[dict], float] | None = None


class Section(NamedTuple):
    """One subsystem's gate; fields are checked, and report, in this order."""

    run: Callable[..., dict]  # (scale=, seed=) -> the benchmark's result
    ok: str  # the OK line's fragment, formatted with the recorded fields
    fields: tuple[Field, ...]
    #: Set when the result is a table of workload rows, each recorded and
    #: held on its own: a row's part of the OK fragment (``{0}`` its name).
    per_row: str | None = None


F = Field
SECTIONS: dict[str, Section] = {
    # Segment counts are deterministic: payload sizes are seed-fixed.
    "transport": Section(
        partial(bench_transport.run_benchmarks, repeats=1),
        "transport segments exact ({})",
        (F("pooled_segments_created", EXACT,
           "pooled.stats.total.segments_created"),
         F("legacy_segments_created", EXACT,
           "legacy.stats.total.segments_created"),
         F("results_match", Flag(
             ": pooled and legacy codecs produced different results")),
         F("reduction", Bound(
             operator.ge, bench_transport.ALLOC_REDUCTION_FLOOR,
             ": allocation reduction {v:.1f}x is under the {b:g}x floor"),
           lambda n: n["legacy_segments_created"]
           / max(n["pooled_segments_created"], 1))),
        per_row="{0}={legacy_segments_created}->{pooled_segments_created}",
    ),
    # Values and the fault-free ledger fingerprint are analytic.
    "sched": Section(
        partial(bench_faults.run_benchmarks, repeats=1),
        "scheduler overhead {predicted_overhead_pct:+.3f}% with bit-identical "
        "crash recovery",
        (F("legacy_value", EXACT, "legacy.value"),
         F("scheduled_value", EXACT, "scheduled.value"),
         F("ledger_fingerprint", EXACT, "scheduled.fingerprint"),
         F("values_match", TRUE),
         F("recovery_value_match", TRUE),
         F("recovery_retried", TRUE),
         F("fingerprint_match", TRUE),
         F("predicted_overhead_pct", Bound(
             operator.le, bench_faults.OVERHEAD_CEILING_PCT,
             ".predicted_overhead_pct: {v:.3f}% exceeds the {b:g}% ceiling"))),
    ),
    # The preprocessing is replicated deterministic compute: contracted
    # sizes and trial counts moving means the contraction trajectories did.
    "two_out": Section(
        bench_two_out.run_benchmarks,
        "2-out trial reduction {reduction:.1f}x exact",
        (F("dense_value", EXACT, "dense.value"),
         F("contracted_n", EXACT, "dense.contracted_n"),
         F("planned_trials", EXACT, "dense.planned_trials"),
         F("dispatched_trials", EXACT, "dense.dispatched_trials"),
         F("default_trials", EXACT, "dense.default_trials"),
         F("values_match", TRUE),
         F("small_truth_match", TRUE),
         F("degrade_honest", TRUE),
         F("zoo_values_match", TRUE),
         F("reduction_ok", LOOSE),
         F("reduction", Bound(
             operator.ge, bench_two_out.REDUCTION_FLOOR, ".reduction: "
             "{v:.1f}x is under the {b:g}x planned-trial floor"),
           "dense.reduction")),
    ),
    # Every served answer is validated against the direct call, so the
    # headline values moving means the served algorithms changed.
    "serve": Section(
        lambda scale, seed: bench_serve.run_benchmarks(repeats=3, seed=seed),
        "serve warm speedup {min_warm_speedup:.1f}x with matching served "
        "answers",
        (F("cc_value", EXACT),
         F("sq_value", EXACT),
         F("results_match", Flag(".results_match: served answers differ "
                                 "from direct run_algorithm results")),
         F("speedup_ok", LOOSE),
         F("min_warm_speedup", Bound(
             operator.ge, bench_serve.WARM_SPEEDUP_FLOOR, ".min_warm_speedup: "
             "{v:.1f}x is under the {b:g}x warm-over-cold floor"))),
    ),
    # The fusion/shrink schedule is deterministic: superstep counts or
    # total work moving means the merge decisions or the shrink trigger did.
    "fusion": Section(
        bench_fusion.run_benchmarks,
        "fusion reduction {appmc_reduction:.2f}x and shrink total-work "
        "reduction {cc_ops_reduction:.2f}x with bit-identical results",
        (F("appmc_supersteps_base", EXACT,
           "appmc_dense.cluster.base.supersteps"),
         F("appmc_supersteps_fused", EXACT,
           "appmc_dense.cluster.fused_shrink.supersteps"),
         F("cc_supersteps_base", EXACT,
           "cc_multiround.default.base.supersteps"),
         F("cc_supersteps_fused", EXACT,
           "cc_multiround.default.fused.supersteps"),
         F("cc_total_ops_base", EXACT, "cc_multiround.default.base.total_ops"),
         F("cc_total_ops_shrunk", EXACT,
           "cc_multiround.default.fused_shrink.total_ops"),
         F("cc_released_min_supersteps", EXACT,
           "cc_multiround.released_min_supersteps"),
         F("cc_max_supersteps", EXACT, "cc_multiround.max_supersteps"),
         F("appmc_values_match", TRUE, "appmc_dense.values_match"),
         F("cc_values_match", TRUE, "cc_multiround.values_match"),
         F("cc_shrink_fired", TRUE, "cc_multiround.shrink_fired"),
         F("appmc_default_reduction", LOOSE, "appmc_dense.default_reduction"),
         F("appmc_reduction", Bound(
             operator.ge, bench_fusion.REDUCTION_FLOOR, ".appmc_reduction: "
             "{v:.2f}x is under the {b:g}x predicted-time floor"),
           "appmc_dense.reduction"),
         F("cc_ops_reduction", Bound(
             operator.ge, bench_fusion.OPS_REDUCTION_FLOOR,
             ".cc_ops_reduction: {v:.2f}x is under the {b:g}x total-work "
             "floor"),
           "cc_multiround.ops_reduction")),
    ),
    # Input pickle sizes are deterministic (fixed-width segment names), so
    # a byte moving means the wire format (handles, CMD_RUN tuple) changed.
    "graph_plane": Section(
        lambda scale, seed: bench_serve.plane_bytes_per_query(p=4, seed=seed),
        "graph-plane input bytes {repeat_input_bytes_off}->"
        "{repeat_input_bytes_on} ({reduction:.1f}x) exact",
        (F("repeat_input_bytes_off", EXACT),
         F("repeat_input_bytes_on", EXACT),
         F("results_match", Flag(".results_match: plane-on and plane-off "
                                 "runs produced different results")),
         F("reduction_ok", LOOSE),
         F("reduction", Bound(
             operator.ge, bench_serve.BYTES_REDUCTION_FLOOR, ".reduction: "
             "{v:.1f}x is under the {b:g}x input-bytes floor"))),
    ),
    # Final labels and cut values are pure functions of (workload, seed,
    # p) by the determinism contract.
    "dynamic": Section(
        bench_dynamic.run_benchmarks,
        "dynamic incremental speedup {speedup:.1f}x with bit-identical "
        "replay",
        (F("final_n_components", EXACT, "cc.final_n_components"),
         F("final_labels_sha256", EXACT, "cc.final_labels_sha256"),
         F("exact_value", EXACT, "cut.exact_value"),
         F("approx_value", EXACT, "cut.approx_value"),
         F("results_match", Flag(
             ".results_match: incremental answers differ from full "
             "recompute / replay / served answers")),
         F("speedup_ok", LOOSE),
         F("speedup", Bound(
             operator.ge, bench_dynamic.DYNAMIC_SPEEDUP_FLOOR, ".speedup: "
             "{v:.1f}x is under the {b:g}x incremental-over-full floor"))),
    ),
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

    def cut_row(r):
        return {"value": r.value, "report": rep_dict(r.report)}

    def cc_row(labels, count, report):
        return {"count": int(count), "labels_sum": int(labels.sum()),
                "report": rep_dict(report)}

    out = {}
    g1 = erdos_renyi(256, 1024, philox_stream(1), weighted=True)
    out["mincut_sparse_p4"] = cut_row(minimum_cut(g1, p=4, seed=1, trials=8))
    out["mincut_parallel_p8"] = cut_row(  # p > trials: grouped path
        minimum_cut(g1, p=8, seed=2, trials=2))
    g2 = barabasi_albert(2048, 8, philox_stream(3))
    r = connected_components(g2, p=4, seed=3)
    out["cc_sparse_p4"] = cc_row(r.labels, r.n_components, r.report)
    out["galois_p4"] = cc_row(*galois_cc_parallel(g2, p=4, seed=3)[:3])
    out["pbgl_p4"] = cc_row(*pbgl_cc(g2, p=4, seed=3)[:3])
    r = connected_components(g2, p=4, seed=3, hybrid=True)
    out["cc_hybrid_p4"] = cc_row(r.labels, r.n_components, r.report)
    return out


def _fingerprint(sec: Section, scale: float, seed: int) -> dict:
    """The recorded fields of one section's benchmark run."""
    result = sec.run(scale=scale, seed=seed)

    def pick(row):
        return {f.key: reduce(operator.getitem, (f.path or f.key).split("."),
                              row)
                for f in sec.fields if not callable(f.path)}

    if sec.per_row:
        return {name: pick(row) for name, row in result.items()}
    return pick(result)


def measure(scale: float = 1.0, seed: int = 0) -> dict:
    """Run all baseline sections and return the combined record."""
    timings = run_benchmarks(scale=scale, seed=seed)
    return {
        "counters": counter_fingerprints(),
        "timings": timings,
        **{section: {name: row[field]
                     for name, row in timings[bench][table].items()}
           for section, (_unit, bench, table, field) in CEILINGS.items()},
        **{name: _fingerprint(sec, scale, seed)
           for name, sec in SECTIONS.items()},
        "meta": {"scale": scale, "seed": seed},
    }


def _diff(where: str, base, now, lines: list[str]) -> None:
    """One line per leaf where two (nested) blessed and current values
    differ — the exact-drift check of every section."""
    if isinstance(base, dict) and isinstance(now, dict):
        for key in sorted(set(base) | set(now)):
            _diff(f"{where}.{key}", base.get(key), now.get(key), lines)
    elif base != now:
        lines.append(f"  {where}: baseline={base!r} current={now!r}")


def _diff_counters(base: dict, now: dict, lines: list[str]) -> bool:
    before = len(lines)
    for wl in sorted(base):
        if wl not in now:
            lines.append(f"  counters[{wl}]: missing from current run")
        else:
            _diff(f"counters[{wl}]", base[wl], now[wl], lines)
    return len(lines) == before


def _check_timings(base: dict, now: dict, slack: float,
                   lines: list[str]) -> bool:
    before = len(lines)
    for name in sorted(base):
        b, n = base[name], now.get(name)
        if n is None:
            lines.append(f"  timings[{name}]: missing from current run")
            continue
        limit = b["fast_s"] * slack
        if n["fast_s"] > limit:
            lines.append(
                f"  timings[{name}].fast_s: {n['fast_s']:.4f}s exceeds "
                f"{limit:.4f}s (= {slack:g} x blessed {b['fast_s']:.4f}s)")
        floor = SPEEDUP_FLOORS.get(name, 1.0)
        if n["speedup"] < floor:
            lines.append(
                f"  timings[{name}].speedup: {n['speedup']:.1f}x is under "
                f"the {floor:g}x floor (blessed: {b['speedup']:.1f}x)")
    return len(lines) == before


def _check_ceilings(section: str, unit: str, base: dict | None, now: dict,
                    slack: float, lines: list[str]) -> bool:
    """Every blessed value of ``section`` is a ceiling, with ``slack``."""
    if base is None:
        lines.append(f"  {section}: section missing from blessed "
                     "baseline (re-bless to record it)")
        return False
    before = len(lines)
    for name in sorted(base):
        limit = base[name] * slack
        if name not in now:
            lines.append(f"  {section}[{name}]: missing from current run")
        elif now[name] > limit:
            lines.append(
                f"  {section}[{name}]: {now[name]:.1f} {unit} "
                f"exceeds {limit:.1f} (= {slack:g} x blessed "
                f"{base[name]:.1f})")
    return len(lines) == before


def _check_section(name: str, base: dict | None, now: dict,
                   lines: list[str]) -> bool:
    """Hold one :data:`SECTIONS` entry against its blessing."""
    sec = SECTIONS[name]
    if base is None:
        lines.append(f"  {name}: section missing from blessed baseline "
                     "(re-bless to record it)")
        return False
    rows = ([(f"{name}[{wl}]", base[wl], now.get(wl)) for wl in sorted(base)]
            if sec.per_row else [(name, base, now)])
    before = len(lines)
    for where, b, n in rows:
        if n is None:
            lines.append(f"  {where}: missing from current run")
            continue
        for key, rule, path in sec.fields:
            if rule == EXACT:
                _diff(f"{where}.{key}", b[key], n[key], lines)
            elif isinstance(rule, Flag) and not n[key]:
                lines.append(f"  {where}" + (rule.text or f".{key}: False"))
            elif isinstance(rule, Bound):
                v = path(n) if callable(path) else n[key]
                if not rule.holds(v, rule.limit):
                    lines.append(
                        f"  {where}" + rule.text.format(v=v, b=rule.limit))
    return len(lines) == before


def check(scale: float, seed: int, slack: float) -> int:
    if not BASELINE_PATH.exists():
        print(f"perf_gate: no baseline at {BASELINE_PATH}; "
              f"run with --rebless first", file=sys.stderr)
        return 2
    base = json.loads(BASELINE_PATH.read_text())
    now = measure(scale=scale, seed=seed)
    lines: list[str] = []
    oks = [  # a list, not a generator: every section reports
        _diff_counters(base["counters"], now["counters"], lines),
        _check_timings(base["timings"], now["timings"], slack, lines),
        *[_check_ceilings(section, unit, base.get(section), now[section],
                          slack, lines)
          for section, (unit, *_row) in CEILINGS.items()],
        *[_check_section(name, base.get(name), now[name], lines)
          for name in SECTIONS],
    ]
    if all(oks):
        speeds = ", ".join(f"{k}={v['speedup']:.1f}x"
                           for k, v in sorted(now["timings"].items()))
        ceilings = "; ".join(
            f"{section} "
            + ", ".join(f"{k}={v:.1f}" for k, v in sorted(now[section].items()))
            + f" {unit}"
            for section, (unit, *_row) in CEILINGS.items())
        fragments = [
            sec.ok.format(", ".join(sec.per_row.format(wl, **row) for wl, row
                                    in sorted(now[name].items())))
            if sec.per_row else sec.ok.format(**now[name])
            for name, sec in SECTIONS.items()]
        print(f"perf_gate: OK — counters exact, timings within "
              f"{slack:g}x slack ({speeds}; {ceilings}), "
              + ", ".join(fragments))
        return 0
    print("perf_gate: REGRESSION", file=sys.stderr)
    if not oks[0]:
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
