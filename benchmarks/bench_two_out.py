"""Random 2-out contraction benchmark: trial counts slashed on dense graphs.

Prices both exact-min-cut pipelines on a dense clustered graph (the
``n^2/m``-large regime where the default Theta((n^2/m) log^2 n) budget
explodes) and writes ``results/BENCH_two_out.json``:

* ``dense``: ``variant="2out"`` end to end — planned and dispatched trial
  counts against the default budget (``planned_trials`` is the plan's
  price list; a replica contracted to at most ``KS_BASE_SIZE`` vertices is
  a leaf, enumerated inside the plan, and dispatches none of it —
  ``dispatched_trials`` is 0 when every replica is one), the cut value
  against the planted minimum, and the predicted (analytic-model) time
  against a two-point
  extrapolation of the default pipeline (running the full default budget
  would take minutes; two probe runs pin down its per-trial cost
  exactly, since the analytic model is linear in the trial count);
* ``sparse``: a weighted cycle — the degrade path, where the minimum
  degree is under the GNT guard and the plan falls back to the default
  pipeline (reduction 1.0, honestly recorded);
* ``small_truth``: a small clustered graph where the full sequential
  reference is affordable — ``variant="2out"`` must match it exactly;
* ``zoo``: every verification-suite corner case — per-case value (checked
  against the known minimum cut, or the sequential reference when the
  suite has none), degrade flag, and planned trial reduction.

Headline numbers are deterministic (analytic times, fixed seeds), so the
trial counts and exactness flags gate in :mod:`benchmarks.perf_gate`.
Wall-clock seconds are recorded for context but never gated.

Acceptance bars:

* ``reduction_ok`` — the default budget over the *planned* 2-out budget
  is >= 3x on the dense workload (:data:`REDUCTION_FLOOR`).  Planned, not
  dispatched: the price list is what the degrade decision compares, and a
  ratio over zero dispatched trials would hold no matter what;
* ``values_match`` — the 2-out value equals the planted minimum cut;
* ``small_truth_match`` — exact agreement with the sequential reference;
* ``degrade_honest`` — the sparse workload degrades with reduction 1.0;
* ``zoo_values_match`` — exact values on every verification-suite case.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_two_out
    PYTHONPATH=src python -m benchmarks.bench_two_out --scale 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Acceptance bar: budgeted Karger–Stein trials, default over 2-out plan.
REDUCTION_FLOOR = 3.0

#: Trial counts for the two default-pipeline probe runs the per-trial
#: cost is fitted from.
PROBE_TRIALS = (2, 4)


def _dense_workload(scale: float, seed: int):
    from repro.graph import clustered_er
    from repro.rng import philox_stream

    n = max(256, int(1024 * scale))
    return clustered_er(n, 48, philox_stream(seed + 77)), 4.0


def run_benchmarks(scale: float = 1.0, seed: int = 0) -> dict:
    import numpy as np

    from repro.core import minimum_cut, minimum_cut_sequential, plan_two_out
    from repro.graph import clustered_er, verification_suite, weighted_cycle
    from repro.rng import philox_stream

    p = 4
    g, planted = _dense_workload(scale, seed)

    t0 = time.perf_counter()
    res = minimum_cut(g, p, seed=seed, variant="2out")
    wall_2out = time.perf_counter() - t0
    s = res.two_out
    dispatched = int(sum(s.replica_completed))

    # Default-pipeline predicted time, extrapolated: the analytic model is
    # linear in the trial count, so two probes recover slope + intercept.
    lo, hi = PROBE_TRIALS
    t_lo = minimum_cut(g, p, seed=seed, trials=lo).time.total_s
    t_hi = minimum_cut(g, p, seed=seed, trials=hi).time.total_s
    per_trial = (t_hi - t_lo) / (hi - lo)
    default_pred = t_lo + per_trial * (s.default_trials - lo)
    pred_2out = res.time.total_s

    sparse = plan_two_out(weighted_cycle(max(64, int(2048 * scale))), p,
                          seed=seed)

    g_small = clustered_er(128, 16, philox_stream(seed + 31), bridges=2)
    truth = minimum_cut_sequential(g_small, seed=seed)[0]
    small = minimum_cut(g_small, p, seed=seed, variant="2out")

    zoo = {}
    for case in verification_suite():
        zr = minimum_cut(case.graph, 2, seed=seed, variant="2out")
        want = (case.mincut if case.mincut is not None
                else minimum_cut_sequential(case.graph, seed=seed)[0])
        zoo[case.name] = {
            "value": zr.value,
            "expected": want,
            "match": zr.value == want,
            "degraded": zr.two_out.degraded,
            "planned_reduction": zr.two_out.reduction,
        }

    reduction = s.reduction  # default budget over the plan's price list
    return {
        "workload": {"n": g.n, "m": g.m, "p": p, "seed": seed,
                     "planted_cut": planted},
        "dense": {
            "value": res.value,
            "replicas": s.replicas,
            "contracted_n": list(s.contracted_n),
            "planned_trials": s.total_trials,
            "dispatched_trials": dispatched,
            "default_trials": s.default_trials,
            "reduction": reduction,
            "planned_reduction": s.reduction,
            "degraded": s.degraded,
            "achieved_success_prob": res.achieved_success_prob,
            "predicted_s": pred_2out,
            "default_predicted_s": default_pred,
            "predicted_speedup": default_pred / pred_2out,
            "wall_s": wall_2out,
        },
        "sparse": {
            "n": int(np.int64(max(64, int(2048 * scale)))),
            "degraded": sparse.degraded,
            "reduction": sparse.reduction,
        },
        "small_truth": {"value": small.value, "sequential": truth},
        "zoo": zoo,
        "values_match": res.value == planted,
        "small_truth_match": small.value == truth,
        "degrade_honest": sparse.degraded and sparse.reduction == 1.0,
        "reduction_ok": reduction >= REDUCTION_FLOOR,
        "zoo_values_match": all(c["match"] for c in zoo.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    record = run_benchmarks(scale=args.scale, seed=args.seed)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "BENCH_two_out.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    d = record["dense"]
    print(f"dense      value {d['value']:g}  trials "
          f"{d['planned_trials']}/{d['default_trials']} "
          f"(reduction {d['reduction']:.1f}x, {d['dispatched_trials']} "
          f"dispatched)  predicted "
          f"{d['predicted_s']:.4f}s vs default {d['default_predicted_s']:.4f}s "
          f"(speedup {d['predicted_speedup']:.1f}x)")
    print(f"sparse     degraded {record['sparse']['degraded']}  "
          f"reduction {record['sparse']['reduction']:g}")
    print(f"small      value {record['small_truth']['value']:g}  "
          f"sequential {record['small_truth']['sequential']:g}")
    zoo_ok = sum(c["match"] for c in record["zoo"].values())
    print(f"zoo        {zoo_ok}/{len(record['zoo'])} exact values")
    print(f"wrote {out}")
    ok = (record["values_match"] and record["small_truth_match"]
          and record["degrade_honest"] and record["reduction_ok"]
          and record["zoo_values_match"])
    if not ok:
        print("bench_two_out: acceptance bars FAILED", file=sys.stderr)
        return 1
    print(f"bench_two_out: OK (>= {REDUCTION_FLOOR:g}x trial reduction, "
          f"exact values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
