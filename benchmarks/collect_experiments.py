#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the records under results/experiments/.

That directory holds paper-figure experiment records only — what
:func:`benchmarks.common.report_experiment` writes; the gate baseline and
the ``BENCH_*`` / ``AUDIT_*`` snapshots live one level up.  Run the
benchmarks first (``pytest benchmarks/ --benchmark-only``), then::

    PYTHONPATH=src python -m benchmarks.collect_experiments

Each experiment section pairs the paper's reported behaviour with the
regenerated series and the reproduction verdict asserted by the bench.
EXPERIMENTS.md is a pure function of the checked-in records
(``tests/test_harness.py`` regenerates it and compares byte for byte).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results" / "experiments"
OUT = ROOT / "EXPERIMENTS.md"

#: Paper-side context per experiment id: (paper setup, paper observation).
PAPER = {
    "fig1a_mc_strong_sparse": (
        "Fig 1a — MC strong scaling, ER n=96'000 d=32, 144-1008 cores",
        "Execution time drops near-linearly with cores (~30 s at 144 to a "
        "few seconds at 1008); the fitted model's points track the bars; "
        "~20x over sequential KS at 144 cores, 115x at 1008.",
    ),
    "fig1b_mc_mpi_ratio": (
        "Fig 1b — MC time-in-MPI ratio on the same runs",
        "T_MPI/T stays below ~9% at 1008 cores, growing slowly with scale.",
    ),
    "fig3a_cc_strong_sparse": (
        "Fig 3a — CC strong scaling, Barabási-Albert n=1M d=32, 1-72 cores",
        "CC initially beats Galois and PBGL but scaling is limited on the "
        "sparse input; sequential CC slightly faster than BGL and Galois; "
        "PBGL an order of magnitude slower sequentially.",
    ),
    "fig3b_cc_strong_dense": (
        "Fig 3b — CC strong scaling, R-MAT n=128'000 d=2'000",
        "The dense input provides enough parallelism: CC scales comparably "
        "to PBGL and Galois while staying consistently faster than both.",
    ),
    "fig4a_cc_llc_misses": (
        "Fig 4a — sequential LLC misses, R-MAT d=256, n up to 1M",
        "CC and Galois incur significantly fewer misses than BGL as inputs "
        "grow (~3x at about a million vertices).",
    ),
    "fig4b_cc_sequential_time": (
        "Fig 4b — sequential execution time on the Fig 4a sweep",
        "Despite ~33% more instructions than BGL, CC's higher IPM yields a "
        "better time trend as the problem grows.",
    ),
    "fig4c_cc_ipm": (
        "Fig 4c — instructions per LLC miss vs cores, R-MAT n=128'000 d=2'048",
        "CC and Galois sustain a lower miss rate (higher IPM) than PBGL at "
        "low parallelism; the IPM is eventually matched as parallelism is "
        "exhausted.",
    ),
    "fig4d_cc_strong_scaling": (
        "Fig 4d — CC strong scaling with app/MPI split on the Fig 4c graph",
        "MPI time is ~2.8% of execution at 36 cores growing to ~9.6% at 72; "
        "the ratio tracks node count rather than core count.",
    ),
    "fig5a_appmc_strong_dense": (
        "Fig 5a — AppMC strong scaling, R-MAT n=256'000 d=4'096, 36-360 cores",
        "AppMC scales to hundreds of processors on dense inputs; MPI is "
        "~26% of total time at 144 cores.",
    ),
    "fig5b_appmc_weak": (
        "Fig 5b — AppMC weak scaling, R-MAT n=16'000, 2.048M edges/node",
        "Near-constant time: 8x more edges and processors cost only 1.55x "
        "more time.",
    ),
    "fig6_mc_strong_dense": (
        "Fig 6 — MC strong scaling, R-MAT n=16'000 d=4'000, 48-1536 cores",
        "Near-linear scaling with better efficiency than the sparse case; "
        "the model tracks the measurement; both sequential baselines time "
        "out (>3h) on this input.",
    ),
    "fig6_mc_mpi_fraction": (
        "Fig 6 (right) — MC MPI fraction on the dense input",
        "Communication costs decrease proportionately to p but form a "
        "larger fraction of total time than in the sparse regime.",
    ),
    "fig7_mc_weak_sparse": (
        "Fig 7 (left) — MC weak scaling, Watts-Strogatz d=32, 4'000 verts/node",
        "Execution time grows linearly in n at fixed n/p (time ~ n^2/p), "
        "i.e. the straight trend line.",
    ),
    "fig7_mc_weak_dense": (
        "Fig 7 (right) — MC weak scaling, R-MAT d=1'000, 2'000 verts/node",
        "Same linear trend on the dense family.",
    ),
    "fig8a_cut_ipm": (
        "Fig 8a — IPM of KS vs MC vs SW (setup of Fig 9)",
        "KS sustains the highest IPM (designed for sequential cache "
        "efficiency), MC is in between, SW's IPM collapses with n.",
    ),
    "fig8b_cc_ipm": (
        "Fig 8b — IPM of BGL vs CC vs Galois (setup of Fig 4)",
        "CC's IPM is significantly higher than BGL's, explaining its "
        "better time trend despite more instructions.",
    ),
    "fig9a_seq_cache_misses": (
        "Fig 9a — sequential LLC misses of KS, MC, SW on ER d=32",
        "SW incurs dramatically more misses than both KS and MC; KS is the "
        "most efficient.",
    ),
    "fig9b_seq_time": (
        "Fig 9b — sequential execution time on the same sweep",
        "All three show ~O(n^2)-like growth on m=O(n) inputs, with SW far "
        "above (~40x slower than KS; baselines time out on dense inputs).",
    ),
    "table1_n_sweep": (
        "Table 1 — MC computation bound O(n^2 log^3 n / p), n sweep",
        "Stated asymptotic bound (the paper proves it; no measured table).",
    ),
    "table1_p_sweep": (
        "Table 1 — MC computation bound, p sweep",
        "Computation is inversely proportional to p.",
    ),
    "table1_supersteps": (
        "Table 1 — supersteps bound O(log(pm/n^2))",
        "Supersteps grow only logarithmically once p exceeds the trial "
        "count.",
    ),
    "appmc_vs_mc": (
        "§5.2 — AppMC vs MC on the Fig 1 inputs",
        "AppMC is an order of magnitude faster than MC on sparse graphs, "
        "using a fraction of cores in a fraction of time.",
    ),
    "appmc_ratio": (
        "§A.6.2 — AppMC approximation quality",
        "Observed approximation ratio below 11 on all inputs.",
    ),
    "ablation_unweighted_sampling": (
        "§3.2 remark — unweighted local sampling",
        "Avoiding the root round-trip and O(log n)-per-edge draws 'turned "
        "out to be crucial in practice'.",
    ),
    "ablation_appmc_schedule": (
        "§3.3 remark — staged vs pipelined AppMC",
        "'It does not pay off to pipeline the outer loop'; the staged "
        "variant is faster when the minimum cut value is small.",
    ),
    "ablation_contraction": (
        "§3/§4.1 — edge-array vs adjacency-matrix representation",
        "The AM representation is crucial for consistent performance on "
        "very dense graphs (switch at m >= n^2/log n).",
    ),
    "ablation_eager_step": (
        "§4 — the Eager Step",
        "Contracting to sqrt(m) vertices before Recursive Contraction keeps "
        "each sparse trial at O(m log n) work instead of Theta(n^2).",
    ),
    "ext_hybrid_cc": (
        "Extension (§3.2 remark) — sparsification as a CC preconditioner",
        "'Sparsification could be used to speed up other connected "
        "components algorithms.'",
    ),
    "ext_preprocessing": (
        "Extension (§2.3 remark) — weight preprocessing",
        "'This assumption can be removed by a preprocessing step without "
        "increasing the presented bounds.'",
    ),
    "ext_all_min_cuts": (
        "Extension (Lemma 4.3) — all minimum cuts",
        "'The communication-avoiding minimum cut algorithm finds all "
        "minimum cuts w.h.p.'",
    ),
    "ext_spanning_forest": (
        "Extension — Borůvka minimum spanning forest",
        "The BSP comparator family the paper cites for CC (Adler et al. "
        "[2]) is an MST algorithm; this closes the circle on our substrate.",
    ),
}

HEADER = """\
# EXPERIMENTS — paper vs reproduction

Regenerated from ``results/experiments/*.json`` by
``benchmarks/collect_experiments.py`` after ``pytest benchmarks/ --benchmark-only``.

**Reading guide.** The paper ran MPI on Piz Daint (Cray XC50, up to 1536
cores); this reproduction runs the same algorithms on a deterministic BSP
simulator and reports the paper's §5.3 performance model applied to
exactly-measured counters (see DESIGN.md §2 for the substitution table).
Absolute numbers are therefore not comparable; each experiment's *shape*
(orderings, scaling exponents, crossovers, ratios) is what the benchmark
asserts.  Scales are reduced ~100-1000x to fit pure-Python simulation.

Every row below is live data from the last benchmark run.
"""


def chart_for(data):
    """Best-effort ASCII chart of numeric series over a numeric first column."""
    from repro.harness.asciiplot import ascii_chart

    headers = data["headers"]
    rows = [r for r in data["rows"] if r and isinstance(r[0], (int, float))]
    if len(rows) < 2 or len(headers) < 2:
        return None
    xs = [float(r[0]) for r in rows]
    if len(set(xs)) < 2:
        return None
    series = {}
    for col in range(1, len(headers)):
        vals = [r[col] for r in rows]
        if all(isinstance(v, (int, float)) for v in vals):
            series[str(headers[col])] = [float(v) for v in vals]
        if len(series) == 4:
            break
    if not series:
        return None
    flat = [v for ys in series.values() for v in ys]
    logy = min(flat) > 0 and max(flat) / max(min(flat), 1e-300) > 100
    logx = min(xs) > 0 and max(xs) / min(xs) > 30
    try:
        return ascii_chart(xs, series, logx=logx, logy=logy,
                           title=f"x = {headers[0]}")
    except ValueError:
        return None


def fmt(x):
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1e5 or abs(x) < 1e-3:
            return f"{x:.3e}"
        return f"{x:.4g}"
    return str(x)


def main(out: Path = OUT):
    sections = [HEADER]
    order = list(PAPER)
    extras = sorted(p.stem for p in RESULTS.glob("*.json")
                    if p.stem not in PAPER)
    for exp_id in order + extras:
        path = RESULTS / f"{exp_id}.json"
        if not path.exists():
            sections.append(f"## {exp_id}\n\n*(no record — benchmark not run)*\n")
            continue
        data = json.loads(path.read_text())
        paper_setup, paper_obs = PAPER.get(exp_id, ("(extra experiment)", ""))
        lines = [f"## {paper_setup}", ""]
        if paper_obs:
            lines += [f"**Paper:** {paper_obs}", ""]
        lines += [f"**Reproduction:** {data['description']}", ""]
        headers = data["headers"]
        lines.append("| " + " | ".join(map(str, headers)) + " |")
        lines.append("|" + "|".join(["---"] * len(headers)) + "|")
        for row in data["rows"]:
            lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
        chart = chart_for(data)
        if chart:
            lines += ["", "```", chart, "```"]
        if data.get("notes"):
            lines += ["", f"*Measured shape:* {data['notes']}"]
        lines.append("")
        sections.append("\n".join(lines))
    out.write_text("\n".join(sections))
    print(f"wrote {out} ({len(order + extras)} experiments)")


if __name__ == "__main__":
    main()
