"""Empirical audit of the exact min cut's probabilistic claims.

The trial count of §4 rests on two lower bounds — Lemma 2.1 (a minimum cut
survives the Eager Step) and Lemma 2.2 (Recursive Contraction finds a
surviving one) — and :func:`~repro.core.trials.achieved_success_probability`
composes them into what ``minimum_cut(trials=t)`` *claims*.  This audit
measures what it *delivers*: over seeded runs on the e2e ``mc_dense`` graph
and two verification-suite graphs, the exact-hit rate of

* ``minimum_cut(trials=2)`` against the claimed probability of two trials;
* one ``karger_stein_matrix`` invocation on the graph's matrix against the
  Lemma 2.2 bound,

at the current ``KS_BASE_SIZE`` and — because moving the base case changes
the draws — at the former base of 8.  An exactly enumerated larger leaf
cannot lose a cut that reaches it, so the true rate can only have risen;
the two *samples* share the Eager Step's draws but not the recursion's, so
they are compared to within the binomial standard error of their
difference, not hit for hit.  ``results/AUDIT_probabilistic.json`` holds
both columns; ``tests/test_statistical.py`` asserts the never-worse-than-
claimed half on every run of the suite.

``variant="2out"`` claims its own number: ``achieved_success_prob`` is
``1 - prod_r (1 - p0 * x_r)`` over the contraction replicas, with
``x_r = 1`` for a replica small enough to be enumerated (a *leaf*,
``docs/two_out.md``).  :func:`audit_two_out` holds the measured exact-hit
rate of the whole pipeline against the **smallest** claim any of the runs
made, on four graphs whose replicas are all leaves (``two_out_rows``).

The approximate cut (§3.3) claims a *band*, not a rate: Theorem 3.4's
``2^j`` is within O(log n) of the minimum cut w.h.p.  :func:`audit_appmc`
records the distribution of ``estimate / mincut`` per graph
(``appmc_rows``) and holds it inside :func:`appmc_band`.  Each row also
carries a ``before`` column — the same statistics under the sampler that
drew every level independently (through PR 23).  That sampler is gone, so
``before`` is carried over from the published record, never recomputed; a
change to AppMC's draws must not widen any graph's worst
``|log2(estimate / mincut)|`` beyond it.

    PYTHONPATH=src python -m benchmarks.audit_probabilistic
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from pathlib import Path

from repro.baselines import stoer_wagner
from repro.core import approx_minimum_cut, karger_stein, minimum_cut
from repro.core.trials import (
    achieved_success_probability,
    recursive_success_probability,
)
from repro.graph import AdjacencyMatrix, clustered_er, erdos_renyi, \
    verification_suite
from repro.rng import philox_stream

__all__ = ["audit", "audit_two_out", "audit_appmc", "appmc_band",
           "appmc_in_band", "SEEDS", "FORMER_BASE"]

RESULT_PATH = (Path(__file__).resolve().parent.parent / "results"
               / "AUDIT_probabilistic.json")
SEEDS = range(64)
FORMER_BASE = 8
_ZOO = ("ring_4x5", "bridge_k7_x3")


def _graphs():
    """``(name, graph, true minimum cut)``: the ``mc_dense`` input at the
    ROADMAP's reference seed, and the two largest connected zoo cases."""
    dense = erdos_renyi(400, 6_400, philox_stream(3), weighted=True)
    yield "mc_dense_seed3", dense, stoer_wagner(dense)[0]
    for case in verification_suite():
        if case.name in _ZOO:
            yield case.name, case.graph, case.mincut


def audit(seeds=SEEDS) -> list[dict]:
    """One row per graph: claimed bound and measured exact-hit rate of both
    procedures at the ``KS_BASE_SIZE`` in force."""
    rows = []
    for name, g, truth in _graphs():
        a = AdjacencyMatrix.from_edgelist(g).a

        def rate(values):
            return sum(math.isclose(v, truth, rel_tol=1e-9)
                       for v in values) / len(seeds)

        rows.append({
            "graph": name, "n": g.n, "m": g.m, "mincut": truth,
            "minimum_cut_trials2": {
                "bound": achieved_success_probability(g.n, g.m, 2),
                "rate": rate(minimum_cut(g, p=2, seed=s, trials=2).value
                             for s in seeds)},
            "karger_stein_matrix": {
                "bound": recursive_success_probability(g.n),
                "rate": rate(karger_stein.karger_stein_matrix(
                    a, philox_stream(s))[0] for s in seeds)},
        })
    return rows


def _with_truth(name, g):
    return name, g, stoer_wagner(g)[0]


def _clustered_128():
    """The perf gate's small-truth graph."""
    return _with_truth("clustered_128_16_b2",
                       clustered_er(128, 16, philox_stream(31), bridges=2))


def _two_out_graphs():
    """The ``mc_dense`` input, ``serve_mix``'s graph B (both at the
    ROADMAP's reference seed 3), the perf gate's small-truth graph and the
    one zoo case whose 2-out plan does not degrade."""
    known = {row[0]: row for row in _graphs()}
    yield known["mc_dense_seed3"]
    yield _with_truth("serve_mix_B_seed3",
                      clustered_er(512, 64, philox_stream(4)))
    yield _clustered_128()
    yield known["ring_4x5"]


def audit_two_out(seeds=SEEDS) -> list[dict]:
    """One row per graph: ``variant="2out"``'s exact-hit rate against the
    smallest ``achieved_success_prob`` the runs claimed."""
    rows = []
    for name, g, truth in _two_out_graphs():
        runs = [minimum_cut(g, p=2, seed=s, variant="2out") for s in seeds]
        assert not any(r.two_out.degraded for r in runs), name
        rows.append({
            "graph": name, "n": g.n, "m": g.m, "mincut": truth,
            "contracted_n_max": max(max(r.two_out.contracted_n)
                                    for r in runs),
            "bound": min(r.achieved_success_prob for r in runs),
            "rate": sum(math.isclose(r.value, truth, rel_tol=1e-9)
                        for r in runs) / len(seeds)})
    return rows


def appmc_band(n: int) -> float:
    """The factor Theorem 3.4 allows between ``estimate`` and the minimum
    cut: sampling at rate ``3 ln n / mincut`` stays connected w.p.
    ``1 - 1/n`` (Karger's sampling theorem with d = 1), and the power-of-two
    levels round by at most another 2."""
    return 6 * math.log(n)


def _appmc_graphs():
    """A dense, a planted-small-cut and a sparse weighted graph, and the
    two zoo cases the other audits use."""
    known = {row[0]: row for row in _graphs()}
    yield known["mc_dense_seed3"]
    yield _clustered_128()
    yield _with_truth("er_1000_8000_w",
                      erdos_renyi(1000, 8_000, philox_stream(3), weighted=True))
    yield known["ring_4x5"]
    yield known["bridge_k7_x3"]


def audit_appmc(seeds=SEEDS) -> list[dict]:
    """One row per graph: the histogram of the staged schedule's
    ``estimate``, its ratio to the true minimum cut, the worst witness and
    the median superstep count."""
    rows = []
    for name, g, truth in _appmc_graphs():
        runs = [approx_minimum_cut(g, p=2, seed=s) for s in seeds]
        ratios = [r.estimate / truth for r in runs]
        hist = Counter(r.estimate for r in runs)
        rows.append({
            "graph": name, "n": g.n, "m": g.m, "mincut": truth,
            "band": appmc_band(g.n),
            "estimates": {str(e): hist[e] for e in sorted(hist)},
            "ratio_min": min(ratios),
            "ratio_median": statistics.median(ratios),
            "ratio_max": max(ratios),
            "worst_log2": max(abs(math.log2(x)) for x in ratios),
            "witness_ratio_min": min(
                (r.witness_value / truth for r in runs
                 if r.witness_value is not None), default=None),
            "supersteps_median": statistics.median(
                r.report.supersteps for r in runs)})
    return rows


def appmc_in_band(row) -> bool:
    """Every estimate of the row within ``band`` of the minimum cut."""
    return 1 / row["band"] <= row["ratio_min"] <= row["ratio_max"] <= row["band"]


def main() -> int:
    now = audit()
    base = karger_stein.KS_BASE_SIZE
    karger_stein.KS_BASE_SIZE = FORMER_BASE
    try:
        former = audit()
    finally:
        karger_stein.KS_BASE_SIZE = base
    ok = True
    for row, old in zip(now, former):
        for claim in ("minimum_cut_trials2", "karger_stein_matrix"):
            cell = row[claim]
            cell["rate_former_base"] = was = old[claim]["rate"]
            pooled = (cell["rate"] + was) / 2
            cell["stderr"] = math.sqrt(2 * pooled * (1 - pooled) / len(SEEDS))
            cell["holds"] = (min(cell["rate"], was) >= cell["bound"]
                             and cell["rate"] >= was - cell["stderr"])
            ok = ok and cell["holds"]
            print(f"{row['graph']:<16}{claim:<22}bound {cell['bound']:.4f}  "
                  f"base {FORMER_BASE}: {was:.3f}  base {base}: "
                  f"{cell['rate']:.3f} (+-{cell['stderr']:.3f})  "
                  f"{'ok' if cell['holds'] else 'WORSE'}")
    two_out = audit_two_out()
    for row in two_out:
        row["holds"] = row["rate"] >= row["bound"]
        ok = ok and row["holds"]
        print(f"{row['graph']:<22}{'2out':<16}claimed {row['bound']:.4f}  "
              f"measured {row['rate']:.3f}  "
              f"{'ok' if row['holds'] else 'WORSE'}")
    before = {row["graph"]: row["before"] for row in
              json.loads(RESULT_PATH.read_text())["appmc_rows"]}
    appmc = audit_appmc()
    for row in appmc:
        row["before"] = was = before[row["graph"]]
        row["holds"] = (appmc_in_band(row)
                        and row["worst_log2"] <= was["worst_log2"])
        ok = ok and row["holds"]
        print(f"{row['graph']:<22}{'appmc':<16}estimate/mincut "
              f"{row['ratio_min']:.3g}..{row['ratio_median']:.3g}.."
              f"{row['ratio_max']:.3g} (band {row['band']:.1f}x)  worst "
              f"|log2| {row['worst_log2']:.2f} (before "
              f"{was['worst_log2']:.2f})  {'ok' if row['holds'] else 'WORSE'}")
    record = {"ks_base_size": base, "former_base": FORMER_BASE,
              "seeds": len(SEEDS), "rows": now, "two_out_rows": two_out,
              "appmc_rows": appmc, "holds": ok}
    RESULT_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
