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

    PYTHONPATH=src python -m benchmarks.audit_probabilistic
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.baselines import stoer_wagner
from repro.core import karger_stein, minimum_cut
from repro.core.trials import (
    achieved_success_probability,
    recursive_success_probability,
)
from repro.graph import AdjacencyMatrix, clustered_er, erdos_renyi, \
    verification_suite
from repro.rng import philox_stream

__all__ = ["audit", "audit_two_out", "SEEDS", "FORMER_BASE"]

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


def _two_out_graphs():
    """The ``mc_dense`` input, ``serve_mix``'s graph B (both at the
    ROADMAP's reference seed 3), the perf gate's small-truth graph and the
    one zoo case whose 2-out plan does not degrade."""
    known = {row[0]: row for row in _graphs()}
    yield known["mc_dense_seed3"]
    for name, g in (
            ("serve_mix_B_seed3", clustered_er(512, 64, philox_stream(4))),
            ("clustered_128_16_b2",
             clustered_er(128, 16, philox_stream(31), bridges=2))):
        yield name, g, stoer_wagner(g)[0]
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
    record = {"ks_base_size": base, "former_base": FORMER_BASE,
              "seeds": len(SEEDS), "rows": now, "two_out_rows": two_out,
              "holds": ok}
    RESULT_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
