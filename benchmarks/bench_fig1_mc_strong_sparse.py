"""Figure 1: MC strong scaling on a sparse Erdős–Rényi graph.

Paper setup: ER n = 96'000, d = 32, 144-1008 cores; execution time broken
into application and MPI time, with the §5.3 model prediction overlaid
(Fig 1a), and the MPI-to-total ratio (Fig 1b, under 9% at 1008 cores).

Scaled reproduction: ER n = 512, d = 8, p = 2..32 virtual processors, with
a proportionally scaled trial count.  Expected shape: near-linear decrease
of execution time with p and a small but slowly growing MPI fraction.  The
times are the §5.3 model's predictions, so there is no separate model
overlay (docs/reproduction_notes.md).
"""

import pytest

from repro.core import minimum_cut
from repro.graph import erdos_renyi
from repro.rng import philox_stream

from common import MODEL, once, report_experiment

N, DEG, TRIALS, SEED = 512, 8, 32, 1


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(N, N * DEG // 2, philox_stream(SEED), weighted=True)


@pytest.fixture(scope="module")
def sweep(graph):
    rows = []
    for p in (2, 4, 8, 16, 32):
        res = minimum_cut(graph, p=p, seed=SEED, trials=TRIALS)
        t = MODEL.predict(res.report)
        rows.append([p, t.total_s, t.app_s, t.mpi_s, t.mpi_fraction])
    return rows


def test_fig1a_strong_scaling(benchmark, graph, sweep):
    report_experiment(
        "fig1a_mc_strong_sparse",
        f"MC strong scaling, ER n={N} d={DEG}, {TRIALS} trials",
        ["cores", "time_s", "app_s", "mpi_s", "mpi_frac"],
        sweep,
        notes="shape check: time decreases near-linearly with p",
    )
    t2 = sweep[0][1]
    t32 = sweep[-1][1]
    assert t32 < t2 / 6, "strong scaling: 16x procs must give >6x speedup"
    # time the largest configuration once for pytest-benchmark
    once(benchmark, minimum_cut, graph, p=32, seed=SEED, trials=TRIALS)


def test_fig1b_mpi_ratio(benchmark, graph, sweep):
    report_experiment(
        "fig1b_mc_mpi_ratio",
        f"MC time-in-MPI ratio, ER n={N} d={DEG}",
        ["cores", "mpi_fraction"],
        [[row[0], row[4]] for row in sweep],
        notes="paper: below 9% at 1008 cores, slowly growing",
    )
    fractions = [row[4] for row in sweep]
    assert all(f < 0.5 for f in fractions), "communication stays a minor share"
    assert fractions[-1] >= fractions[0] * 0.5, "ratio does not collapse"
    once(benchmark, minimum_cut, graph, p=8, seed=SEED, trials=8)
