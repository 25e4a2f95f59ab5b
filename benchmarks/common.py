"""Shared helpers for the per-figure benchmark harness.

Every benchmark regenerates one table/figure of the paper's §5 at reduced
scale: it sweeps the figure's x-axis, reports the paper's metric computed
from BSP counters (or LRU cache simulation for the sequential studies),
prints the series in a paper-style table, and records them under
``results/experiments/`` for EXPERIMENTS.md.

"Execution time" is always the §5.3 machine-model prediction applied to
the measured counters — the same constant-factor translation the authors
fitted to their Piz Daint runs — so parallel algorithms and sequential
baselines are comparable on one axis.
"""

from __future__ import annotations

from pathlib import Path

from repro.bsp.machine import MachineModel
from repro.cache.model import CacheParams
from repro.cache.traced import MemoryTracker
from repro.harness.report import format_table, write_experiment_record

#: One machine model shared by all benchmarks (Piz Daint-flavoured).
MODEL = MachineModel()

#: Scaled-down LLC for the cache studies: big enough to hold hot arrays of
#: small inputs, small enough that the sweep's larger inputs overflow it
#: (the paper's 45 MiB LLC plays the same role at 10^6-vertex scale).
STUDY_CACHE = CacheParams(M=1 << 15, B=8)

#: Paper-figure experiment records, and nothing else, live here.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "experiments"


def sequential_time(mem: MemoryTracker, model: MachineModel = MODEL) -> float:
    """Predicted seconds of an instrumented sequential run."""
    return mem.op_count * model.op_s + mem.miss_count * model.miss_s


def report_experiment(exp_id, description, headers, rows, notes=""):
    """Print the paper-style series and persist them under RESULTS_DIR."""
    table = format_table(f"[{exp_id}] {description}", headers, rows)
    print("\n" + table)
    if notes:
        print(f"  note: {notes}")
    write_experiment_record(
        exp_id, description=description, headers=headers, rows=rows,
        notes=notes, results_dir=RESULTS_DIR,
    )


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The simulated runs take seconds; statistical repetition comes from the
    medians-over-seeds methodology inside each experiment, not from
    re-running the whole sweep.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
