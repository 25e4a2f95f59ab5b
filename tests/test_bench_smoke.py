"""Smoke tests for the kernel microbenchmarks and the perf gate.

The tier-1 run only executes the tiny-scale smoke (the benchmarks carry
their own correctness asserts, so this catches interface drift cheaply);
the full-scale speedup assertions are ``perf``-marked and excluded by
default — run them with ``pytest -m perf tests/test_bench_smoke.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.bench_kernels import BENCHES, run_benchmarks


def test_bench_kernels_smoke_tiny_scale():
    results = run_benchmarks(scale=0.01, seed=1)
    assert set(results) == set(BENCHES)
    for name, r in results.items():
        assert r["fast_s"] > 0 and r["slow_s"] > 0, name
        assert np.isfinite(r["speedup"]), name


def test_bench_kernels_single_selection():
    results = run_benchmarks(scale=0.01, seed=2, names={"contract"})
    assert set(results) == {"contract"}


def test_perf_gate_importable():
    from benchmarks import perf_gate

    assert perf_gate.BASELINE_PATH.name == "perf_baseline.json"
    assert perf_gate.SPEEDUP_FLOORS["contract"] == 10.0


def test_perf_gate_holds_a_row_floor():
    """``prefix_select.stack`` is held on the current run, with or without
    a blessed row, and a missing row is a failure."""
    from benchmarks import perf_gate

    base = {"prefix_select": {"fast_s": 1.0, "speedup": 2.0}}
    row = {"k": 14, "speedup": 1.3}
    now = {"prefix_select": {"fast_s": 1.0, "speedup": 2.0, "stack": row}}
    lines = []
    assert not perf_gate._check_timings(base, now, 2.0, lines)
    assert lines == ["  timings[prefix_select.stack].speedup: 1.3x is under "
                     "the 1.4x floor"]
    row["speedup"] = 1.5
    assert perf_gate._check_timings(base, now, 2.0, [])
    del now["prefix_select"]["stack"]
    assert not perf_gate._check_timings(base, now, 2.0, lines)
    assert lines[-1] == "  timings[prefix_select.stack]: missing from current run"


def gate_reads(section: str, result: dict) -> dict:
    """The fields ``perf_gate.SECTIONS[section]`` picks out of a benchmark
    result (KeyError if the benchmark stopped producing one)."""
    from benchmarks import perf_gate

    sec = perf_gate.SECTIONS[section]
    return perf_gate._fingerprint(
        sec._replace(run=lambda scale, seed: result), 1.0, 0)


def test_bench_two_out_smoke_small_scale():
    from benchmarks.bench_two_out import run_benchmarks as run_two_out

    r = run_two_out(scale=0.25, seed=1)
    assert r["values_match"] and r["small_truth_match"]
    assert r["degrade_honest"]
    assert not r["dense"]["degraded"]
    # every replica is a leaf of the plan: priced, enumerated, not dispatched
    assert max(r["dense"]["contracted_n"]) <= 12
    assert r["dense"]["dispatched_trials"] == 0
    assert r["dense"]["planned_trials"] >= 1
    assert r["dense"]["reduction"] == r["dense"]["planned_reduction"] > 1.0


def test_bench_serve_smoke():
    """The daemon benchmark end-to-end at minimal repeats: served answers
    must match direct runs (the speedup floor itself is perf-gated, not
    asserted here — one repeat is too noisy)."""
    from tests.conftest import require_mp

    require_mp()
    from benchmarks.bench_serve import run_benchmarks as run_serve

    r = run_serve(repeats=1, seed=1, clients=2, per_client=2, plane=True)
    assert r["results_match"]
    assert np.isfinite(r["cc_value"]) and np.isfinite(r["sq_value"])
    assert r["min_warm_speedup"] == min(r["warm_speedup"].values()) > 0
    # every field the gate holds is still produced; raw seconds are not
    assert gate_reads("serve", r)["results_match"]
    assert gate_reads("graph_plane", r["graph_plane"])["results_match"]
    assert not {"cold", "warm", "concurrent"} & set(r)


def test_bench_fusion_smoke_small_scale():
    from benchmarks.bench_fusion import run_benchmarks as run_fusion

    r = run_fusion(scale=0.25, seed=0)
    a, c = r["appmc_dense"], r["cc_multiround"]
    assert a["values_match"] and c["values_match"]
    assert c["shrink_fired"]
    # Fusion must strictly reduce supersteps even at smoke scale.
    assert (a["cluster"]["fused_shrink"]["supersteps"]
            < a["cluster"]["base"]["supersteps"])
    assert c["default"]["fused"]["supersteps"] \
        < c["default"]["base"]["supersteps"]
    assert a["reduction"] > 1.0 and c["ops_reduction"] > 1.0


def test_bench_dynamic_smoke_small_scale():
    """The streaming benchmark end-to-end at reduced scale: every
    deterministic bar (per-epoch label equality, warm/cold cut replay,
    served-equals-local) must hold; the 3x speedup floor itself is
    perf-gated, not asserted here."""
    from benchmarks.bench_dynamic import run_benchmarks as run_dynamic

    r = run_dynamic(scale=0.25, seed=1)
    assert r["results_match"]
    assert r["cc"]["labels_match_every_epoch"]
    assert r["cut"]["replay_match"]
    assert r["speedup"] > 0
    assert r["serve"]["final_epoch"] == r["cc"]["epochs"]
    # every field the gate holds is still produced; latency tables are not
    assert gate_reads("dynamic", r)["results_match"]
    assert not {"incremental", "full", "updates_per_s"} & set(r["cc"])
    assert set(r["serve"]) == {"final_epoch", "final_n_components",
                               "final_labels_sha256"}


@pytest.mark.perf
def test_dynamic_speedup_meets_floor_full_scale():
    """Acceptance bar: incremental CC query >= 3x faster than full
    recompute on the churn workload, with bit-identical answers."""
    from benchmarks.bench_dynamic import (
        DYNAMIC_SPEEDUP_FLOOR,
        run_benchmarks as run_dynamic,
    )

    r = run_dynamic(scale=1.0, seed=0)
    assert r["results_match"]
    assert r["speedup_ok"], r["speedup"]
    assert r["speedup"] >= DYNAMIC_SPEEDUP_FLOOR


@pytest.mark.perf
def test_fusion_reduction_meets_floor_full_scale():
    """Acceptance bar: >= 1.3x predicted-time reduction from fusion +
    group-shrink on the dense min-cut workload (cluster profile), and
    >= 1.2x total-work reduction from shrink on the multi-round CC."""
    from benchmarks.bench_fusion import (
        OPS_REDUCTION_FLOOR,
        REDUCTION_FLOOR,
        run_benchmarks as run_fusion,
    )

    r = run_fusion(scale=1.0, seed=0)
    assert r["reduction_ok"], r["appmc_dense"]["reduction"]
    assert r["ops_reduction_ok"], r["cc_multiround"]["ops_reduction"]
    assert r["appmc_dense"]["reduction"] >= REDUCTION_FLOOR
    assert r["cc_multiround"]["ops_reduction"] >= OPS_REDUCTION_FLOOR


@pytest.mark.perf
def test_contract_speedup_meets_floor_full_scale():
    """Acceptance bar: >= 10x over the scalar reference on contraction of a
    10^5-edge random multigraph (scale=1.0 defaults)."""
    results = run_benchmarks(scale=1.0, seed=0, names={"contract"})
    r = results["contract"]
    assert r["m"] >= 100_000
    assert r["speedup"] >= 10.0, r
