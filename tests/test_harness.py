"""Tests for the measurement harness and reporting."""

import json

import numpy as np
import pytest

from repro.harness import (
    Datapoint,
    Series,
    format_table,
    measure,
    median_ci,
    write_experiment_record,
)


class TestMedianCI:
    def test_single_value(self):
        assert median_ci([3.0]) == (3.0, 3.0)

    def test_symmetric_data(self):
        lo, hi = median_ci(list(range(1, 100)))
        assert lo <= 50 <= hi
        assert hi - lo < 25

    def test_ci_narrows_with_samples(self):
        rng = np.random.default_rng(0)
        small = rng.normal(10, 1, 10).tolist()
        large = rng.normal(10, 1, 200).tolist()
        lo_s, hi_s = median_ci(small)
        lo_l, hi_l = median_ci(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_ci([])


class TestMeasure:
    def test_constant_metric_stops_early(self):
        calls = []

        def metric(seed):
            calls.append(seed)
            return 5.0

        dp = measure(metric, min_repetitions=5, max_repetitions=31)
        assert dp.median == 5.0
        assert dp.repetitions == 5
        assert dp.ci_ok

    def test_seeds_are_consecutive(self):
        seen = []
        measure(lambda s: seen.append(s) or 1.0, seed_base=100,
                min_repetitions=3, max_repetitions=3)
        assert seen == [100, 101, 102]

    def test_noisy_metric_adds_repetitions(self):
        rng = np.random.default_rng(1)

        def metric(seed):
            return float(rng.uniform(1, 100))

        dp = measure(metric, min_repetitions=5, max_repetitions=15)
        assert dp.repetitions > 5

    def test_max_repetitions_respected(self):
        rng = np.random.default_rng(2)
        dp = measure(lambda s: float(rng.uniform(0, 1e6)),
                     min_repetitions=3, max_repetitions=7)
        assert dp.repetitions <= 7

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            measure(lambda s: 1.0, min_repetitions=0)
        with pytest.raises(ValueError):
            measure(lambda s: 1.0, min_repetitions=5, max_repetitions=2)

    def test_datapoint_ci_ok_zero(self):
        dp = Datapoint(median=0.0, ci_low=0.0, ci_high=0.0, repetitions=5)
        assert dp.ci_ok


class TestSeries:
    def test_add_and_rows(self):
        s = Series("cc")
        s.add(1, 10.0)
        s.add(2, 5.0)
        assert s.as_rows() == [(1.0, 10.0), (2.0, 5.0)]


class TestFormatTable:
    def test_alignment(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        out = format_table("T", ["x"], [])
        assert "x" in out

    def test_float_formatting(self):
        out = format_table("T", ["v"], [[1234567.0], [0.0000123], [0.0]])
        assert "e+06" in out or "1.235e+06" in out
        assert "e-05" in out
        assert "0" in out


class TestExperimentRecord:
    def test_writes_json(self, tmp_path):
        path = write_experiment_record(
            "fig1", description="d", headers=["p", "t"],
            rows=[[1, np.float64(2.0)], [2, 1.0]],
            notes="n", results_dir=tmp_path,
        )
        data = json.loads(path.read_text())
        assert data["experiment"] == "fig1"
        assert data["rows"] == [[1, 2.0], [2, 1.0]]
        assert data["notes"] == "n"

    def test_creates_directory(self, tmp_path):
        path = write_experiment_record(
            "x", description="", headers=[], rows=[],
            results_dir=tmp_path / "nested" / "dir",
        )
        assert path.exists()


def test_experiments_md_is_a_pure_function_of_the_records(tmp_path):
    """``collect_experiments`` on the checked-in ``results/experiments/``
    reproduces the checked-in EXPERIMENTS.md byte for byte — it raised
    ``KeyError`` from PR 1 to PR 20 and nothing noticed."""
    from benchmarks import collect_experiments

    out = tmp_path / "EXPERIMENTS.md"
    collect_experiments.main(out)
    assert out.read_bytes() == collect_experiments.OUT.read_bytes()


def test_history_names_a_landed_row_by_its_parent():
    """A row is appended before its commit exists; the next append finds the
    commit whose first parent is the row's ``parent`` (PR 21's stayed null)."""
    from benchmarks.history import fill_commits

    rows = [{"pr": 1, "commit": "aaaaaaa", "parent": "0000000"},
            {"pr": 2, "commit": None, "parent": "aaaaaaa"},
            {"pr": 3, "commit": None, "parent": "ccccccc"}]  # not landed
    log = ("b" * 40 + " " + "a" * 40 + " " + "f" * 40 + "\n"  # a merge
           + "a" * 40 + " " + "0" * 40 + "\n" + "0" * 40 + " \n")
    lines = [json.dumps(r) for r in rows]
    filled = fill_commits(lines, log)
    assert [json.loads(x)["commit"] for x in filled] == \
        ["aaaaaaa", "bbbbbbb", None]
    assert filled[0] is lines[0]  # a named row is not rewritten


def _run_stdout(workload, *metric_values):
    """run.py's stdout for one run per ``{metric: value}`` dict."""
    return "".join(
        f"== {workload} (untraced) ==\n  table line\n"
        + json.dumps({"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {k: {"value": v, "unit": "ms"}
                                  for k, v in values.items()}}) + "\n"
        for values in metric_values)


def test_history_row_records_the_same_session_parent():
    """``--parent``: the parent runs' medians and change ÷ parent per
    metric, beside the change's own medians (the row format stays)."""
    from benchmarks.history import make_row

    change = _run_stdout("mc_dense", {"main_p25_ms": 10.0, "ops_per_s": 100},
                         {"main_p25_ms": 12.0, "ops_per_s": 90},
                         {"main_p25_ms": 11.0, "ops_per_s": 0})
    parent = _run_stdout("mc_dense", {"main_p25_ms": 20.0, "ops_per_s": 50},
                         {"main_p25_ms": 22.0, "ops_per_s": 60})
    row = make_row("7", change, "abcdef0", parent)
    assert row["pr"] == 7 and row["parent"] == "abcdef0"
    assert row["commit"] is None and row["correct"] and row["parent_correct"]
    assert row["mc_dense"] == {"main_p25_ms": 11.0, "ops_per_s": 90}
    assert row["parent_runs"]["mc_dense"] == {"main_p25_ms": 21.0,
                                              "ops_per_s": 55}
    assert row["vs_parent"]["mc_dense"] == {"main_p25_ms": 11.0 / 21.0,
                                            "ops_per_s": 90 / 55}
    assert "parent_runs" not in make_row("7", change, "abcdef0")
