"""A short pass of all four workloads, untraced and traced.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1; a
couple of minutes, since it starts daemons and process pools).  The
schedule is cut to the floor of every loop; the graphs keep their size.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import benchmarks.e2e.run as run
from benchmarks.e2e.workloads import WORKLOADS, Clock

SECONDS = 1.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def outcomes():
    return {(name, trace): run.run_workload(name, 0, SECONDS, trace)
            for name in WORKLOADS for trace in (0, 1)}


def test_spec_is_well_formed():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    setup = run.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_declared_metric_is_emitted(outcomes):
    for (name, trace), o in outcomes.items():
        declared = run.PER_LAYER if trace else run.END_TO_END
        assert list(o.values) == list(declared), (name, trace)
        assert all(math.isfinite(v) for v in o.values.values()), (name, trace)
        assert o.failed == 0 and o.attempted >= 1, (name, trace, o.notes)
        if not trace:  # the driver divides by these
            assert all(v > 0 for v in o.values.values()), (name, o.values)


def test_every_per_layer_metric_is_produced_somewhere(outcomes):
    for metric in run.PER_LAYER:
        assert any(outcomes[name, 1].values[metric] != 0
                   for name in WORKLOADS), metric


def test_layers_cover_the_loop(outcomes):
    for name in WORKLOADS:
        values = outcomes[name, 1].values
        assert 0 <= values["bench.unattributed_share"] < 0.1, name
        assert values["bench.trace_overhead_ratio"] > 0, name


def test_result_line_is_the_drivers_shape(outcomes):
    for (name, trace), o in outcomes.items():
        doc = json.loads(o.result_line())
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0
        declared = run.PER_LAYER if trace else run.END_TO_END
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == \
            {k: m["unit"] for k, m in declared.items()}


def test_same_seed_reproduces_every_exact_count(outcomes):
    for name in WORKLOADS:
        first = outcomes[name, 1]
        again = run.run_workload(name, 0, SECONDS, 1)
        assert not first.truncated and not again.truncated
        for metric, value in first.values.items():
            if run.is_exact(metric):
                assert again.values[metric] == value, (name, metric)
        assert (again.attempted, again.failed) == (first.attempted, 0)


def _inputs(w) -> list:
    """The arrays and schedules a set-up generated, whatever the workload."""
    out = []
    for value in vars(w).values():
        if hasattr(value, "u") and hasattr(value, "w"):    # an EdgeList
            out += [value.u, value.v, value.w]
    for attr in ("queries", "stream"):
        if hasattr(w, attr):
            out.append(np.frombuffer(
                json.dumps(getattr(w, attr)).encode(), dtype=np.uint8))
    for path in getattr(w, "paths", {}).values():
        out.append(np.frombuffer(Path(path).read_bytes(), dtype=np.uint8))
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_seed_drives_the_inputs(name):
    made = {}
    for label, seed in (("a", 0), ("again", 0), ("b", 1)):
        w = WORKLOADS[name](seed, SECONDS / run.SPEC["run_seconds"],
                            Clock(normalise=False))
        try:
            w.setup()
            made[label] = _inputs(w)
        finally:
            w.teardown()
    assert made["a"], name
    assert all(np.array_equal(x, y)
               for x, y in zip(made["a"], made["again"], strict=True))
    assert any(x.shape != y.shape or not np.array_equal(x, y)
               for x, y in zip(made["a"], made["b"], strict=True))


def test_clock_scales_by_the_probes_around_an_interval():
    clock = Clock(normalise=True)
    clock.marks = [(0.0, 1.0, 0.010), (5.0, 6.0, 0.020), (9.0, 10.0, 0.020)]
    ref = run.PROBE_REF_S
    # between the first two marks: mean reading 15 ms
    assert clock.elapsed(2.0, 4.0) == pytest.approx(2.0 * ref / 0.015)
    # across the middle mark: its second is excluded, each side has its own
    assert clock.elapsed(4.0, 8.0) == pytest.approx(
        1.0 * ref / 0.015 + 2.0 * ref / 0.020)
    raw = Clock(normalise=False)
    raw.mark()
    assert raw.marks == [] and raw.elapsed(2.0, 4.0) == 2.0
    t, out = raw.timed(lambda: 7)
    assert out == 7 and t >= 0
