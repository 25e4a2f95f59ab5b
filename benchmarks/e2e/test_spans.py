"""The span recorder leaves the program as it found it and adds up.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1).
"""

import json
import sys

import numpy as np

import benchmarks.e2e.run  # noqa: F401  (puts src/ on sys.path)
from benchmarks.e2e.spans import (
    END,
    LAYER,
    NAME,
    PARENT,
    START,
    TARGETS,
    SpanRecorder,
    _resolve,
    patched,
)
from repro import core
from repro.graph import erdos_renyi
from repro.rng import philox_stream


def _bindings():
    """Every (holder, attribute) -> object a patch may touch."""
    out = {}
    for target in TARGETS:
        owner, attr, orig = _resolve(target)
        out[(id(owner), attr)] = (owner, attr, orig)
        for modname, mod in list(sys.modules.items()):
            if mod is not None and modname.split(".")[0] == "repro":
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        out[(id(mod), key)] = (mod, key, orig)
    return out


def test_patched_restores_every_binding():
    before = _bindings()
    rec = SpanRecorder()
    with patched(rec):
        changed = [(h, k) for h, k, orig in before.values()
                   if vars(h)[k] is not orig]
        # every target is wrapped, including the from-imports of callers
        assert len(changed) == len(before)
        import repro.core.contraction as contraction
        import repro.kernels.unionfind as unionfind
        assert contraction.prefix_select_labels \
            is unionfind.prefix_select_labels
    for holder, key, orig in before.values():
        assert vars(holder)[key] is orig


def test_patched_restores_after_an_exception():
    before = _bindings()
    try:
        with patched(SpanRecorder()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    for holder, key, orig in before.values():
        assert vars(holder)[key] is orig


def test_self_times_sum_to_the_root_span():
    g = erdos_renyi(120, 900, philox_stream(3), weighted=True)
    rec = SpanRecorder()
    with patched(rec):
        with rec.span("loop", "bench") as root:
            core.minimum_cut(g, p=2, seed=1, trials=2)
            core.connected_components(g, p=2, seed=1)
    assert len(rec.spans) > 10
    assert {r[LAYER] for r in rec.spans} >= {"bench", "core", "kernels",
                                             "bsp"}
    own = rec.self_times()
    assert all(v >= -1e-9 for v in own.values())
    # self times partition the root span: same clock, same endpoints
    total = sum(own.values())
    assert abs(total - (root[END] - root[START])) < 1e-6
    assert abs(sum(rec.self_by_layer().values()) - total) < 1e-9
    # a recursive function counts its outermost spans only
    seconds, calls = rec.totals()["core.karger_stein"]
    outer = [r for r in rec.select("core", "karger_stein")
             if r[PARENT] is None or r[PARENT][NAME] != "karger_stein"]
    assert calls > len(outer) > 0
    assert abs(seconds - sum(r[END] - r[START] for r in outer)) < 1e-9


def test_traced_sim_results_are_bit_identical():
    g = erdos_renyi(150, 1200, philox_stream(5), weighted=True)
    plain_mc = core.minimum_cut(g, p=2, seed=4, trials=2)
    plain_cc = core.connected_components(g, p=2, seed=4)
    plain_ap = core.approx_minimum_cut(g, p=2, seed=4)
    with patched(SpanRecorder()):
        mc = core.minimum_cut(g, p=2, seed=4, trials=2)
        cc = core.connected_components(g, p=2, seed=4)
        ap = core.approx_minimum_cut(g, p=2, seed=4)
    assert mc.value == plain_mc.value
    assert np.array_equal(mc.side, plain_mc.side)
    assert mc.report == plain_mc.report and mc.time == plain_mc.time
    assert np.array_equal(cc.labels, plain_cc.labels)
    assert cc.report == plain_cc.report
    assert (ap.estimate, ap.witness_value) == (plain_ap.estimate,
                                               plain_ap.witness_value)
    assert ap.report == plain_ap.report


def test_write_jsonl_round_trips_parents(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer", "bench", request="job-1"):
        with rec.span("inner", "core", note=7):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["outer", "inner"]
    assert rows[0]["parent"] is None and rows[1]["parent"] == rows[0]["id"]
    # a child without its own request id inherits its parent's
    assert rows[1]["request_id"] == "job-1" and rows[1]["note"] == 7
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] \
        <= rows[0]["end"]
