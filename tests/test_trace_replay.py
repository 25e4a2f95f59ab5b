"""Trace-replay corpus: blessed JSONL traces pin the superstep structure.

``tests/data/traces/`` holds recorded traces of four fixed-seed
workloads (iterated-sampling CC, the approximate min-cut pipeline on a
disconnected and on a connected graph, and the 2-out-contraction min
cut).  Each test replays a blessed file
through the full offline path — :func:`repro.trace.read_jsonl` →
:func:`repro.trace.aggregate_trace` → the analyzer
(:func:`repro.trace.fusion_plan` / :func:`repro.trace.format_analysis`)
— and re-runs the workload live, asserting the engine still produces
the *identical* event sequence.  Any drift in collective order,
payload sizes, counter deltas, or the recorded arrival-cleanliness
flags fails loudly here, turning "the schedule changed" from a silent
perf surprise into a reviewed diff of the blessed corpus.

Regenerate after an *intended* schedule change::

    PYTHONPATH=src python -m tests.test_trace_replay --regen

and commit the rewritten files alongside the change that moved them.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.bsp.fusion import FusionConfig
from repro.graph import erdos_renyi
from repro.harness import run_algorithm
from repro.rng import philox_stream
from repro.trace import (
    FINAL,
    RecordingTracer,
    aggregate_trace,
    find_fusible_runs,
    format_analysis,
    fusion_plan,
    read_jsonl,
    write_jsonl,
)

TRACE_DIR = Path(__file__).resolve().parent / "data" / "traces"

#: The blessed workloads.  Graphs are regenerated from Philox seeds, so
#: a corpus file is a pure function of this table and the engine.
CORPUS = {
    "cc_p4_seed3.jsonl": dict(
        algorithm="parallel_cc", n=80, m=200, gseed=42, p=4, seed=3,
        kwargs={}),
    "approx_cut_p3_seed9.jsonl": dict(
        algorithm="approx_cut", n=80, m=200, gseed=42, p=3, seed=9,
        kwargs={}),
    # Connected, so the run passes the precheck and pins the sampler:
    # the draw, the level search and the unions' CC rounds.
    "approx_cut_connected_p3_seed9.jsonl": dict(
        algorithm="approx_cut", n=80, m=400, gseed=42, p=3, seed=9,
        kwargs={}),
    "two_out_p4_seed5.jsonl": dict(
        algorithm="square_root", n=80, m=200, gseed=42, p=4, seed=5,
        kwargs={"variant": "2out", "trial_scale": 0.25}),
}

#: Analyzer pins: expected superstep count and the fusion plan's
#: predicted savings on each blessed trace (default FusionConfig).
#: These move together with the corpus — regenerate both on intended
#: schedule changes.
ANALYZER_PINS = {
    "cc_p4_seed3.jsonl": {"supersteps": 5, "saved_supersteps": 1},
    "approx_cut_p3_seed9.jsonl": {"supersteps": 7, "saved_supersteps": 3},
    "approx_cut_connected_p3_seed9.jsonl": {"supersteps": 21,
                                            "saved_supersteps": 8},
    "two_out_p4_seed5.jsonl": {"supersteps": 3, "saved_supersteps": 1},
}


def record(name: str):
    """Re-run workload ``name`` live and return its recorded events."""
    spec = CORPUS[name]
    g = erdos_renyi(spec["n"], spec["m"], philox_stream(spec["gseed"]),
                    weighted=True)
    tracer = RecordingTracer()
    run_algorithm(spec["algorithm"], g, p=spec["p"], seed=spec["seed"],
                  backend="sim", tracer=tracer, **spec["kwargs"])
    return tracer.events()


def strip_wall(events):
    return [dataclasses.replace(ev, wall_s=0.0) for ev in events]


def split_runs(events):
    """Split a (possibly multi-run) canonical stream at FINAL records.

    A tracer may span several engine runs (the 2-out pipeline runs its
    planning program and its trial dispatches on one backend); the
    aggregation invariant applies per run.
    """
    runs, cur = [], []
    for ev in events:
        cur.append(ev)
        if ev.kind == FINAL:
            runs.append(cur)
            cur = []
    assert not cur, "trace ends without a FINAL flush record"
    return runs


@pytest.fixture(params=sorted(CORPUS))
def blessed(request):
    path = TRACE_DIR / request.param
    assert path.exists(), (
        f"blessed trace {path} missing — regenerate with "
        f"PYTHONPATH=src python -m tests.test_trace_replay --regen"
    )
    return request.param, read_jsonl(path)


class TestReplay:
    def test_replay_matches_live_run(self, blessed):
        name, events = blessed
        assert strip_wall(record(name)) == strip_wall(events)

    def test_blessed_trace_aggregates(self, blessed):
        """The delta-reconstruction invariant holds on the stored file
        (not just in memory): JSONL round-tripping preserved every bit."""
        _name, events = blessed
        for run in split_runs(events):
            report = aggregate_trace(run)
            assert report.supersteps == sum(
                1 for ev in run if ev.kind != FINAL)

    def test_blessed_traces_record_cleanliness(self, blessed):
        """Every collective event carries per-participant clean flags
        (the analyzer's fusion precondition), and some arrival is clean —
        otherwise the corpus could not exercise the fusion detector."""
        _name, events = blessed
        collectives = [ev for ev in events if ev.kind != FINAL]
        assert all(len(ev.clean) == len(ev.participants)
                   for ev in collectives)
        assert any(all(ev.clean) for ev in collectives)

    def test_analyzer_pins(self, blessed):
        name, events = blessed
        plan = fusion_plan(events)
        pins = ANALYZER_PINS[name]
        assert plan["supersteps"] == pins["supersteps"]
        assert plan["predicted"]["saved_supersteps"] == \
            pins["saved_supersteps"]
        assert plan["predicted"]["supersteps_after"] == \
            pins["supersteps"] - pins["saved_supersteps"]

    def test_connected_appmc_entry_reaches_the_sampler(self):
        """The connected entry answers after the precheck, with a witness."""
        spec = CORPUS["approx_cut_connected_p3_seed9.jsonl"]
        g = erdos_renyi(spec["n"], spec["m"], philox_stream(spec["gseed"]),
                        weighted=True)
        res = run_algorithm(spec["algorithm"], g, p=spec["p"],
                            seed=spec["seed"], backend="sim")
        assert res.estimate > 0
        assert res.witness_value == g.cut_value(res.witness_side)

    def test_plan_agrees_with_fused_rerun(self):
        """The analyzer's prediction on the blessed CC trace equals what
        actually happens when the same workload re-runs with fusion on."""
        name = "cc_p4_seed3.jsonl"
        spec = CORPUS[name]
        plan = fusion_plan(read_jsonl(TRACE_DIR / name))
        g = erdos_renyi(spec["n"], spec["m"], philox_stream(spec["gseed"]),
                        weighted=True)
        from repro.runtime import SimBackend
        fused = run_algorithm(spec["algorithm"], g, p=spec["p"],
                              seed=spec["seed"],
                              backend=SimBackend(fuse=True))
        assert fused.report.supersteps == \
            plan["predicted"]["supersteps_after"]

    def test_format_analysis_renders(self, blessed):
        _name, events = blessed
        text = format_analysis(events, k=5)
        assert "trace analysis" in text
        assert "fusible runs" in text

    def test_tighter_config_finds_fewer(self, blessed):
        """max_chain=2 can never detect more fusible savings than the
        default config — a monotonicity sanity check on the detector."""
        _name, events = blessed
        narrow = sum(r.saved_supersteps for r in find_fusible_runs(
            events, fuse=FusionConfig(max_chain=2)))
        wide = sum(r.saved_supersteps for r in find_fusible_runs(events))
        assert narrow <= wide


def regen() -> None:
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CORPUS):
        events = record(name)
        n = write_jsonl(events, TRACE_DIR / name)
        plan = fusion_plan(events)
        print(f"{name}: {n} events, supersteps={plan['supersteps']}, "
              f"saved_supersteps={plan['predicted']['saved_supersteps']}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
