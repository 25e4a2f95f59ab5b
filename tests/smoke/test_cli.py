"""Smokes that drive ``python -m repro.cli`` as a subprocess."""
import dataclasses
import json

import pytest

from repro.serve.jobs import JobStore
from repro.trace import FINAL, aggregate_trace, read_jsonl


def test_backend(cli, graphs):
    """Multiprocess backend smoke (2 real processes)."""
    sim, mp = (cli("parallel_cc", graphs["cc"], "--procs", 2, "--backend",
                   b)[0].split(",") for b in ("sim", "mp"))
    # identical CSV record apart from the measured-time columns
    assert sim[8] == mp[8], f"component count diverged: {sim[8]} vs {mp[8]}"
    assert sim[:5] == mp[:5]


def test_two_out(cli, graphs, tmp_path):
    """2-out contraction mp smoke (2 real processes)."""
    sim, mp = (cli("square_root", graphs["dense"], "--procs", 2, "--backend",
                   b, "--variant", "2out", "--trace", tmp_path / b)
               for b in ("sim", "mp"))
    assert sim[0].split(",")[8] == mp[0].split(",")[8], (sim, mp)  # cut value
    # identical two_out summary (trial counts, reduction) either way
    assert sim[1] == mp[1] and "reduction" in sim[1], (sim[1], mp[1])
    # one FINAL record per engine run: the plan's dispatch and no other —
    # every replica is a leaf the plan enumerated (one worker pool, not 13)
    for b in ("sim", "mp"):
        finals = [e for e in read_jsonl(tmp_path / b) if e.kind == FINAL]
        assert len(finals) == 1, (b, len(finals))


def test_dynamic_cli(cli, graphs, tmp_path):
    """Dynamic CLI streaming smoke (background daemon, verified replay)."""
    sock = tmp_path / "s.sock"
    proc = cli("serve", "--bind", sock, "--state-dir", tmp_path / "state",
               "--backend", "sim", "--procs", 2, wait=False)
    # --verify replays every answer locally; a mismatch exits non-zero
    cli("dynamic", sock, graphs["cc"], "--procs", 2, "--seed", 3, "--batches",
        4, "--batch-size", 8, "--verify", "--wait-server", 30)
    cli("query", sock, "--shutdown")
    assert proc.wait(timeout=60) == 0
    assert not sock.exists()


def test_analyzer(cli, graphs, tmp_path):
    """Trace-analyzer smoke (record -> analyze -> fused re-run)."""
    trace, plan_path, fused_trace = (tmp_path / n for n in (
        "cc.jsonl", "plan.json", "fused.jsonl"))
    cli("parallel_cc", graphs["cc"], "--procs", 4, "--trace", trace)
    cli("analyze-trace", trace, "--top", 5, "--plan", plan_path)
    cli("parallel_cc", graphs["cc"], "--procs", 4, "--fuse", "--trace",
        fused_trace)
    plan = json.loads(plan_path.read_text())
    assert plan["supersteps"] > 0 and plan["fusible_runs"], plan
    fused = [e for e in read_jsonl(fused_trace) if e.kind != FINAL]
    assert len(fused) == plan["predicted"]["supersteps_after"], (
        len(fused), plan["predicted"])


@pytest.mark.parametrize("algorithm, graph", [("parallel_cc", "cc"),
                                              ("approx_cut", "descend")])
def test_trace_parity(cli, graphs, tmp_path, monkeypatch, algorithm, graph):
    """Trace parity (sim vs mp, bit-identical events)."""
    def events(backend):
        cli(algorithm, graphs[graph], "--procs", 2, "--backend", backend,
            "--trace", tmp_path / backend)
        return read_jsonl(tmp_path / backend)
    sim, mp = events("sim"), events("mp")
    stripped = [[dataclasses.replace(e, wall_s=0.0) for e in evs]
                for evs in (sim, mp)]
    assert stripped[0] == stripped[1], "sim/mp trace events diverged"
    assert aggregate_trace(sim) == aggregate_trace(mp)
    if algorithm == "approx_cut":
        # The same call in-process on mp (rank 0 is this process), spied:
        # the runs above probed below a disconnected level on its
        # supervertices, gathered only the trials split there (rows are
        # counted as the sampler's flatnonzero calls), and the root
        # received the sampled union as int32 ids.
        from repro.core import approx_mincut, approx_minimum_cut, components
        from repro.graph import read_edgelist
        from tests.test_core_approx_trials import _GatherCount

        sample, below, skipped = approx_mincut._sample_union, [], []
        root_cc, root_ids = components.components_from_edges, set()
        gathers = _GatherCount()

        def spy(ctx, *args):
            above, rows = args[6:] and args[6], gathers.rows
            below.append(above)
            out = sample(ctx, *args)
            if above:
                split = approx_mincut._blocks_disconnected(
                    above[1], args[3], args[4].shape[0])
                skipped.append(gathers.rows - rows == split.sum() < split.size)
            return out

        def root_spy(k, su, sv):
            root_ids.add(su.dtype.name)
            return root_cc(k, su, sv)

        monkeypatch.setattr(approx_mincut, "_sample_union", spy)
        monkeypatch.setattr(approx_mincut, "np", gathers)
        monkeypatch.setattr(components, "components_from_edges", root_spy)
        approx_minimum_cut(read_edgelist(graphs[graph]), p=2, seed=0,
                           backend="mp")
        assert any(below), "AppMC never descended on this input"
        assert any(skipped), "no descent skipped a trial connected at hi"
        assert "int32" in root_ids, f"union reached the root as {root_ids}"


def test_query_equals_direct(cli, graphs, tmp_path):
    """``query`` with an algorithm flag answers what the direct subcommand
    prints, at the daemon's ``--procs`` when it sends none."""
    sock, state = tmp_path / "s.sock", tmp_path / "state"
    proc = cli("serve", "--bind", sock, "--state-dir", state, "--procs", 2,
               wait=False)
    cases = {"parallel_cc": ("cc", ("--eps", 0.5), "n_components"),
             "approx_cut": ("cc", ("--trials-per-level", 3), "estimate"),
             "square_root": ("serve_dense", ("--trial-scale", 0.2), "value")}
    for algorithm, (graph, flags, key) in cases.items():
        direct = cli(algorithm, graphs[graph], "--procs", 2, *flags)
        served = json.loads(cli("query", sock, algorithm, graphs[graph],
                                *flags, "--wait-server", 30)[-1])
        assert format(served[key], "g") == direct[0].split(",")[8], (
            algorithm, served, direct)
    cli("query", sock, "--shutdown")
    assert proc.wait(timeout=60) == 0
    jobs = JobStore(str(state)).load_all()
    assert len(jobs) == 3 and {job.p for job in jobs} == {2}, jobs
