"""Tests for the artifact-style CLI."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.core.trials import ALGORITHM_FIELDS, ALGORITHMS, FIELDS
from repro.graph import read_edgelist
from repro.serve.protocol import FORWARDED, VERBS
from tests.conftest import require_mp


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    rc = main([
        "generate", "--family", "er", "--n", "120", "--degree", "6",
        "--weighted", "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    @pytest.mark.parametrize("family", ["er", "ws", "ba", "rmat"])
    def test_families(self, tmp_path, family):
        out = tmp_path / f"{family}.txt"
        rc = main([
            "generate", "--family", family, "--n", "64", "--degree", "4",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        g = read_edgelist(out)
        assert g.n == 64
        assert g.m > 0

    def test_explicit_m(self, tmp_path):
        out = tmp_path / "er.txt"
        main(["generate", "--family", "er", "--n", "50", "--m", "99",
              "--seed", "1", "--out", str(out)])
        assert read_edgelist(out).m == 99

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "nope", "--n", "10",
                  "--out", str(tmp_path / "x.txt")])

    @pytest.mark.parametrize("family, extra, message", [
        ("er", ["--n", "-5"], "--n must be >= 1, got -5"),
        ("er", ["--n", "10", "--m", "-3"], "--m must be >= 0, got -3"),
        ("rmat", ["--n", "10", "--m", "-3"], "--m must be >= 0, got -3"),
        ("er", ["--n", "10", "--degree", "-4"], "--degree must be >= 1"),
        ("ws", ["--n", "10", "--degree", "20"],
         "cannot generate a ws graph: need k < n"),
        ("ba", ["--n", "3"], "cannot generate a ba graph: need 1 <= k < n"),
    ])
    def test_out_of_domain_sizes_are_usage_errors(self, tmp_path, capsys,
                                                  family, extra, message):
        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", family, *extra, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err.splitlines()[-1] and "Traceback" not in err
        assert not out.exists()


class TestAlgorithms:
    def test_parallel_cc(self, graph_file, capsys):
        rc = main(["parallel_cc", str(graph_file), "--procs", "4", "--seed", "1"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        fields = line.split(",")
        assert fields[0] == str(graph_file)
        assert fields[7] == "cc"
        assert int(fields[8]) >= 1

    def test_approx_cut(self, graph_file, capsys):
        rc = main(["approx_cut", str(graph_file), "-p", "3", "--seed", "2"])
        assert rc == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[7] == "approx_cut"
        assert float(fields[8]) >= 0

    def test_square_root(self, graph_file, capsys):
        rc = main(["square_root", str(graph_file), "-p", "2", "--seed", "2",
                   "--trial-scale", "0.2"])
        assert rc == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[7] == "square_root"
        assert float(fields[8]) >= 0
        assert float(fields[5]) > 0  # execution time column

    def test_square_root_fixed_trials(self, graph_file, capsys):
        rc = main(["square_root", str(graph_file), "--trials", "2"])
        assert rc == 0

    def test_pipelined_flag(self, graph_file, capsys):
        rc = main(["approx_cut", str(graph_file), "--pipelined"])
        assert rc == 0

    def test_schedules_agree_when_nothing_disconnects(self, tmp_path, capsys):
        """One edge of weight 1000 survives every sampling level: both
        schedules must fall back to the top level (the pipelined one used
        to return ``estimate=None`` and crash the CLI's formatter)."""
        import numpy as np

        from repro.core.approx_mincut import approx_minimum_cut
        from repro.graph import EdgeList, write_edgelist

        g = EdgeList(2, np.array([0]), np.array([1]), np.array([1000.0]))
        staged = approx_minimum_cut(g, p=2, seed=1, pipelined=False)
        piped = approx_minimum_cut(g, p=2, seed=1, pipelined=True)
        assert staged.estimate == piped.estimate == 128.0
        assert staged.witness_value is None and piped.witness_value is None
        path = tmp_path / "heavy.txt"
        write_edgelist(g, str(path))
        values = []
        for extra in ([], ["--pipelined"]):
            assert main(["approx_cut", str(path), "--procs", "2",
                         "--seed", "1", *extra]) == 0
            values.append(capsys.readouterr().out.strip().split(",")[8])
        assert values == ["128", "128"]

    def test_same_seed_same_output(self, graph_file, capsys):
        main(["parallel_cc", str(graph_file), "--seed", "9"])
        a = capsys.readouterr().out
        main(["parallel_cc", str(graph_file), "--seed", "9"])
        b = capsys.readouterr().out
        assert a == b

    @staticmethod
    def _usage_error(argv, capsys) -> str:
        """The one stderr line of a run that must exit 2, not traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_missing_file_errors(self, tmp_path, capsys):
        path = str(tmp_path / "missing.txt")
        err = self._usage_error(["parallel_cc", path], capsys)
        assert path in err and "No such file" in err

    @pytest.mark.parametrize("command", ["approx_cut", "square_root"])
    @pytest.mark.parametrize("text, reason", [
        pytest.param("3 2\n0 1 1.0\n1 2\n", "number of columns changed",
                     id="ragged"),
        pytest.param("", "missing header line", id="empty"),
    ])
    def test_malformed_file_errors(self, tmp_path, capsys, command, text,
                                   reason):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        err = self._usage_error([command, str(path)], capsys)
        assert str(path) in err and reason in err

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestValidation:
    """Out-of-domain numeric options exit with a usage error (code 2)."""

    @pytest.mark.parametrize("procs", ["0", "-1", "-8"])
    def test_procs_floor(self, graph_file, capsys, procs):
        with pytest.raises(SystemExit) as exc:
            main(["parallel_cc", str(graph_file), "--procs", procs])
        assert exc.value.code == 2
        assert "--procs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-0.5"])
    def test_trial_scale_positive(self, graph_file, capsys, scale):
        with pytest.raises(SystemExit) as exc:
            main(["square_root", str(graph_file), "--trial-scale", scale])
        assert exc.value.code == 2
        assert "--trial-scale must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("prob", ["0", "1", "1.5", "-0.1"])
    def test_success_prob_open_interval(self, graph_file, capsys, prob):
        with pytest.raises(SystemExit) as exc:
            main(["square_root", str(graph_file), "--success-prob", prob])
        assert exc.value.code == 2
        assert "--success-prob must be in (0, 1)" in capsys.readouterr().err

    def test_trials_floor(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["square_root", str(graph_file), "--trials", "0"])
        assert exc.value.code == 2
        assert "--trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("edges", ["0", "-1", "nan"])
    def test_cache_edges_positive(self, tmp_path, capsys, edges):
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--bind", str(tmp_path / "s.sock"),
                  "--state-dir", str(state), "--backend", "sim",
                  "--cache-edges", edges])
        assert exc.value.code == 2
        assert "--cache-edges must be > 0" in capsys.readouterr().err
        assert not state.exists()

    def test_boundary_values_accepted(self, graph_file):
        assert main(["parallel_cc", str(graph_file), "--procs", "1"]) == 0
        assert main(["square_root", str(graph_file), "--trials", "1",
                     "--trial-scale", "0.01", "--success-prob", "0.5"]) == 0


class TestTraceOption:
    def test_writes_valid_jsonl(self, graph_file, tmp_path, capsys):
        from repro.trace import aggregate_trace, read_jsonl

        out = tmp_path / "trace.jsonl"
        rc = main(["parallel_cc", str(graph_file), "--procs", "3",
                   "--seed", "2", "--trace", str(out)])
        assert rc == 0
        events = read_jsonl(out)
        assert len(events) >= 2
        assert events[-1].kind == "final"
        assert aggregate_trace(events).p == 3

    def test_summary_table_renders(self, graph_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["parallel_cc", str(graph_file), "--trace", str(out)])
        printed = capsys.readouterr().out
        assert "trace summary" in printed
        assert "collectives:" in printed
        assert "volume histogram" in printed
        assert "heaviest supersteps" in printed
        assert f"-> {out}" in printed

    @pytest.mark.parametrize("command,extra", [
        ("approx_cut", []),
        ("square_root", ["--trials", "2"]),
    ])
    def test_all_algorithm_subcommands(self, graph_file, tmp_path, capsys,
                                       command, extra):
        from repro.trace import read_jsonl

        out = tmp_path / f"{command}.jsonl"
        rc = main([command, str(graph_file), "-p", "2", "--seed", "1",
                   "--trace", str(out)] + extra)
        assert rc == 0
        assert len(read_jsonl(out)) >= 2

    def test_unwritable_path_is_usage_error(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parallel_cc", str(graph_file),
                  "--trace", "/nonexistent/dir/t.jsonl"])
        assert exc.value.code == 2
        assert "--trace directory" in capsys.readouterr().err

    def test_no_trace_no_summary(self, graph_file, capsys):
        main(["parallel_cc", str(graph_file)])
        printed = capsys.readouterr().out
        assert "trace summary" not in printed
        assert len(printed.strip().splitlines()) == 1

    def test_mp_backend_trace(self, graph_file, tmp_path, capsys):
        require_mp()
        from repro.trace import read_jsonl

        sim_out = tmp_path / "sim.jsonl"
        mp_out = tmp_path / "mp.jsonl"
        main(["parallel_cc", str(graph_file), "--seed", "4",
              "--backend", "sim", "--trace", str(sim_out)])
        main(["parallel_cc", str(graph_file), "--seed", "4",
              "--backend", "mp", "--trace", str(mp_out)])
        import dataclasses

        strip = lambda evs: [dataclasses.replace(e, wall_s=0.0) for e in evs]
        assert strip(read_jsonl(sim_out)) == strip(read_jsonl(mp_out))


class TestBackendOption:
    def test_unknown_backend_rejected(self, graph_file):
        with pytest.raises(SystemExit) as exc:
            main(["parallel_cc", str(graph_file), "--backend", "gpu"])
        assert exc.value.code == 2

    def test_mp_matches_sim_result_column(self, graph_file, capsys):
        require_mp()
        main(["parallel_cc", str(graph_file), "--seed", "4",
              "--backend", "sim"])
        sim_fields = capsys.readouterr().out.strip().split(",")
        main(["parallel_cc", str(graph_file), "--seed", "4",
              "--backend", "mp"])
        mp_fields = capsys.readouterr().out.strip().split(",")
        # identical CSV record except the two measured-time columns
        assert mp_fields[8] == sim_fields[8]  # component count
        assert mp_fields[:5] == sim_fields[:5]


class TestSchedulerOptions:
    def test_plain_run_prints_no_scheduler_line(self, graph_file, capsys):
        rc = main(["square_root", str(graph_file), "-p", "2", "--seed", "2",
                   "--trials", "4"])
        assert rc == 0
        assert "scheduler:" not in capsys.readouterr().out

    def test_any_flag_engages_scheduler(self, graph_file, capsys):
        rc = main(["square_root", str(graph_file), "-p", "2", "--seed", "2",
                   "--trials", "4", "--max-retries", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler: 4/4 trials completed" in out
        assert "achieved success probability" in out

    def test_scheduled_result_matches_legacy(self, graph_file, capsys):
        args = ["square_root", str(graph_file), "-p", "2", "--seed", "2",
                "--trials", "4"]
        main(args)
        legacy = capsys.readouterr().out.strip().split(",")
        main(args + ["--max-retries", "2"])
        sched = capsys.readouterr().out.splitlines()[0].split(",")
        assert sched[-1] == legacy[-1]  # same cut value column

    def test_crash_injection_recovers(self, graph_file, capsys):
        rc = main(["square_root", str(graph_file), "-p", "2", "--seed", "2",
                   "--trials", "4", "--retry-backoff", "0",
                   "--inject-faults", "crash:rank=1,step=1"])
        assert rc == 0
        assert "4/4 trials completed" in capsys.readouterr().out

    def test_checkpoint_file_written_and_resumable(self, graph_file,
                                                   tmp_path, capsys):
        ck = tmp_path / "ledger.jsonl"
        args = ["square_root", str(graph_file), "-p", "2", "--seed", "2",
                "--trials", "4", "--checkpoint", str(ck)]
        assert main(args) == 0
        assert ck.exists()
        first = capsys.readouterr().out.splitlines()
        assert main(args + ["--resume"]) == 0
        again = capsys.readouterr().out.splitlines()
        # Timing columns differ (the resume dispatches nothing); the cut
        # value and the scheduler summary line must not.
        assert again[0].split(",")[-1] == first[0].split(",")[-1]
        assert again[1] == first[1]

    def test_resume_requires_checkpoint(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["square_root", str(graph_file), "--resume"])
        assert exc_info.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", [
        "nonsense", "crash:rank=1", "stall:rank=0,step=0",
    ])
    def test_bad_fault_plan_is_usage_error(self, graph_file, capsys, plan):
        with pytest.raises(SystemExit) as exc_info:
            main(["square_root", str(graph_file), "--inject-faults", plan])
        assert exc_info.value.code == 2
        assert "--inject-faults" in capsys.readouterr().err

    def test_negative_retries_rejected(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["square_root", str(graph_file), "--max-retries", "-1"])
        assert exc_info.value.code == 2

    def test_missing_checkpoint_dir_rejected(self, graph_file, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["square_root", str(graph_file),
                  "--checkpoint", str(tmp_path / "nope" / "l.jsonl")])
        assert exc_info.value.code == 2

    def test_mp_backend_scheduled(self, graph_file, capsys):
        require_mp()
        rc = main(["square_root", str(graph_file), "-p", "2", "--seed", "2",
                   "--trials", "4", "--backend", "mp", "--retry-backoff", "0",
                   "--inject-faults", "crash:rank=1,step=1"])
        assert rc == 0
        assert "4/4 trials completed" in capsys.readouterr().out


class TestAnalyzeTraceOptions:
    def test_max_chain_floor(self, graph_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["parallel_cc", str(graph_file), "--trace", str(trace)])
        with pytest.raises(SystemExit) as exc:
            main(["analyze-trace", str(trace), "--max-chain", "1"])
        assert exc.value.code == 2
        assert "--max-chain must be >= 2, got 1" in capsys.readouterr().err


# -- one schema: the algorithm flags are the wire's submit fields -------------

#: Per surface, the options that are not algorithm fields.
DIRECT_OPTIONS = {"help", "input", "p", "seed", "backend", "trace", "fuse",
                  "max_retries", "retry_backoff", "checkpoint", "resume",
                  "inject_faults"}
QUERY_OPTIONS = {"help", "address", "algorithm", "input", "p", "seed",
                 "client", "priority", "wait", "wait_server", "ping", "stats",
                 "shutdown"}

#: A non-default, in-domain value for every algorithm field.
NON_DEFAULT = {"eps": 0.5, "delta": 0.25, "hybrid": True,
               "trials_per_level": 2, "pipelined": True, "shrink": True,
               "variant": "2out", "trials": 3, "trial_scale": 0.5,
               "success_prob": 0.8, "preprocess": True}


def _dests(command) -> set:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions}


def _argv(field, value) -> list:
    flag = "--" + field.replace("_", "-")
    return [flag] if value is True else [flag, str(value)]


def _taker(field) -> str:
    return next(a for a in ALGORITHMS if field in ALGORITHM_FIELDS[a])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_flags_are_the_wire_fields(algorithm):
    submit = {f for f, d in VERBS["submit"].items() if d is FORWARDED}
    wire = set(ALGORITHM_FIELDS[algorithm])
    assert wire <= submit
    assert _dests(algorithm) - DIRECT_OPTIONS == wire
    assert _dests("query") - QUERY_OPTIONS == submit


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live sim daemon configured with p = 2, and a graph file."""
    from repro.graph import erdos_renyi, write_edgelist
    from repro.rng import philox_stream
    from repro.serve import Daemon, ServeConfig, wait_server

    tmp = tmp_path_factory.mktemp("served")
    path = str(tmp / "g.txt")
    write_edgelist(erdos_renyi(40, 160, philox_stream(5), weighted=True),
                   path)
    with Daemon(ServeConfig(bind=str(tmp / "s.sock"), p=2, backend="sim",
                            state_dir=str(tmp / "state"))) as daemon:
        wait_server(daemon.address)
        yield daemon, path


def _query(served, capsys, *argv):
    """Run ``repro.cli query`` against ``served``; the job it submitted."""
    daemon, path = served
    assert main(["query", daemon.address, *argv[:1], path, *argv[1:]]) == 0
    capsys.readouterr()
    return daemon.jobs[max(daemon.jobs)]


def _stored(daemon, job_id):
    """``job_id``'s last record in the daemon's job journal."""
    with open(daemon.store.path, encoding="utf-8") as fh:
        return [doc for doc in map(json.loads, fh) if doc["id"] == job_id][-1]


def test_query_runs_at_the_daemons_p(served, capsys):
    """``--procs`` not given, the stored job runs at the daemon's p."""
    daemon = served[0]
    assert _stored(daemon, _query(served, capsys, "parallel_cc").id)["p"] == 2
    job = _query(served, capsys, "parallel_cc", "--procs", "3")
    assert _stored(daemon, job.id)["p"] == 3


def test_non_default_values_cover_every_field():
    assert set(NON_DEFAULT) == set(FIELDS)


@pytest.mark.parametrize("field", sorted(NON_DEFAULT))
def test_field_reaches_the_entry_point(field, graph_file, served, capsys,
                                       monkeypatch):
    import repro.harness.experiment as experiment

    value, algorithm, seen = NON_DEFAULT[field], _taker(field), []
    real = experiment.run_algorithm

    def spy(*args, **kwargs):
        seen.append({k: v for k, v in kwargs.items() if k in FIELDS})
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "run_algorithm", spy)
    assert main([algorithm, str(graph_file), "-p", "2",
                 *_argv(field, value)]) == 0
    assert seen == [{field: value}]
    job = _query(served, capsys, algorithm, *_argv(field, value))
    assert job.kwargs == {field: value} and job.state == "done"


def test_hybrid_refuses_shrink_on_both_surfaces(graph_file, served, capsys):
    from repro.serve.protocol import ProtocolError, parse

    both = ["--hybrid", "--shrink"]
    for argv in (["parallel_cc", str(graph_file), *both],
                 ["query", served[0].address, "parallel_cc",
                  str(graph_file), *both]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--shrink does not apply to --hybrid" in (
            capsys.readouterr().err)
    with pytest.raises(ProtocolError, match="'shrink' does not apply"):
        parse("submit", {"op": "submit", "algorithm": "parallel_cc",
                         "path": "g", "hybrid": True, "shrink": True})


def test_query_refuses_another_algorithms_field(graph_file, served, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query", served[0].address, "square_root", str(graph_file),
              "--eps", "0.5"])
    assert exc.value.code == 2
    assert "--eps does not apply to square_root" in capsys.readouterr().err
