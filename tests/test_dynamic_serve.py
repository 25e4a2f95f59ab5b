"""Dynamic sessions through the serve daemon: verbs, staleness, resume.

Reuses the two harness styles of ``test_serve_daemon``: threadless
daemons (requests via ``handle_request``, executor driven by hand) for
everything that asserts on submit/dispatch interleaving or restart, and
a live socket daemon for the end-to-end client path.
"""

import threading

import numpy as np
import pytest

from repro.dynamic import DynamicGraph, update_stream
from repro.graph import erdos_renyi, write_edgelist
from repro.rng import philox_stream
from repro.serve import Client, Daemon, ServeConfig, ServeError, wait_server

from .test_serve_daemon import drive, threadless


@pytest.fixture
def graph():
    return erdos_renyi(60, 240, philox_stream(31), weighted=True)


@pytest.fixture
def graph_file(graph, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(graph, path)
    return path


@pytest.fixture
def stream(graph):
    return list(update_stream(graph, seed=7, batches=6, batch_size=10))


def dyn_open(d, path, **fields):
    reply = d.handle_request({"op": "dyn_open", "path": path, **fields})
    assert reply["ok"], reply
    return reply["session"]


def dyn_query(d, sid, query="components", **fields):
    reply = d.handle_request({"op": "dyn_query", "session": sid,
                              "query": query, **fields})
    assert reply["ok"], reply
    return reply["job"]


def local_reference(graph, stream, **kw):
    dyn = DynamicGraph(graph, p=4, seed=0, backend="sim", **kw)
    for ops in stream:
        dyn.update_edges(ops)
    return dyn


# -- verbs, threadless --------------------------------------------------------


def test_dyn_verbs_validate(graph_file, tmp_path):
    d = threadless(tmp_path)
    missing = d.handle_request({"op": "dyn_open"})
    assert missing["error"] == "ProtocolError"
    bad_fp = d.handle_request({"op": "dyn_open", "path": graph_file,
                               "fingerprint": "f" * 64})
    assert bad_fp["error"] == "FingerprintMismatch"
    for field in ({"p": 0}, {"seed": "x"}, {"success_prob": 7},
                  {"trial_scale": "big"}, {"reconnect_budget": -1},
                  {"trial_scale": 0}):
        reply = d.handle_request({"op": "dyn_open", "path": graph_file,
                                  **field})
        assert reply["error"] == "ProtocolError", (field, reply)
    assert d.dynamic.sessions == {} and len(d.jobs) == 0
    gone = d.handle_request({"op": "dyn_update", "session": "dX",
                             "ops": []})
    assert gone["error"] == "ProtocolError"
    sid = dyn_open(d, graph_file)
    assert d.handle_request({"op": "dyn_update", "session": sid,
                             "ops": "nope"})["error"] == "ProtocolError"
    assert d.handle_request(
        {"op": "dyn_query", "session": sid,
         "query": "frobnicate"})["error"] == "ProtocolError"
    assert d.handle_request(
        {"op": "dyn_query", "session": sid, "query": "cut",
         "mode": "psychic"})["error"] == "ProtocolError"
    assert d.handle_request(
        {"op": "dyn_query", "session": sid, "query": "cut",
         "if_stale": "shrug"})["error"] == "ProtocolError"
    assert d.handle_request(
        {"op": "dyn_query", "session": sid, "query": "cut",
         "priority": 0})["error"] == "ProtocolError"
    assert len(d.jobs) == 0


def test_dyn_update_bad_ops_typed_error(graph_file, tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file)
    reply = d.handle_request({"op": "dyn_update", "session": sid,
                              "ops": [["delete", 0, 59]]})
    assert reply["error"] == "BadUpdate"
    # the failed batch was not applied: epoch unmoved
    st = d.handle_request({"op": "dyn_staleness", "session": sid})
    assert st["epoch"] == 0


def test_dyn_query_matches_local(graph, graph_file, stream, tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file, seed=0, p=4)
    for ops in stream:
        reply = d.handle_request({"op": "dyn_update", "session": sid,
                                  "ops": ops})
        assert reply["ok"]
    jid = dyn_query(d, sid, "components")
    drive(d)
    doc = d.handle_request({"op": "result", "job": jid})["result"]
    ref = local_reference(graph, stream).query_components()
    assert doc["epoch"] == len(stream)
    assert doc["n_components"] == ref.n_components
    assert doc["labels"] == [int(x) for x in ref.labels]
    assert doc["session"] == sid


def test_dyn_close_discards_state(graph_file, tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file)
    ddir = d.dynamic.dir
    import os

    assert os.path.exists(os.path.join(ddir, f"{sid}.json"))
    reply = d.handle_request({"op": "dyn_close", "session": sid})
    assert reply["closed"]
    assert not os.path.exists(os.path.join(ddir, f"{sid}.json"))
    assert not os.path.exists(os.path.join(ddir, f"{sid}.updates.jsonl"))
    # idempotent
    assert not d.handle_request({"op": "dyn_close",
                                 "session": sid})["closed"]


def test_stats_reports_sessions(graph_file, tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file)
    d.handle_request({"op": "dyn_update", "session": sid,
                      "ops": [["insert", 0, 1, 1.0]]})
    st = d.handle_request({"op": "stats"})
    assert st["dynamic"] == {"sessions": 1, "epochs": {sid: 1}}


# -- satellite: stale-epoch jobs at dispatch ----------------------------------


def test_stale_epoch_rejected_with_typed_error(graph_file, stream, tmp_path):
    """An update lands between submit and dispatch: reject is typed."""
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file, seed=0, p=4)
    jid = dyn_query(d, sid, "components", if_stale="reject")
    # epoch advances while the job sits in the queue
    d.handle_request({"op": "dyn_update", "session": sid, "ops": stream[0]})
    drive(d)
    job = d.jobs[jid]
    assert job.state == "failed"
    assert job.error_type == "StaleEpoch"
    reply = d.handle_request({"op": "result", "job": jid})
    assert reply["error"] == "StaleEpoch"
    assert "0 -> 1" in reply["message"]


def test_stale_epoch_requeue_answers_live_epoch(graph, graph_file, stream,
                                                tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file, seed=0, p=4)
    jid = dyn_query(d, sid, "components", if_stale="requeue")
    d.handle_request({"op": "dyn_update", "session": sid, "ops": stream[0]})
    drive(d)
    job = d.jobs[jid]
    assert job.state == "done"
    doc = job.result
    assert doc["repinned_from_epoch"] == 0
    assert doc["epoch"] == 1
    ref = local_reference(graph, stream[:1]).query_components()
    assert doc["n_components"] == ref.n_components
    assert doc["labels"] == [int(x) for x in ref.labels]


def test_fresh_job_carries_no_repin_marker(graph_file, tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file)
    jid = dyn_query(d, sid, "components", if_stale="requeue")
    drive(d)
    assert "repinned_from_epoch" not in d.jobs[jid].result


def test_query_after_close_fails_session_closed(graph_file, tmp_path):
    d = threadless(tmp_path)
    sid = dyn_open(d, graph_file)
    jid = dyn_query(d, sid, "components")
    d.handle_request({"op": "dyn_close", "session": sid})
    drive(d)
    job = d.jobs[jid]
    assert job.state == "failed"
    assert job.error_type == "SessionClosed"
    assert d.handle_request({"op": "result",
                             "job": jid})["error"] == "SessionClosed"


# -- restart resume -----------------------------------------------------------


def test_restart_replays_update_log_bit_identically(
        graph, graph_file, stream, tmp_path):
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file, seed=0, p=4)
    for ops in stream[:4]:
        d1.handle_request({"op": "dyn_update", "session": sid, "ops": ops})
    del d1                                      # simulated kill

    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    st = d2.handle_request({"op": "dyn_staleness", "session": sid})
    assert st["epoch"] == 4                     # resumed mid-stream
    for ops in stream[4:]:
        d2.handle_request({"op": "dyn_update", "session": sid, "ops": ops})
    jid = dyn_query(d2, sid, "components")
    drive(d2)
    doc = d2.jobs[jid].result
    ref = local_reference(graph, stream).query_components()
    assert doc["epoch"] == len(stream)
    assert doc["n_components"] == ref.n_components
    assert doc["labels"] == [int(x) for x in ref.labels]


def test_restart_ignores_resparsify_records(graph, graph_file, stream,
                                            tmp_path):
    """Approx answers after a restart match the uninterrupted run.

    An approximate cut is a function of the epoch graph, so the log
    carries update batches only; a log written when it also recorded
    sparsifier rebuilds (``{"resparsify": epoch}``) still resumes, and
    those records are skipped.
    """
    from repro.core.approx_mincut import approx_minimum_cut

    knobs = dict(seed=0, p=4, trial_scale=0.2)

    def stream_with_queries(d, sid, batches):
        doc = None
        for ops in batches:
            d.handle_request({"op": "dyn_update", "session": sid,
                              "ops": ops})
            jid = dyn_query(d, sid, "cut", mode="approx")
            drive(d)
            doc = d.jobs[jid].result
        return doc

    # uninterrupted reference
    d0 = Daemon(ServeConfig(bind="", state_dir=str(tmp_path / "s0"),
                            backend="sim"))
    s0 = dyn_open(d0, graph_file, **knobs)
    ref_doc = stream_with_queries(d0, s0, stream)

    # killed after 3 batches, legacy records in its log, restarted
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file, **knobs)
    stream_with_queries(d1, sid, stream[:3])
    log_path = d1.dynamic.get(sid).log_path
    del d1
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write('{"resparsify":3}\n')
    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    got_doc = stream_with_queries(d2, sid, stream[3:])
    for key in ("epoch", "fingerprint", "value", "witness_value",
                "certificate"):
        assert got_doc[key] == ref_doc[key], key
    ref = local_reference(graph, stream, trial_scale=0.2)
    scratch = approx_minimum_cut(ref.snapshot(), 4,
                                 seed=got_doc["certificate"]["query_seed"],
                                 backend="sim")
    assert got_doc["value"] == scratch.estimate
    jid = dyn_query(d2, sid, "cut", mode="exact")
    drive(d2)
    assert d2.jobs[jid].result["value"] == \
        ref.query_cut(mode="exact").value


def test_restart_truncates_torn_log_tail(graph, graph_file, stream, tmp_path):
    """A daemon killed inside ``DynamicSession._append`` leaves half a
    record with no newline: never acknowledged, so the restart drops it
    and resumes at the last whole epoch."""
    import json

    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file, seed=0, p=4)
    for ops in stream[:3]:
        d1.handle_request({"op": "dyn_update", "session": sid, "ops": ops})
    log_path = d1.dynamic.get(sid).log_path
    del d1                                      # simulated kill ...
    with open(log_path, encoding="utf-8") as fh:
        whole = fh.read()
    torn = json.dumps({"epoch": 4, "ops": stream[3]}, separators=(",", ":"))
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(torn[:len(torn) // 2])         # ... halfway through a write

    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    st = d2.handle_request({"op": "dyn_staleness", "session": sid})
    assert st["epoch"] == 3
    with open(log_path, encoding="utf-8") as fh:
        assert fh.read() == whole               # tail gone, records intact
    jid = dyn_query(d2, sid, "components")
    drive(d2)
    ref = local_reference(graph, stream[:3]).query_components()
    assert d2.jobs[jid].result["labels"] == [int(x) for x in ref.labels]
    # the session keeps logging whole records after the cut
    d2.handle_request({"op": "dyn_update", "session": sid, "ops": stream[3]})
    del d2
    d3 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d3.handle_request(
        {"op": "dyn_staleness", "session": sid})["epoch"] == 4


def test_resume_skips_sessions_with_corrupt_log(graph_file, stream, tmp_path):
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file)
    d1.handle_request({"op": "dyn_update", "session": sid, "ops": stream[0]})
    log_path = d1.dynamic.get(sid).log_path
    del d1
    with open(log_path, encoding="utf-8") as fh:
        whole = fh.read()
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write('{"epoch":1,"ops":[[\n' + whole)  # malformed, not the tail
    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d2.dynamic.get(sid) is None          # unrecoverable, not crashed


def test_rejected_batch_never_reaches_the_log(graph, graph_file, stream,
                                              tmp_path):
    """A batch failing on its last op is a typed error and nothing else:
    not half-applied, not logged, and a restart resumes bit-identically
    (it used to poison the log: the restart re-raised out of
    ``Daemon.__init__``)."""
    knobs = dict(seed=0, p=4)
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file, **knobs)
    for ops in stream[:3]:
        d1.handle_request({"op": "dyn_update", "session": sid, "ops": ops})
    session = d1.dynamic.get(sid)
    with open(session.log_path, encoding="utf-8") as fh:
        log = fh.read()
    fp = session.dyn.fingerprint()
    for bad in ([["insert", 0, 59, 2.0], ["delete", 0, 59],
                 ["delete", 0, 59]],
                [stream[3][0], ["insert", 0]]):
        reply = d1.handle_request({"op": "dyn_update", "session": sid,
                                   "ops": bad})
        assert reply["error"] == "BadUpdate"
    assert session.dyn.epoch == 3 and session.dyn.fingerprint() == fp
    with open(session.log_path, encoding="utf-8") as fh:
        assert fh.read() == log
    reply = d1.handle_request({"op": "dyn_update", "session": sid,
                               "ops": stream[3]})
    assert reply["ok"] and reply["epoch"] == 4
    del d1                                      # simulated kill

    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d2.handle_request(
        {"op": "dyn_staleness", "session": sid})["epoch"] == 4
    for ops in stream[4:]:
        d2.handle_request({"op": "dyn_update", "session": sid, "ops": ops})
    ref = local_reference(graph, stream)
    jid = dyn_query(d2, sid, "components")
    cut = dyn_query(d2, sid, "cut", mode="approx")
    drive(d2)
    assert d2.jobs[jid].result["labels"] == \
        [int(x) for x in ref.query_components().labels]
    rcut = ref.query_cut(mode="approx")
    assert d2.jobs[cut].result["value"] == rcut.value
    assert d2.jobs[cut].result["certificate"] == rcut.certificate


def test_resume_skips_sessions_whose_log_no_longer_applies(
        graph_file, stream, tmp_path):
    """A log written before batches were atomic can hold a rejected one."""
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file)
    other = dyn_open(d1, graph_file)
    for s in (sid, other):
        d1.handle_request({"op": "dyn_update", "session": s,
                           "ops": stream[0]})
    log_path = d1.dynamic.get(sid).log_path
    del d1
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write('{"epoch":2,"ops":[["delete",0,59],["delete",0,59]]}\n')
    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d2.dynamic.get(sid) is None          # unrecoverable, not crashed
    assert d2.dynamic.get(other).dyn.epoch == 1


def test_resume_skips_unreadable_session_documents(graph_file, stream,
                                                  tmp_path):
    """A session document that does not parse, or that names a knob the
    graph does not take (``eps``/``drift_threshold``/``sample_scale``
    from before the dynamic cut sparsifier went, or anything else), is
    skipped: the daemon still starts, the other sessions resume, and a
    persisted query of a skipped session fails typed."""
    import json
    import os

    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    corrupt, legacy, unknown, healthy = (dyn_open(d1, graph_file)
                                         for _ in range(4))
    for sid in (corrupt, legacy, unknown, healthy):
        d1.handle_request({"op": "dyn_update", "session": sid,
                           "ops": stream[0]})
    pending = dyn_query(d1, legacy, "components")   # persisted, never run
    ddir = d1.dynamic.dir
    del d1

    def doc_path(sid):
        return os.path.join(ddir, f"{sid}.json")

    with open(doc_path(corrupt), encoding="utf-8") as fh:
        text = fh.read()
    with open(doc_path(corrupt), "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2])
    for sid, kwargs in ((legacy, {"eps": 0.2, "drift_threshold": 0.25,
                                  "sample_scale": 1.0}),
                        (unknown, {"frobnicate": 1})):
        with open(doc_path(sid), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["dyn_kwargs"] = kwargs
        with open(doc_path(sid), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    for sid in (corrupt, legacy, unknown):
        assert d2.dynamic.get(sid) is None      # unrecoverable, not crashed
    assert d2.dynamic.get(healthy).dyn.epoch == 1
    drive(d2)
    job = d2.jobs[pending]
    assert job.state == "failed" and job.error_type == "SessionClosed"


def test_resume_skips_sessions_with_missing_graph(graph_file, tmp_path):
    import os

    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    sid = dyn_open(d1, graph_file)
    del d1
    os.unlink(graph_file)
    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d2.dynamic.get(sid) is None          # unrecoverable, not crashed
    reply = d2.handle_request({"op": "dyn_staleness", "session": sid})
    assert reply["error"] == "ProtocolError"


# -- live socket daemon -------------------------------------------------------


def test_live_stream_interleaved_queries_match_local(
        graph, graph_file, stream, tmp_path):
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim",
                      p=4)
    local = DynamicGraph(graph, p=4, seed=0, backend="sim")
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        with Client(daemon.address, client="t") as c:
            sid = c.dyn_open(graph_file, seed=0, p=4)
            for ops in stream:
                st = c.dyn_update(sid, ops)
                local.update_edges(ops)
                doc = c.dyn_components(sid)
                ref = local.query_components()
                assert doc["epoch"] == st["epoch"] == local.epoch
                assert doc["n_components"] == ref.n_components
                assert doc["labels"] == [int(x) for x in ref.labels]
            stale = c.dyn_staleness(sid)
            assert stale["epoch"] == len(stream)
            with pytest.raises(ServeError) as err:
                c.dyn_query("dXXXXXX", "components")
            assert err.value.error == "ProtocolError"
            assert c.dyn_close(sid)["closed"]


def test_live_concurrent_updates_and_queries_converge(
        graph, graph_file, stream, tmp_path):
    """A writer streams batches while a reader polls components.

    Every reader answer must certify a real epoch and match a local
    replay truncated to that epoch (bounded staleness: never a torn or
    mid-batch view).
    """
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim",
                      p=4)
    refs = {}  # per-epoch local reference answers
    local = DynamicGraph(graph, p=4, seed=0, backend="sim")
    refs[0] = local.query_components()
    for i, ops in enumerate(stream, start=1):
        local.update_edges(ops)
        refs[i] = local.query_components()

    answers = []
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        with Client(daemon.address, client="w") as w:
            sid = w.dyn_open(graph_file, seed=0, p=4)

            def read():
                # "requeue": a poll racing a writer answers the live
                # epoch instead of failing with StaleEpoch
                with Client(daemon.address, client="r") as r:
                    for _ in range(4):
                        answers.append(
                            r.dyn_components(sid, if_stale="requeue"))

            t = threading.Thread(target=read)
            t.start()
            for ops in stream:
                w.dyn_update(sid, ops)
            t.join(120)
            answers.append(w.dyn_components(sid))
    assert answers[-1]["epoch"] == len(stream)
    for doc in answers:
        ref = refs[doc["epoch"]]
        assert doc["n_components"] == ref.n_components
        assert doc["labels"] == [int(x) for x in ref.labels]
