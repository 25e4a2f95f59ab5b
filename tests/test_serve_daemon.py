"""The serve daemon: protocol, fairness, determinism, restart resume.

Two harness styles:

* **threadless** — a :class:`~repro.serve.Daemon` that is never
  ``start()``-ed: requests go through ``handle_request`` and the
  executor is driven by hand (``queue.pop`` + ``_run_slice``).  Fully
  deterministic; used for everything that asserts on interleaving or
  crash/restart.
* **live** — a started daemon on a unix socket in ``tmp_path`` with the
  sim backend, talked to through the real :class:`~repro.serve.Client`.
"""

import builtins
import contextlib
import dataclasses
import glob
import io
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.graph import erdos_renyi, read_edgelist, write_edgelist
from repro.harness.experiment import run_algorithm
from repro.rng import philox_stream
from repro.serve import Client, Daemon, ServeConfig, ServeError, wait_server

from .conftest import require_mp


@pytest.fixture
def graph():
    return erdos_renyi(60, 300, philox_stream(3), weighted=True)


@pytest.fixture
def graph_file(graph, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(graph, path)
    return path


def threadless(tmp_path, name="state", **cfg):
    cfg.setdefault("backend", "sim")
    cfg.setdefault("wave_size", 4)
    return Daemon(ServeConfig(bind="", state_dir=str(tmp_path / name),
                              **cfg))


def drive(daemon, until=None, limit=10_000):
    """Run executor slices by hand until idle (or ``until()`` is true)."""
    for _ in range(limit):
        if until is not None and until():
            return
        popped = daemon.queue.pop()
        if popped is None:
            return
        job = daemon.jobs.get(popped[1])
        if job is not None and not job.terminal:
            daemon._run_slice(job)
    raise AssertionError("executor did not drain")


def submit(daemon, algorithm, path, **fields):
    doc = {"op": "submit", "algorithm": algorithm, "path": path, **fields}
    reply = daemon.handle_request(doc)
    assert reply["ok"], reply
    return reply["job"]


def journal(daemon):
    """The records in ``daemon``'s job journal, in file order."""
    with open(daemon.store.path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@contextlib.contextmanager
def io_calls(monkeypatch):
    """Every ``os.write`` (by fd), ``os.replace`` and file open meanwhile."""
    calls = []

    def spy(mod, name):
        real = getattr(mod, name)

        def call(*args, **kwargs):
            calls.append((name, args[0]))
            return real(*args, **kwargs)
        m.setattr(mod, name, call)

    with monkeypatch.context() as m:
        for mod, name in ((os, "write"), (os, "replace"), (os, "open"),
                          (builtins, "open"), (io, "open")):
            spy(mod, name)
        yield calls


# -- live socket daemon -------------------------------------------------------


def test_socket_roundtrip_matches_direct(graph, graph_file, tmp_path):
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim")
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        with Client(daemon.address, client="t") as c:
            assert c.ping()["version"] >= 1
            cc = c.run("parallel_cc", graph_file, seed=5)
            sq = c.run("square_root", graph_file, seed=7)
    d_cc = run_algorithm("parallel_cc", graph, p=4, seed=5)
    d_sq = run_algorithm("square_root", graph, p=4, seed=7)
    assert cc["n_components"] == d_cc.n_components
    assert cc["labels"] == [int(x) for x in d_cc.labels]
    assert sq["value"] == d_sq.value
    assert sq["trials"] == d_sq.trials


def test_socket_concurrent_clients_bit_identical_to_solo(
        graph, graph_file, tmp_path):
    """Many clients at once: every answer matches its solo run exactly."""
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim",
                      wave_size=4)
    seeds = [7, 11, 13]
    results = {}

    def one(seed):
        with Client(cfg.bind, client=f"c{seed}") as c:
            results[seed] = c.run("square_root", graph_file, seed=seed)

    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        threads = [threading.Thread(target=one, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    for seed in seeds:
        solo = run_algorithm("square_root", graph, p=4, seed=seed)
        assert results[seed]["value"] == solo.value, seed
        assert results[seed]["trials"] == solo.trials


def test_warm_pool_fork_races_first_queries(tmp_path):
    """Two clients' *first* queries arrive together, unprimed, 20 times.

    The warm pool is forked by the executor thread on the first dispatch,
    which also publishes the graph into the plane, while the other
    request's thread is still being served; the workers must not inherit
    a lock held.
    """
    require_mp()
    graph = erdos_renyi(400, 4000, philox_stream(7), weighted=True)
    path = str(tmp_path / "big.edges")
    write_edgelist(graph, path)  # above PLANE_MIN_BYTES: it is published
    solo = run_algorithm("parallel_cc", graph, p=2, seed=5)
    for attempt in range(20):
        cfg = ServeConfig(bind=str(tmp_path / f"w{attempt}.sock"),
                          state_dir=str(tmp_path / f"state{attempt}"),
                          backend="warm", p=2)
        results = {}
        gate = threading.Barrier(2)

        def one(name):
            with Client(cfg.bind, client=name, timeout=60.0) as c:
                gate.wait(10)
                results[name] = c.run("parallel_cc", path, seed=5)

        with Daemon(cfg) as daemon:
            wait_server(daemon.address)
            threads = [threading.Thread(target=one, args=(name,), daemon=True)
                       for name in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(90)
            assert not any(t.is_alive() for t in threads), attempt
        for name in ("a", "b"):
            assert results[name]["n_components"] == solo.n_components, attempt
    assert glob.glob("/dev/shm/rgpl*") == []


def test_socket_shutdown_op_stops_daemon(graph_file, tmp_path):
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim")
    daemon = Daemon(cfg)
    daemon.start()
    wait_server(daemon.address)
    with Client(daemon.address) as c:
        c.shutdown()
    assert daemon._stopping.wait(10)
    for t in daemon._threads:
        t.join(10)
    # stop() runs on the connection thread; poll for its last step
    for _ in range(200):
        if not os.path.exists(cfg.bind):
            break
        time.sleep(0.05)
    assert not os.path.exists(cfg.bind)


def test_overlong_request_line_is_refused(graph_file, tmp_path):
    """A line that never ends is cut off at the cap with a typed error (or
    a clean close) while other clients are served and nothing leaks."""
    import socket

    from repro.serve.protocol import MAX_REQUEST_LINE, decode_line

    shm_before = sorted(os.listdir("/dev/shm"))
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim")
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        hog = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        hog.settimeout(30)
        hog.connect(daemon.address)
        half = MAX_REQUEST_LINE // 2
        try:
            # half the cap is in flight, unterminated: others still served
            hog.sendall(b"x" * half)
            with Client(daemon.address) as c:
                assert c.ping()["ok"]
            hog.sendall(b"x" * (MAX_REQUEST_LINE + 1 - half))
            reply = b""
            while not reply.endswith(b"\n"):
                got = hog.recv(4096)
                if not got:
                    break
                reply += got
        except (BrokenPipeError, ConnectionResetError):
            reply = b""  # the daemon hung up first: the clean close
        finally:
            hog.close()
        if reply:
            doc = decode_line(reply)
            assert not doc["ok"] and doc["error"] == "ProtocolError"
            assert str(MAX_REQUEST_LINE) in doc["message"]
        with Client(daemon.address) as c:   # the daemon itself is fine
            assert c.ping()["ok"]
        for _ in range(200):                # and dropped the connection
            if not daemon._conns:
                break
            time.sleep(0.05)
        assert not daemon._conns
    assert sorted(os.listdir("/dev/shm")) == shm_before


# -- threadless: protocol -----------------------------------------------------


def test_inline_labels_encode_to_the_same_bytes(graph):
    """``labels.tolist()`` replaced a per-element ``int()`` loop."""
    from repro.dynamic.graph import DynamicCCResult
    from repro.serve.protocol import dyn_result_doc, encode_line, result_doc

    res = run_algorithm("parallel_cc", graph, p=2, seed=5)
    for doc in (result_doc("parallel_cc", res),
                dyn_result_doc(DynamicCCResult(
                    labels=res.labels, n_components=res.n_components,
                    epoch=3, fingerprint=None, via="cc_kernel"))):
        assert all(type(x) is int for x in doc["labels"])
        old = dict(doc, labels=[int(x) for x in res.labels])
        assert encode_line(doc) == encode_line(old)


def test_submit_validates(graph_file, tmp_path):
    d = threadless(tmp_path)
    assert d.handle_request({"op": "nope"})["error"] == "ProtocolError"
    assert d.handle_request({"op": "submit", "algorithm": "bogus",
                      "path": graph_file})["error"] == "ProtocolError"
    assert d.handle_request({"op": "submit", "algorithm": "parallel_cc",
                      "path": str(tmp_path / "missing")}
                     )["error"] == "GraphUnreadable"
    assert d.handle_request({"op": "status", "job": "jX"}
                     )["error"] == "ProtocolError"
    # out-of-domain fields are refused at the door, not on the executor
    for algorithm, field in (("parallel_cc", {"p": 0}),
                             ("parallel_cc", {"seed": "x"}),
                             ("parallel_cc", {"priority": 0}),
                             ("parallel_cc", {"hybrid": "yes"}),
                             ("approx_cut", {"trials_per_level": 0}),
                             ("square_root", {"trials": "many"}),
                             ("square_root", {"success_prob": 7}),
                             ("square_root", {"trial_scale": -1.0}),
                             ("square_root", {"variant": "3out"})):
        reply = d.handle_request({"op": "submit", "algorithm": algorithm,
                                  "path": graph_file, **field})
        assert reply["error"] == "ProtocolError", (field, reply)
        assert next(iter(field)) in reply["message"]
    assert len(d.jobs) == 0 and len(d.queue) == 0
    assert os.path.getsize(d.store.path) == 0    # nothing saved
    assert d.store.stats()["appended"] == 0
    assert d.store.new_id() == "j000001"         # no job id burned


def test_two_out_refuses_trials_and_honours_preprocess(tmp_path):
    """2-out recomputes its budget, so a ``trials`` override is refused at
    the door; ``preprocess`` is applied, as in the direct call."""
    from repro.graph import clustered_er
    from repro.serve.protocol import result_doc

    path = str(tmp_path / "clustered.edges")
    write_edgelist(clustered_er(64, 16, philox_stream(9), bridges=2), path)
    g = read_edgelist(path)
    d = threadless(tmp_path)
    reply = d.handle_request({"op": "submit", "algorithm": "square_root",
                              "path": path, "variant": "2out", "trials": 5})
    assert reply["error"] == "ProtocolError" and "trials" in reply["message"]
    assert len(d.jobs) == 0 and os.path.getsize(d.store.path) == 0
    jid = submit(d, "square_root", path, seed=7, variant="2out",
                 preprocess=True)
    drive(d)
    direct = run_algorithm("square_root", g, p=4, seed=7, variant="2out",
                           preprocess=True)
    assert d.jobs[jid].result == result_doc("square_root", direct)
    assert d.jobs[jid].result != result_doc("square_root", run_algorithm(
        "square_root", g, p=4, seed=7, variant="2out"))


def test_sloppy_result_and_close_fields_are_refused(graph_file, tmp_path):
    d = threadless(tmp_path)
    jid = submit(d, "parallel_cc", graph_file, seed=5)
    drive(d)
    for field, value in (("wait", "yes"), ("wait", 1), ("timeout", "soon"),
                         ("timeout", -1.0), ("timeout", float("nan"))):
        reply = d.handle_request({"op": "result", "job": jid, "wait": True,
                                  field: value})
        assert reply["error"] == "ProtocolError", (field, value, reply)
        assert field in reply["message"]
    assert d.handle_request({"op": "result", "job": jid, "wait": True,
                             "timeout": 0})["state"] == "done"

    sid = d.handle_request({"op": "dyn_open", "path": graph_file})["session"]
    persisted = d.dynamic._paths(sid)
    for bad in ("false", 0, None):
        reply = d.handle_request({"op": "dyn_close", "session": sid,
                                  "discard": bad})
        assert reply["error"] == "ProtocolError", (bad, reply)
        assert d.dynamic.get(sid) is not None
        assert all(os.path.exists(p) for p in persisted)
    assert d.handle_request({"op": "dyn_close", "session": sid,
                             "discard": False})["closed"]
    assert all(os.path.exists(p) for p in persisted)   # kept, as asked


def test_submit_rejects_fingerprint_mismatch(graph_file, tmp_path):
    d = threadless(tmp_path)
    bad = d.handle_request({"op": "submit", "algorithm": "parallel_cc",
                     "path": graph_file, "fingerprint": "f" * 64})
    assert bad["error"] == "FingerprintMismatch"
    assert len(d.jobs) == 0          # rejected before anything was queued
    good_fp = d.handle_request({"op": "submit", "algorithm": "parallel_cc",
                         "path": graph_file})["fingerprint"]
    jid = submit(d, "parallel_cc", graph_file, fingerprint=good_fp)
    drive(d)
    assert d.jobs[jid].state == "done"


@pytest.mark.parametrize("op", ["submit", "dyn_open"])
def test_non_string_fingerprint_is_refused(graph_file, tmp_path, op):
    d = threadless(tmp_path)
    fields = {"submit": {"algorithm": "parallel_cc"}}.get(op, {})
    reply = d.handle_request({"op": op, **fields, "path": graph_file,
                              "fingerprint": 5})
    assert reply["error"] == "ProtocolError", reply
    assert "fingerprint" in reply["message"]
    assert len(d.jobs) == 0 and d.dynamic.sessions == {}


@pytest.mark.parametrize("bad", [[1], {}])
@pytest.mark.parametrize("op, field", [
    ("status", "job"), ("result", "job"), ("cancel", "job"),
    ("dyn_update", "session"), ("dyn_query", "session"),
    ("dyn_staleness", "session"), ("dyn_close", "session")])
def test_wrong_typed_ids_are_refused(graph_file, tmp_path, op, field, bad):
    """An unhashable job or session id is a ProtocolError, not a TypeError
    from a dict lookup, with a job and a session to look up present."""
    d = threadless(tmp_path)
    submit(d, "parallel_cc", graph_file)
    assert d.handle_request({"op": "dyn_open", "path": graph_file})["ok"]
    fields = {"dyn_update": {"ops": []},
              "dyn_query": {"query": "components"}}.get(op, {})
    reply = d.handle_request({"op": op, field: bad, **fields})
    assert reply["error"] == "ProtocolError", reply
    assert field in reply["message"]


def test_cancel_queued_and_running(graph_file, tmp_path):
    d = threadless(tmp_path)
    jid = submit(d, "square_root", graph_file, seed=7)
    d._run_slice(d.jobs[jid])        # now mid-run with waves pending
    assert d.handle_request({"op": "cancel", "job": jid})["state"] == "cancelled"
    drive(d)
    assert d.jobs[jid].state == "cancelled"
    assert d.handle_request({"op": "result", "job": jid})["error"] == "JobCancelled"
    assert jid not in d._runs


def test_status_and_result_docs(graph, graph_file, tmp_path):
    d = threadless(tmp_path)
    jid = submit(d, "parallel_cc", graph_file, seed=5)
    st = d.handle_request({"op": "status", "job": jid})
    assert st["state"] == "queued"
    drive(d)
    st = d.handle_request({"op": "status", "job": jid})
    assert st["state"] == "done" and st["waves_done"] == 1
    res = d.handle_request({"op": "result", "job": jid})["result"]
    solo = run_algorithm("parallel_cc", graph, p=4, seed=5)
    assert res["n_components"] == solo.n_components


def test_approx_cut_without_witness_served_equals_direct(tmp_path):
    """One heavy edge never disconnects under sampling: no witness, and the
    served document must say so (``null``) exactly like the direct one."""
    from repro.graph import EdgeList
    from repro.serve.protocol import result_doc

    g = EdgeList(2, np.array([0]), np.array([1]), np.array([1000.0]))
    path = str(tmp_path / "heavy.edges")
    write_edgelist(g, path)
    d = threadless(tmp_path)
    jid = submit(d, "approx_cut", path, seed=1)
    drive(d)
    assert d.handle_request({"op": "status", "job": jid})["state"] == "done"
    res = d.handle_request({"op": "result", "job": jid})["result"]
    direct = result_doc("approx_cut",
                        run_algorithm("approx_cut", g, p=4, seed=1))
    assert res == direct
    assert res["witness_value"] is None and res["estimate"] == 128.0


def test_stats_doc(graph_file, tmp_path):
    d = threadless(tmp_path)
    submit(d, "parallel_cc", graph_file, client="a")
    drive(d)
    st = d.handle_request({"op": "stats"})
    assert st["jobs"] == {"done": 1}
    assert st["queue"]["served_total"] == 1
    assert st["cache"]["graphs"]["entries"] == 1


# -- threadless: interleaving, fairness, determinism --------------------------


def test_interleaved_jobs_bit_identical_to_solo(graph, graph_file, tmp_path):
    """Wave interleaving across tenants never changes any job's bits."""
    d = threadless(tmp_path)
    jobs = {seed: submit(d, "square_root", graph_file, seed=seed,
                         client=f"c{seed}")
            for seed in (7, 11)}
    drive(d)
    for seed, jid in jobs.items():
        solo = run_algorithm("square_root", graph, p=4, seed=seed)
        job = d.jobs[jid]
        assert job.result["value"] == solo.value
        # and the ledger equals a solo scheduled run's, bit for bit
        from repro.sched import TrialScheduler

        ref = TrialScheduler(wave_size=4).run(graph, 4, backend="sim",
                                              seed=seed)
        assert job.result["ledger_fingerprint"] == ref.ledger.fingerprint()


def test_fair_queue_bounds_small_job_latency(graph, graph_file, tmp_path):
    """A one-slice CC query lands while a long min-cut job is mid-flight."""
    d = threadless(tmp_path)
    big = submit(d, "square_root", graph_file, seed=7, client="bulk")
    d._run_slice(d.jobs[big])        # bulk job under way, many waves left
    small = submit(d, "parallel_cc", graph_file, seed=5, client="quick")
    drive(d, until=lambda: d.jobs[small].terminal)
    assert d.jobs[small].state == "done"
    assert not d.jobs[big].terminal   # CC answered mid-bulk, not after it
    drive(d)
    assert d.jobs[big].state == "done"


def test_priority_weights_shift_service(graph_file, tmp_path):
    d = threadless(tmp_path, wave_size=2)
    a = submit(d, "square_root", graph_file, seed=7, client="a",
               priority=1.0)
    b = submit(d, "square_root", graph_file, seed=7, client="b",
               priority=4.0)
    drive(d, until=lambda: d.jobs[a].terminal or d.jobs[b].terminal)
    # the 4x-weighted client finishes its identical workload first
    assert d.jobs[b].terminal and not d.jobs[a].terminal
    drive(d)
    assert d.jobs[a].state == "done"
    assert d.jobs[a].result["value"] == d.jobs[b].result["value"]


def test_two_out_jobs_share_cached_plan(graph, graph_file, tmp_path):
    d = threadless(tmp_path)
    j1 = submit(d, "square_root", graph_file, seed=7, variant="2out")
    j2 = submit(d, "square_root", graph_file, seed=7, variant="2out",
                client="other")
    drive(d)
    solo = run_algorithm("square_root", graph, p=4, seed=7, variant="2out")
    assert d.jobs[j1].result["value"] == solo.value
    assert d.jobs[j1].result == d.jobs[j2].result
    st = d.handle_request({"op": "stats"})["cache"]["derivatives"]
    assert st["entries"] == 1 and st["hits"] == 1   # plan computed once
    assert st == d.backend.plans.stats()


def test_preprocessed_two_out_job_replays_its_plan(graph, graph_file,
                                                   tmp_path):
    """A ``--preprocess`` 2-out job goes the one road too: a repeat hits
    the backend's plan store and answers the same bits as a direct run."""
    from repro.serve.protocol import result_doc

    d = threadless(tmp_path)
    hits, docs = [], []
    for _ in range(2):
        jid = submit(d, "square_root", graph_file, seed=7, variant="2out",
                     preprocess=True)
        drive(d)
        docs.append(d.jobs[jid].result)
        hits.append(d.handle_request(
            {"op": "stats"})["cache"]["derivatives"]["hits"])
    assert hits[1] == hits[0] + 1
    direct = run_algorithm("square_root", graph, p=4, seed=7,
                           variant="2out", preprocess=True)
    assert docs[0] == docs[1] == result_doc("square_root", direct)


def test_graph_eviction_reload_mid_queue(graph, graph_file, tmp_path):
    """A job whose graph was evicted reloads it transparently — and the
    reload still validates against the job's pinned fingerprint."""
    other = erdos_renyi(90, 400, philox_stream(9), weighted=True)
    opath = str(tmp_path / "o.edges")
    write_edgelist(other, opath)
    d = threadless(tmp_path, cache_edges=max(graph.m, other.m))
    jid = submit(d, "parallel_cc", graph_file, seed=5)
    submit(d, "parallel_cc", opath, seed=5)   # evicts the first graph
    assert d.cache.get_graph(d.jobs[jid].fingerprint) is None
    drive(d)
    solo = run_algorithm("parallel_cc", graph, p=4, seed=5)
    assert d.jobs[jid].result["n_components"] == solo.n_components


# -- threadless: restart resume -----------------------------------------------


def test_restart_resumes_bit_identically(graph, graph_file, tmp_path):
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim",
                            wave_size=4))
    jid = submit(d1, "square_root", graph_file, seed=7)
    for _ in range(3):                       # a few waves, then "crash"
        popped = d1.queue.pop()
        d1._run_slice(d1.jobs[popped[1]])
    assert 0 < d1.jobs[jid].waves_done < d1.jobs[jid].waves_total
    del d1                                   # no stop(): simulated kill

    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim",
                            wave_size=4))
    job = d2.jobs[jid]
    assert job.state == "queued" and job.waves_done == 3
    drive(d2)
    assert job.state == "done"
    assert job.waves_done == job.waves_total

    # bit-identical to an uninterrupted daemon and to a solo run
    d3 = Daemon(ServeConfig(bind="", state_dir=str(tmp_path / "s3"),
                            backend="sim", wave_size=4))
    j3 = submit(d3, "square_root", graph_file, seed=7)
    drive(d3)
    uninterrupted = d3.jobs[j3].result
    assert job.result["value"] == uninterrupted["value"]
    assert (job.result["ledger_fingerprint"]
            == uninterrupted["ledger_fingerprint"])
    solo = run_algorithm("square_root", graph, p=4, seed=7)
    assert job.result["value"] == solo.value


def test_restart_keeps_terminal_results(graph_file, tmp_path):
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    jid = submit(d1, "parallel_cc", graph_file, seed=5)
    drive(d1)
    result = d1.jobs[jid].result
    del d1
    d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d2.jobs[jid].state == "done"
    assert d2.jobs[jid].result == result
    assert len(d2.queue) == 0                # nothing requeued


def test_stop_writes_only_the_jobs_it_requeues(graph, graph_file, tmp_path,
                                               monkeypatch):
    d1 = threadless(tmp_path)
    done = submit(d1, "parallel_cc", graph_file, seed=5)
    drive(d1)
    running = submit(d1, "square_root", graph_file, seed=7)
    d1._run_slice(d1.jobs[d1.queue.pop()[1]])          # one wave, then stop
    assert d1.jobs[running].state == "running"
    queued = submit(d1, "square_root", graph_file, seed=7, variant="2out")
    before, fd = len(journal(d1)), d1.store._fd
    with io_calls(monkeypatch) as calls:
        d1.stop()
    assert calls == [("write", fd)]                     # one append, no file
    appended = journal(d1)[before:]
    assert [(r["id"], r["state"]) for r in appended] == [(running, "queued")]

    d2 = threadless(tmp_path)                           # graceful restart
    assert d2.jobs[done].state == "done"
    assert d2.jobs[queued].state == d2.jobs[running].state == "queued"
    drive(d2)
    solo = run_algorithm("square_root", graph, p=4, seed=7, variant="2out")
    assert d2.jobs[queued].state == "done"
    assert d2.jobs[queued].result["value"] == solo.value
    assert d2.jobs[running].state == "done"
    assert d2.jobs[running].result["value"] == solo.value


def test_submit_and_finish_append_one_line_each(graph_file, tmp_path,
                                                monkeypatch):
    """A submit's save and a single-slice job's finish are one ``write()``
    each on the open journal: no file created, nothing renamed."""
    d = threadless(tmp_path)
    submit(d, "parallel_cc", graph_file, seed=5)        # warms the graph cache
    drive(d)
    fd = d.store._fd
    with io_calls(monkeypatch) as calls:
        jid = submit(d, "parallel_cc", graph_file, seed=6)
    assert calls == [("write", fd)]
    with io_calls(monkeypatch) as calls:
        drive(d)
    assert calls == [("write", fd)]
    assert [(r["id"], r["state"]) for r in journal(d)[-2:]] == [
        (jid, "queued"), (jid, "done")]
    assert d.store.stats()["appended"] == 4


def test_restart_skips_unreadable_job_records(graph_file, tmp_path, caplog):
    """Bad lines in the journal (a torn tail, an unknown field, a line that
    is not a record) are skipped and logged; every acknowledged job comes
    back in its last whole state, and no id is reused."""
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    done = submit(d1, "parallel_cc", graph_file, seed=5)
    drive(d1)
    queued = submit(d1, "parallel_cc", graph_file, seed=6)
    assert len(journal(d1)) == 3
    # `queued`'s finish record, cut short by a kill mid-write
    finish = json.dumps({**d1.jobs[done].to_doc(), "id": queued},
                        sort_keys=True)
    planted = ['{"id": "j000004", "surprise": 1}',      # unknown field
               "[]",                                     # not a record
               finish[:len(finish) // 2]]                # torn, no newline
    with open(d1.store.path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(planted))
    del d1
    with caplog.at_level("WARNING", logger="repro.serve.jobs"):
        d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert sorted(d2.jobs) == [done, queued]
    assert all(f"journal.jsonl:{n}" in caplog.text for n in (4, 5, 6))
    store = d2.handle_request({"op": "stats"})["store"]
    assert store == {"appended": 0, "replayed": 3, "skipped": 3,
                     "journal_bytes": os.path.getsize(d2.store.path)}
    assert [r["id"] for r in journal(d2)] == [done, queued]   # compacted
    assert d2.jobs[done].state == "done" and d2.jobs[queued].state == "queued"
    assert len(d2.queue) == 1
    drive(d2)
    assert d2.jobs[queued].state == "done"
    assert d2.store.new_id() == "j000005"    # past every id a line names
    d2.stop()

    # the append after compaction is a whole line of its own
    d3 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert d3.store.stats()["skipped"] == 0
    assert d3.jobs[queued].result == d2.jobs[queued].result
    d3.stop()


def test_restart_after_a_kill_mid_compaction(graph_file, tmp_path, caplog,
                                             monkeypatch):
    """A kill between compaction's tmp write and its rename leaves the old
    journal whole: the next start drops the tmp file and replays it."""
    state = str(tmp_path / "state")
    d1 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    done = submit(d1, "parallel_cc", graph_file, seed=5)
    drive(d1)
    queued = submit(d1, "parallel_cc", graph_file, seed=6)
    result = d1.jobs[done].result
    del d1

    class Killed(BaseException):
        pass

    def kill(src, dst):
        raise Killed
    with monkeypatch.context() as m:
        m.setattr(os, "replace", kill)
        with pytest.raises(Killed):
            Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    jobs_dir = os.path.join(state, "jobs")
    assert len(glob.glob(os.path.join(jobs_dir, "journal.jsonl.tmp.*"))) == 1
    with caplog.at_level("WARNING", logger="repro.serve.jobs"):
        d2 = Daemon(ServeConfig(bind="", state_dir=state, backend="sim"))
    assert "unfinished compaction" in caplog.text
    assert os.listdir(jobs_dir) == ["journal.jsonl"]
    assert d2.store.stats()["replayed"] == 3
    assert d2.jobs[done].result == result
    assert d2.jobs[queued].state == "queued" and len(d2.queue) == 1
    assert d2.store.new_id() == "j000003"
    drive(d2)
    assert d2.jobs[queued].state == "done"


def test_jobstore_save_bytes_and_atomic_replace(tmp_path, monkeypatch):
    from repro.serve.jobs import Job, JobStore

    store = JobStore(str(tmp_path))
    job = Job(id=store.new_id(), client="c", algorithm="parallel_cc",
              path=None, fingerprint="ab" * 8, seed=3, p=2,
              kwargs={"eps": 0.25, "note": "caf\u00e9"},
              result={"labels": list(range(4000)), "value": 1.5e-7})
    # the doc is what asdict would build, minus its deep copy of `result`
    assert job.to_doc() == dataclasses.asdict(job)
    assert job.to_doc()["result"] is job.result
    streamed = io.StringIO()  # the bytes json.dump(doc, fh) used to write
    json.dump(job.to_doc(), streamed, sort_keys=True)
    store.save(job)
    first = streamed.getvalue() + "\n"
    with open(store.path, encoding="utf-8") as fh:
        assert fh.read() == first
    job.state = "running"
    store.save(job)
    store.close()

    # Reopening compacts by rename: the latest record per job is whole in a
    # sibling tmp file while the two-line journal is still what a reader sees.
    seen = []
    real_replace = os.replace

    def replace(src, dst):
        seen.append((src, dst))
        assert open(dst, encoding="utf-8").read().startswith(first)
        assert [json.loads(line)["state"] for line in open(src)] == [
            "running"]
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    again = JobStore(str(tmp_path))
    assert seen == [(f"{store.path}.tmp.{os.getpid()}", store.path)]
    assert again.load_all() == [job]
    assert again.stats() == {"appended": 0, "replayed": 2, "skipped": 0,
                             "journal_bytes": os.path.getsize(store.path)}
    assert sorted(os.listdir(store.dir)) == ["journal.jsonl"]
    assert again.new_id() == "j000002"
    again.close()


def test_failed_job_reports_error(graph, tmp_path):
    # graph file deleted (and cache flushed) between submit and execution
    path = str(tmp_path / "doomed.edges")
    write_edgelist(graph, path)
    d = threadless(tmp_path)
    jid = submit(d, "parallel_cc", path)
    os.unlink(path)
    d.cache.graphs.clear()
    popped = d.queue.pop()
    try:
        d._run_slice(d.jobs[popped[1]])
    except Exception as exc:          # the executor loop's failure path
        d._finish_job(d.jobs[jid], error=f"{type(exc).__name__}: {exc}")
    assert d.jobs[jid].state == "failed"
    reply = d.handle_request({"op": "result", "job": jid})
    assert reply["error"] == "JobFailed"


def test_executor_wakes_for_a_submit_racing_its_idle_check(graph_file,
                                                          tmp_path):
    """A submit that lands between the executor's empty ``pop`` and its
    wait is run at once, not after the wait's 0.2 s timeout."""
    cfg = ServeConfig(bind=str(tmp_path / "s.sock"),
                      state_dir=str(tmp_path / "state"), backend="sim")
    with Daemon(cfg) as daemon:
        wait_server(daemon.address)
        pop, armed, raced = daemon.queue.pop, threading.Event(), {}

        def racing_pop():
            popped = pop()
            if popped is None and armed.is_set():
                armed.clear()
                raced["t0"] = time.perf_counter()
                raced["job"] = submit(daemon, "parallel_cc", graph_file,
                                      seed=5)
            return popped

        daemon.queue.pop = racing_pop
        armed.set()
        deadline = time.perf_counter() + 10.0
        while "job" not in raced or not daemon.jobs[raced["job"]].terminal:
            assert time.perf_counter() < deadline
            time.sleep(0.001)
        assert time.perf_counter() - raced["t0"] < 0.05
