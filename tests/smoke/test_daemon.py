"""Smokes of the serve daemon on the warm backend: served == direct."""
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dynamic import DynamicGraph, update_stream
from repro.graph import read_edgelist
from repro.harness.experiment import run_algorithm
from repro.serve import Client, ServeError, result_doc, wait_server


@pytest.fixture(scope="module")
def queries(graphs):
    """name -> (priority, algorithm, path, kwargs, the direct run's result)."""
    out = {"cc": (1.0, "parallel_cc", graphs["cc"], {}),
           "sq": (2.0, "square_root", graphs["serve_dense"],
                  {"variant": "2out"})}
    for name, (_, algorithm, path, kw) in out.items():
        out[name] += (run_algorithm(algorithm, read_edgelist(path), p=2,
                                    seed=4, **kw),)
    return out


def test_serve(cli, queries, tmp_path):
    """Serve daemon smoke (concurrent clients, clean shutdown)."""
    sock = tmp_path / "s.sock"
    proc = cli("serve", "--bind", sock, "--state-dir", tmp_path / "state",
               "--backend", "warm", "--procs", 2, wait=False)
    addr = str(sock)
    wait_server(addr, timeout=30)

    def client(name):
        priority, algorithm, path, kw, _ = queries[name]
        with Client(addr, client=name, priority=priority) as c:
            return c.run(algorithm, path, seed=4, p=2, **kw)

    with ThreadPoolExecutor(len(queries)) as pool:   # both in flight at once
        docs = dict(zip(queries, pool.map(client, queries)))
    assert docs["cc"]["n_components"] == queries["cc"][4].n_components, docs
    assert docs["sq"]["value"] == queries["sq"][4].value, docs
    with Client(addr, client="admin") as c:
        assert c.stats()["backend"] == "warm"
        c.shutdown()
    assert proc.wait(timeout=60) == 0
    assert not sock.exists()   # graceful shutdown unlinked the socket


def test_plane(queries, warm_daemon):
    """Shared graph plane smoke (spawn warm daemon, repeat queries)."""
    docs = {name: [] for name in queries}
    with warm_daemon() as daemon, Client(daemon.address, client="plane") as c:
        for _rep in range(2):
            for name, (_, algorithm, path, kw, _) in queries.items():
                docs[name].append(c.run(algorithm, path, seed=4, p=2, **kw))
        stats = c.stats()
    assert stats["graph_plane"]["published"] >= 1, stats
    assert stats["cache"]["plane_pinned"] >= 1, stats
    for name, (_, algorithm, _, _, direct) in queries.items():
        # the repeat (an O(1) handle from the pinned cache) is byte-identical
        # to the first answer, and both to a direct run (same doc encoding)
        assert docs[name][0] == docs[name][1], docs[name]
        assert docs[name][0] == result_doc(algorithm, direct), docs[name][0]


def test_dynamic(graphs, warm_daemon):
    """Dynamic streaming smoke (spawn warm daemon, bad batch, restart)."""
    g = read_edgelist(graphs["cc"])
    # local sim replay: the bit-identity oracle for every answer
    local = DynamicGraph(g, p=2, seed=3, backend="sim")
    stream = list(update_stream(g, seed=5, batches=6, batch_size=16))
    # legal up to its last op, whatever the graph holds
    bad = [["insert", 0, 1, 2.0], ["delete", 0, 1], ["delete", 0, 1]]
    cuts = 0

    def serve(c, sid, lo, hi):
        nonlocal cuts
        for i in range(lo, hi):
            st = c.dyn_update(sid, stream[i])
            local.update_edges(stream[i])
            doc, ref = c.dyn_components(sid), local.query_components()
            assert st["epoch"] == doc["epoch"] == local.epoch, (st, doc)
            assert doc["n_components"] == ref.n_components, doc
            assert doc["labels"] == [int(x) for x in ref.labels]
            if i % 3 == 2:
                cut = c.dyn_cut(sid, mode="approx")
                rcut = local.query_cut(mode="approx")
                assert cut["value"] == rcut.value, (cut, rcut)
                assert cut["certificate"] == rcut.certificate
                cuts += 1

    with warm_daemon() as first, Client(first.address, client="dyn") as c:
        sid = c.dyn_open(graphs["cc"], seed=3, p=2)
        serve(c, sid, 0, 4)
        with pytest.raises(ServeError) as exc:
            c.dyn_update(sid, bad)
        assert exc.value.error == "BadUpdate", exc.value
        assert c.dyn_staleness(sid)["epoch"] == local.epoch
    # no dyn_close: the second daemon has only the update log
    with warm_daemon() as second, Client(second.address, client="dyn") as c:
        assert c.dyn_staleness(sid)["epoch"] == local.epoch
        serve(c, sid, 4, len(stream))
        assert c.dyn_staleness(sid)["epoch"] == len(stream)
        assert c.dyn_close(sid)["closed"]
    assert cuts >= 2
