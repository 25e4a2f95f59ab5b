"""Content fingerprints, the bounded LRU store, and the serve graph cache."""

import numpy as np
import pytest

from repro.cache.store import BoundedLRU
from repro.graph import (
    content_fingerprint,
    erdos_renyi,
    read_edgelist,
    write_edgelist,
)
from repro.rng import philox_stream
from repro.sched.ledger import TrialLedger
from repro.serve.cache import FingerprintMismatch, GraphCache


@pytest.fixture
def g():
    return erdos_renyi(50, 200, philox_stream(3), weighted=True)


# -- content_fingerprint ------------------------------------------------------


def test_fingerprint_deterministic(g):
    assert content_fingerprint(g) == content_fingerprint(g)


def test_fingerprint_sensitive_to_content(g):
    fp = content_fingerprint(g)
    h = erdos_renyi(50, 200, philox_stream(4), weighted=True)
    assert content_fingerprint(h) != fp
    # a single weight change flips it
    g2 = type(g)(g.n, g.u.copy(), g.v.copy(), g.w.copy())
    g2.w[0] += 1.0
    assert content_fingerprint(g2) != fp


def test_fingerprint_survives_io_roundtrip(g, tmp_path):
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    assert content_fingerprint(read_edgelist(path)) == content_fingerprint(g)


# -- ledger graph_fp ----------------------------------------------------------


def test_ledger_graph_fp_roundtrip(g, tmp_path):
    fp = content_fingerprint(g)
    ledger = TrialLedger(4, g.n, g.m, 7, graph_fp=fp)
    path = str(tmp_path / "ledger.jsonl")
    ledger.save(path)
    loaded = TrialLedger.load(path)
    assert loaded.graph_fp == fp
    assert loaded.matches(trials=4, n=g.n, m=g.m, seed=7, graph_fp=fp)
    assert not loaded.matches(trials=4, n=g.n, m=g.m, seed=7,
                              graph_fp="0" * 64)
    # fingerprint-less comparison stays backward compatible
    assert loaded.matches(trials=4, n=g.n, m=g.m, seed=7)


def test_scheduler_resume_rejects_different_graph(g, tmp_path):
    from repro.sched import TrialScheduler

    ck = str(tmp_path / "ck.jsonl")
    sched = TrialScheduler(wave_size=4, checkpoint=ck)
    run = sched.begin(g, 2, backend="sim", seed=5, trial_scale=0.2)
    run.step()
    other = erdos_renyi(50, 200, philox_stream(9), weighted=True)
    with pytest.raises(ValueError, match="different"):
        sched.begin(other, 2, backend="sim", seed=5, trial_scale=0.2,
                    resume=True)
    # same bytes resume fine
    resumed = sched.begin(g, 2, backend="sim", seed=5, trial_scale=0.2,
                          resume=True)
    while resumed.step():
        pass
    res = sched.finish(resumed)
    assert res.ledger.fingerprint() == sched.run(
        g, 2, backend="sim", seed=5, trial_scale=0.2).ledger.fingerprint()


# -- BoundedLRU ---------------------------------------------------------------


def test_lru_eviction_order():
    lru = BoundedLRU(3)
    for k in "abc":
        lru.put(k, k)
    lru.get("a")          # refresh: b is now LRU
    lru.put("d", "d")
    assert lru.get("b") is None
    assert lru.get("a") == "a" and lru.get("d") == "d"
    assert lru.stats()["evictions"] == 1


def test_lru_weight_bound():
    lru = BoundedLRU(10.0)
    lru.put("a", 1, weight=6.0)
    lru.put("b", 2, weight=6.0)   # a must go
    assert lru.get("a") is None and lru.get("b") == 2
    assert lru.weight == 6.0
    with pytest.raises(ValueError):
        lru.put("huge", 3, weight=11.0)


def test_lru_get_or_load():
    lru = BoundedLRU(10)
    calls = []

    def loader():
        calls.append(1)
        return "value"

    assert lru.get_or_load("k", loader) == "value"
    assert lru.get_or_load("k", loader) == "value"
    assert len(calls) == 1


# -- GraphCache ---------------------------------------------------------------


def test_graph_cache_stat_fast_path(g, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(g, path)
    cache = GraphCache()
    g1, fp1 = cache.load(path)
    g2, fp2 = cache.load(path)
    assert g1 is g2 and fp1 == fp2    # same hot object, no re-read


def test_graph_cache_detects_file_change(g, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(g, path)
    cache = GraphCache()
    _, fp1 = cache.load(path)
    other = erdos_renyi(50, 200, philox_stream(9), weighted=True)
    write_edgelist(other, path)
    _, fp2 = cache.load(path)
    assert fp2 != fp1
    assert fp2 == content_fingerprint(other)


def test_graph_cache_fingerprint_mismatch(g, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(g, path)
    cache = GraphCache()
    with pytest.raises(FingerprintMismatch):
        cache.load(path, expected_fp="f" * 64)
    # pinning the true fingerprint succeeds, cold and warm
    fp = content_fingerprint(g)
    cache.load(path, expected_fp=fp)
    cache.load(path, expected_fp=fp)
    with pytest.raises(FingerprintMismatch):
        cache.load(path, expected_fp="f" * 64)   # warm path validates too


def test_graph_cache_eviction_and_reload(g, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(g, path)
    cache = GraphCache(capacity_edges=g.m)   # room for exactly one graph
    g1, fp = cache.load(path)
    other = erdos_renyi(80, 150, philox_stream(9), weighted=True)
    opath = str(tmp_path / "o.edges")
    write_edgelist(other, opath)
    cache.load(opath)                        # evicts g
    assert cache.get_graph(fp) is None
    g2, fp2 = cache.load(path)               # transparent reload
    assert fp2 == fp and np.array_equal(g2.w, g1.w)


def test_graph_cache_serves_oversize_graph_uncached(g, tmp_path):
    path = str(tmp_path / "g.edges")
    write_edgelist(g, path)
    cache = GraphCache(capacity_edges=g.m - 1)   # graph cannot fit
    g1, fp = cache.load(path)
    assert fp == content_fingerprint(g)
    assert cache.get_graph(fp) is None           # not cached, but served


def test_graph_cache_plan_roundtrip():
    """The 2-out plans of a cached graph live in the backend's store, not
    the graph cache: a repeat query hits, a different seed misses."""
    from repro.core.two_out import two_out_minimum_cut
    from repro.graph import two_cliques_bridge
    from repro.runtime import SimBackend

    cache = GraphCache()
    fp = cache.put_graph(two_cliques_bridge(12, bridges=2))
    runtime = SimBackend()
    for seed in (1, 1, 2):
        two_out_minimum_cut(cache.get_graph(fp), 2, seed=seed,
                            backend=runtime)
    st = runtime.plans.stats()
    assert (st["entries"], st["hits"], st["misses"]) == (2, 1, 2)
    assert set(cache.stats()) == {"graphs", "stat_index_entries"}
