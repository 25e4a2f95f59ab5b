"""Microbenchmarks of the kernel layer vs its scalar references.

Each benchmark times one :mod:`repro.kernels` entry point against the
original per-element Python loop it replaced (kept verbatim in
``repro.kernels.reference``) on the same inputs, and reports wall-clock
seconds plus the speedup ratio.  Prefix Selection is also timed per call
at the sizes the Karger–Stein recursion actually asks for, beside one whole
recursion on the root those calls come from and, as one stack, that
recursion's widest level against its rows one call each, and
``cc_labels`` at the large
m where it filters the edges through a sample's components.
The regression gate (``python -m benchmarks.perf_gate --check``) runs these
and fails if the kernel timings regress past the blessed baseline or a
speedup falls under its floor.

Run standalone::

    PYTHONPATH=src python -m benchmarks.bench_kernels [--scale N] [--json]

``--scale`` multiplies every input size (default 1.0: a 10^5-edge
multigraph for the contraction benchmark, matching the acceptance
criterion); ``--json`` prints machine-readable results.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from repro.bsp.comm import payload_words
from repro.core.karger_stein import karger_stein_matrix
from repro.kernels import (
    bulk_contract_edges,
    cc_labels,
    cc_roots,
    prefix_select_labels,
    scalar_bulk_contract,
    scalar_cc_roots,
    scalar_prefix_select,
)
from repro.kernels.unionfind import _scipy_pass
from repro.rng import philox_stream

__all__ = ["run_benchmarks", "BENCHES"]

#: Default sizes at --scale 1.0.
_CONTRACT_EDGES = 100_000
_CONTRACT_N = 5_000
_CC_EDGES = 60_000
_CC_N = 30_000
#: (name, n, m, blocks) of the large-m rows: the root's gathered sample in the
#: e2e ``sparse_mp`` CC call, and AppMC's union of 13 trial subgraphs there.
_CC_LARGE = (("uniform", 50_000, 1_000_000, 1),
             ("blocks", 65_000, 1_100_000, 13))
_PREFIX_EDGES = 40_000
_PREFIX_N = 20_000
#: (vertices k, sample size s) of the recursion-tail Prefix Selection rows:
#: the median call of an exact min cut (k=9), a mid-recursion call and the
#: first contraction of an n=400 trial.  Not scaled by --scale.
_PREFIX_SMALL = ((9, 32), (50, 162), (400, 2412))
#: Root size of the ``ks_tail`` row: what the Eager Step hands the recursion
#: in that same n=400, m=6400 trial (the e2e ``mc_dense`` graph).
_KS_TAIL_N = 81
#: (k, rows, s) of the ``stack`` row: that recursion's widest level, 128
#: matrices of 14 vertices sampled 32 entries each, in one call.
_PREFIX_STACK = (14, 128, 32)
_PAYLOAD_PARCELS = 20_000


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """Minimum wall-clock of ``repeats`` runs (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _multigraph(rng, n: int, m: int):
    """Random multigraph edges: heavy on parallel edges and self-loops."""
    # Sampling endpoints from sqrt(n*m)-ish support makes parallel classes
    # common, which is the work the combine step exists to do.
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)
    loops = rng.random(m) < 0.05
    v[loops] = u[loops]
    w = rng.random(m) + 0.5
    return u, v, w


def bench_contract(scale: float, rng) -> dict:
    """Bulk contraction of a random multigraph: kernel vs dict loop."""
    m = max(16, int(_CONTRACT_EDGES * scale))
    n = max(8, int(_CONTRACT_N * scale))
    u, v, w = _multigraph(rng, n, m)
    n_new = max(2, n // 3)
    labels = rng.integers(0, n_new, size=n, dtype=np.int64)

    fast_t, fast = _best_of(lambda: bulk_contract_edges(u, v, w, labels, n_new))
    slow_t, slow = _best_of(
        lambda: scalar_bulk_contract(u, v, w, labels, n_new), repeats=1
    )
    assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1]) \
        and np.allclose(fast[2], slow[2], rtol=1e-12, atol=0.0), \
        "vectorized contraction disagrees with scalar reference"
    return {"m": m, "fast_s": fast_t, "slow_s": slow_t,
            "speedup": slow_t / fast_t}


def bench_cc(scale: float, rng) -> dict:
    """Connected-component roots: compiled/vectorized vs per-edge loop."""
    m = max(16, int(_CC_EDGES * scale))
    n = max(8, int(_CC_N * scale))
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)

    fast_t, fast = _best_of(lambda: cc_roots(n, u, v))
    slow_t, slow = _best_of(lambda: scalar_cc_roots(n, u, v), repeats=1)
    assert np.array_equal(fast, slow), "cc_roots disagrees with the oracle"
    return {"m": m, "fast_s": fast_t, "slow_s": slow_t,
            "speedup": slow_t / fast_t, "large": _bench_cc_large(scale, rng)}


def _bench_cc_large(scale: float, rng) -> dict:
    """``cc_labels`` at m >= 4n, where it filters through a sample, against
    one scipy pass over all m, which it is also checked against."""
    rng = rng.spawn(1)[0]  # leaves the later benchmarks' inputs as they were
    inputs = {}
    for name, n, m, blocks in _CC_LARGE:
        size = max(8, int(n * scale)) // blocks
        m = max(16, int(m * scale))
        off = rng.integers(0, blocks, size=m, dtype=np.int64) * size
        u = off + rng.integers(0, size, size=m, dtype=np.int64)
        v = off + rng.integers(0, size, size=m, dtype=np.int64)
        inputs[name] = (size * blocks, u, v)
    n, u, v = inputs["uniform"]
    order = np.lexsort((v, u))  # DynamicGraph.snapshot() order
    inputs["uniform_sorted"] = (n, u[order], v[order])
    rows = {}
    for name, (n, u, v) in inputs.items():
        fast_t, fast = _best_of(lambda: cc_labels(n, u, v), repeats=5)
        single_t, ref = _best_of(lambda: _scipy_pass(n, u, v))
        assert np.array_equal(fast[0], ref[0]) and fast[1] == ref[1] \
            and fast[0].dtype == np.int64, "two-level cc_labels disagrees"
        rows[name] = {"n": n, "m": int(u.size), "ms": 1e3 * fast_t,
                      "single_pass_ms": 1e3 * single_t}
    return rows


def bench_prefix_select(scale: float, rng) -> dict:
    """Prefix Selection: the list-based early-exit union-find vs the numpy
    scalar-indexing oracle at m=40 000, plus microseconds per call at the
    recursion's own sizes (``small``; target ``t = ceil(1 + k / sqrt 2)``)
    and per whole ``karger_stein_matrix`` recursion — sampling, Prefix
    Selection, contraction and the enumerated leaves — on a seeded integer
    matrix (``ks_tail``).
    """
    m = max(16, int(_PREFIX_EDGES * scale))
    n = max(8, int(_PREFIX_N * scale))
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)
    t = max(2, n // 10)

    fast_t, fast = _best_of(lambda: prefix_select_labels(n, u, v, t))
    slow_t, slow = _best_of(lambda: scalar_prefix_select(n, u, v, t), repeats=1)
    assert np.array_equal(fast[0], slow[0]) and fast[1] == slow[1], \
        "prefix_select kernels disagree"

    small = {}
    for k, s in _PREFIX_SMALL:
        su = rng.integers(0, k, size=s, dtype=np.int64)
        sv = rng.integers(0, k, size=s, dtype=np.int64)
        tk = math.ceil(1 + k / math.sqrt(2))
        calls = max(20, 20_000 // k)

        def batch():
            for _ in range(calls):
                prefix_select_labels(k, su, sv, tk)

        batch_t, _ = _best_of(batch, repeats=5)
        small[f"k{k}_s{s}"] = {"k": k, "s": s, "t": tk,
                               "us_per_call": 1e6 * batch_t / calls}
    w = philox_stream(_KS_TAIL_N).integers(1, 100, size=(_KS_TAIL_N,) * 2)
    a = np.triu(w, 1).astype(np.float64)
    a += a.T
    tail_t, _ = _best_of(lambda: karger_stein_matrix(a, philox_stream(0)),
                         repeats=5)
    tail = {f"n{_KS_TAIL_N}": {"n": _KS_TAIL_N, "us_per_call": 1e6 * tail_t}}
    return {"m": m, "fast_s": fast_t, "slow_s": slow_t,
            "speedup": slow_t / fast_t, "small": small, "ks_tail": tail,
            "stack": _bench_prefix_stack(rng)}


def _bench_prefix_stack(rng) -> dict:
    """One ``(B, s)`` Prefix Selection call against its rows one call each
    through the 1-D path, alternated in this process: a ratio, whatever
    the machine's speed."""
    k, b, s = _PREFIX_STACK
    su = rng.integers(0, k, size=(b, s), dtype=np.int64)
    sv = np.where(rng.random((b, s)) < 0.2, su,
                  rng.integers(0, k, size=(b, s), dtype=np.int64))
    tk = math.ceil(1 + k / math.sqrt(2))
    labels, counts = prefix_select_labels(k, su, sv, tk)
    rows = [prefix_select_labels(k, u, v, tk) for u, v in zip(su, sv)]
    assert np.array_equal(labels, [r[0] for r in rows]) \
        and counts.tolist() == [r[1] for r in rows], "stack disagrees"
    stack_t, rows_t = float("inf"), float("inf")
    for _ in range(7):
        stack_t = min(stack_t, _best_of(
            lambda: prefix_select_labels(k, su, sv, tk), repeats=1)[0])
        rows_t = min(rows_t, _best_of(
            lambda: [prefix_select_labels(k, u, v, tk)
                     for u, v in zip(su, sv)], repeats=1)[0])
    return {"k": k, "rows": b, "s": s, "us_per_call": 1e6 * stack_t,
            "rows_us": 1e6 * rows_t, "speedup": rows_t / stack_t}


def _generic_payload_words(x):
    """The pre-fast-path generic walk, kept here as the timing reference."""
    if x is None:
        return 0
    if isinstance(x, np.ndarray):
        return int(x.size)
    if hasattr(x, "__bsp_words__"):
        return int(x.__bsp_words__())
    if isinstance(x, (list, tuple)):
        return sum(_generic_payload_words(item) for item in x)
    if isinstance(x, dict):
        return sum(1 + _generic_payload_words(vv) for vv in x.values())
    return 1


def bench_payload_words(scale: float, rng) -> dict:
    """Wire-volume accounting of sort parcels: fast path vs generic walk."""
    k = max(16, int(_PAYLOAD_PARCELS * scale))
    parcels = [
        (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
         np.zeros(3, dtype=np.float64))
        for _ in range(k)
    ]
    fast_t, fast = _best_of(lambda: payload_words(parcels))
    slow_t, slow = _best_of(lambda: _generic_payload_words(parcels))
    assert fast == slow, "payload_words fast path disagrees with generic walk"
    return {"parcels": k, "fast_s": fast_t, "slow_s": slow_t,
            "speedup": slow_t / fast_t}


#: name -> benchmark callable(scale, rng) -> result dict.
BENCHES = {
    "contract": bench_contract,
    "cc": bench_cc,
    "prefix_select": bench_prefix_select,
    "payload_words": bench_payload_words,
}


def run_benchmarks(scale: float = 1.0, seed: int = 0, names=None) -> dict:
    """Run the selected microbenchmarks; returns ``{name: result_dict}``."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, fn in BENCHES.items():
        if names is not None and name not in names:
            continue
        out[name] = fn(scale, rng)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size multiplier (default 1.0)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true",
                    help="print machine-readable JSON instead of a table")
    ap.add_argument("--bench", action="append", choices=sorted(BENCHES),
                    help="run only the named benchmark (repeatable)")
    args = ap.parse_args(argv)

    results = run_benchmarks(args.scale, args.seed, names=args.bench)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0
    print(f"kernel microbenchmarks (scale={args.scale:g})")
    print(f"{'bench':<16}{'kernel':>12}{'scalar':>12}{'speedup':>10}")
    for name, r in results.items():
        print(f"{name:<16}{r['fast_s']:>11.4f}s{r['slow_s']:>11.4f}s"
              f"{r['speedup']:>9.1f}x")
    for name, r in results.get("prefix_select", {}).get("small", {}).items():
        print(f"prefix_select {name} (t={r['t']}): "
              f"{r['us_per_call']:.1f} us/call")
    for name, r in results.get("prefix_select", {}).get("ks_tail", {}).items():
        print(f"karger_stein_matrix {name}: {r['us_per_call']:.0f} us/call")
    if r := results.get("prefix_select", {}).get("stack"):
        print(f"prefix_select stack {r['rows']}x(k={r['k']}, s={r['s']}): "
              f"{r['us_per_call']:.0f} us/call, its rows one call each "
              f"{r['rows_us']:.0f} us ({r['speedup']:.1f}x)")
    for name, r in results.get("cc", {}).get("large", {}).items():
        print(f"cc_labels {name} (n={r['n']}, m={r['m']}): {r['ms']:.1f} ms "
              f"(one scipy pass: {r['single_pass_ms']:.1f} ms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
