"""The four workloads: inputs, loop, checks and per-layer readings.

Every workload is a fixed schedule of work (the same on every commit)
whose length scales with ``--seconds``; the deadline is only a guard for
a box much slower than the one the schedule was sized on.  Inputs come
from the workload seed alone; the program under test only ever receives
generated graphs, update batches and query parameters.

End-to-end timings are *speed-normalised* (:class:`Clock`) and are the
lower quartile of their samples (:func:`fast_quartile`), not the median.
The box this was sized on switches between two speeds about 25 % apart,
each for 10-40 s at a time, and adds shorter bursts on top: an identical
0.4 s call reads 300 to 600 ms, and no statistic of raw samples taken in
one 15 s run repeats better than that.  A small probe of interpreter and
small-array work, run between operations, follows the speed (correlation
0.96 per 15 s window); dividing each sample by the probes around it took
the run-to-run spread of a ``minimum_cut`` call from 21 % to 2.5 % and of
an mp ``connected_components`` from 8 % to 4 %.

Each class documents *why* the workload exists; ``README.md`` has the
longer argument and the table of which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import bisect
import glob
import itertools
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from benchmarks.e2e.spans import END, NOTE, REQUEST, START
from repro.baselines import bgl_cc, stoer_wagner
from repro import core  # called as core.f(...): the spans rebind repro.* attributes
from repro.dynamic import DynamicGraph, update_stream
from repro.graph import (
    clustered_er,
    erdos_renyi,
    read_edgelist,
    write_edgelist,
)
from repro.harness.experiment import run_algorithm
from repro.rng import philox_stream
from repro.runtime.mp import MpBackend
from repro.sched.scheduler import TrialScheduler
from repro.serve import Client, Daemon, ServeConfig, ServeError, wait_server
from repro.serve.protocol import result_doc
from repro.trace import RecordingTracer

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for graph files, sockets and daemon state — inside the
#: checkout (the driver allows writes nowhere else), named in .gitignore.
TMP_ROOT = ROOT / ".e2e_tmp"

P = 2  # processes everywhere: the box has two cores

#: The schedule is sized for BENCHMARK.json's run_seconds; a run may take
#: this many times ``--seconds`` before its loops stop early.
DEADLINE_FACTOR = 1.6


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


#: The speed probe's reading on the sizing box in its fast state: a
#: normalised time reads as the wall time at that speed.
PROBE_REF_S = 0.0068
_PROBE_ARRAY = np.random.default_rng(0).random(4096)


def _probe_once() -> float:
    """A few ms of interpreter and small-array work — no ``repro`` code, so
    a change to the program cannot move it."""
    t0 = perf_counter()
    d = {}
    for i in range(3000):
        d[i] = (i * 7) % 13
    total = 0
    for v in d.values():
        total += v
    sorted(d.values())
    for _ in range(20):
        x = np.cumsum(_PROBE_ARRAY)
        np.unique((x * 1000).astype(np.int64))
        np.add.reduce(_PROBE_ARRAY[:100].reshape(10, 10))
    return perf_counter() - t0


class Clock:
    """Wall-clock intervals normalised by the machine's speed around them.

    :meth:`mark` reads the probe; an interval is scaled by ``PROBE_REF_S``
    over the mean of the readings before and after it.  With
    ``normalise=False`` (the traced run, whose per-layer numbers are raw
    seconds) nothing is probed and every factor is 1.
    """

    #: A mark this recent still describes "now".
    FRESH_S = 0.05

    def __init__(self, normalise: bool):
        self.normalise = normalise
        self.marks: list[tuple[float, float, float]] = []  # start, end, reading

    def mark(self) -> None:
        if self.normalise:
            t0 = perf_counter()
            reading = min(_probe_once() for _ in range(3))
            self.marks.append((t0, perf_counter(), reading))

    def _factor(self, t: float) -> float:
        after = bisect.bisect_left(self.marks, (t,))
        around = self.marks[max(after - 1, 0):after + 1]
        return PROBE_REF_S * len(around) / sum(m[2] for m in around)

    def elapsed(self, t0: float, t1: float) -> float:
        """Normalised seconds from ``t0`` to ``t1``, probes in between excluded."""
        if not self.marks:
            return t1 - t0
        total, cursor = 0.0, t0
        for start, end, _reading in self.marks:
            if t0 < start and end < t1:
                total += (start - cursor) * self._factor((cursor + start) / 2)
                cursor = end
        return total + (t1 - cursor) * self._factor((cursor + t1) / 2)

    def timed(self, fn, *args, **kwargs):
        """``(normalised seconds, result)`` of one call, marked on both sides."""
        if not self.marks or perf_counter() - self.marks[-1][1] > self.FRESH_S:
            self.mark()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.mark()
        return self.elapsed(t0, t1), out


def median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


def fast_quartile(seconds) -> float:
    """The lower quartile of a set of timings (module docstring).

    Interpolated between the samples, never beyond them: the default
    ``exclusive`` method extrapolates below the smallest of a few samples,
    below zero when they differ enough.
    """
    seconds = list(seconds)
    if len(seconds) < 2:
        return float(seconds[0])
    return statistics.quantiles(seconds, n=4, method="inclusive")[0]


def fast_ms(seconds) -> float:
    return fast_quartile(seconds) * 1e3


def p95(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 95))


def same_partition(a, b) -> bool:
    """Two label vectors describe the same partition of the vertices."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def shm_segments() -> set[str]:
    """Graph-plane, arena-slab and anonymous segments now in /dev/shm."""
    return {path for prefix in ("rgpl", "rsh", "psm_")
            for path in glob.glob(f"/dev/shm/{prefix}*")}


def loop_span(rec):
    """Root span of a workload loop; what it does not cover is unattributed."""
    return rec.span("loop", "bench") if rec is not None else nullcontext()


class Budget:
    """Deadline guard for one measured pass."""

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + DEADLINE_FACTOR * seconds

    def spent(self) -> bool:
        return perf_counter() > self.deadline


class Tally:
    """Operations attempted and failed (raised, typed error, wrong answer)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def passed(self, count: int) -> None:
        """``count`` operations that returned and need no further check."""
        self.attempted += count


class Reading(NamedTuple):
    """One end-to-end metric value with its sample count and meaning here."""

    value: float
    n: int
    what: str


class Workload:
    """Base: subclasses fill in setup / measure / verify / metrics."""

    name = ""

    def __init__(self, seed: int, scale: float, clock: Clock,
                 traced: bool = False):
        self.seed = int(seed)
        self.scale = float(scale)
        self.clock = clock
        self.traced = traced
        self.tally = Tally()
        self.truncated = False

    def schedule(self, budget: Budget, **full: int):
        """``(kind, index)`` over a fixed schedule of ``full[kind]`` items of
        each kind at scale 1, the kinds evenly interleaved.

        Each kind's samples are then spread over the whole pass: the box's
        speed moves in phases of seconds, and a kind timed in one block of
        the pass would read whichever phase that block fell into.
        """
        counts = {kind: max(1, round(n * self.scale))
                  for kind, n in full.items()}
        order = sorted(((i + 0.5) / n, kind, i)
                       for kind, n in counts.items() for i in range(n))
        done = dict.fromkeys(counts, 0)
        for _position, kind, i in order:
            if all(done.values()) and budget.spent():
                self.truncated = True
                return
            done[kind] += 1
            yield kind, i

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release whatever :meth:`setup` built (idempotent)."""

    def measure(self, rec, budget: Budget) -> dict:
        """Run the loop once; ``rec`` is a SpanRecorder on the traced pass."""
        raise NotImplementedError

    def verify(self, samples: dict) -> None:
        """Untimed correctness checks over one pass; feeds :attr:`tally`."""
        raise NotImplementedError

    def end_to_end(self, samples: dict) -> dict[str, Reading]:
        raise NotImplementedError

    def layer_readings(self, samples: dict, rec) -> dict[str, float]:
        """Per-layer metrics this workload reads without spans."""
        return {}

    def extra_legs(self, samples: dict) -> dict[str, float]:
        """Traced-run-only extra measurements, taken with spans off."""
        return {}


def _calls_per_s(main, side) -> Reading:
    """Calls per second of a pass, each kind at its fast-quartile time."""
    n = len(main) + len(side)
    busy = len(main) * fast_quartile(main) + len(side) * fast_quartile(side)
    return Reading(n / busy, n, "calls per second at fast-quartile times")


def _report_sums(results) -> dict[str, float]:
    """``bsp.*`` counters summed over the result objects of one pass."""
    return {
        "bsp.supersteps": sum(r.report.supersteps for r in results),
        "bsp.volume_words": sum(r.report.volume for r in results),
        "bsp.total_ops": sum(r.report.total_ops for r in results),
    }


# ---------------------------------------------------------------------------
# mc_dense
# ---------------------------------------------------------------------------

class McDense(Workload):
    """Exact minimum cut on the default (sim) path.

    Nearly all of the wall time is Karger–Stein recursion on matrices of
    around ten vertices — thousands of ``prefix_select_labels`` /
    ``earliest_forest`` calls whose cost is ``scipy.sparse`` constructor
    overhead: *kernels at small k*.  BSP, runtime and serve do almost
    nothing here.  The side operation (``trials=1 < p``) takes the §4
    distributed Eager + Recursive Step instead.
    """

    name = "mc_dense"
    N, M = 400, 6_400
    MAIN_REPS, SIDE_REPS = 14, 6

    def setup(self):
        self.g = erdos_renyi(self.N, self.M, philox_stream(self.seed),
                             weighted=True)
        self.sw_s, (self.ref, _side) = timed(stoer_wagner, self.g)

    def measure(self, rec, budget):
        samples = {"main": [], "side": []}
        trials = {"main": 2, "side": 1}
        t0 = perf_counter()
        with loop_span(rec):
            for kind, i in self.schedule(budget, main=self.MAIN_REPS,
                                         side=self.SIDE_REPS):
                samples[kind].append(self.clock.timed(
                    core.minimum_cut, self.g, p=P, seed=self.seed + i,
                    trials=trials[kind]))
        samples["wall"] = perf_counter() - t0
        return samples

    def verify(self, samples):
        for kind in ("main", "side"):
            for i, (_t, res) in enumerate(samples[kind]):
                ok = (math.isclose(self.g.cut_value(res.side), res.value,
                                   rel_tol=1e-9)
                      and res.value >= self.ref * (1 - 1e-9))
                self.tally.record(
                    ok, f"mc_dense {kind}[{i}]: value {res.value} vs "
                        f"witness {self.g.cut_value(res.side)}, "
                        f"reference {self.ref}")

    def end_to_end(self, samples):
        main = [t for t, _ in samples["main"]]
        side = [t for t, _ in samples["side"]]
        return {
            "main_p25_ms": Reading(fast_ms(main), len(main),
                                   "minimum_cut(trials=2), p <= trials"),
            "side_p25_ms": Reading(fast_ms(side), len(side),
                                   "minimum_cut(trials=1), distributed §4"),
            "ops_per_s": _calls_per_s(main, side),
        }

    def layer_readings(self, samples, rec):
        main = samples["main"]
        results = [r for _, r in main]
        wall = sum(t for t, _ in main)
        predicted = sum(r.time.total_s for r in results)
        exact = sum(math.isclose(r.value, self.ref, rel_tol=1e-9)
                    for r in results)
        return {
            **_report_sums(results),
            "bsp.predicted_s": predicted,
            "bsp.mincut_wall_over_predicted": wall / predicted,
            "core.mincut_exact_rate": exact / len(results),
            "core.parallel_trial_s": fast_quartile(
                t for t, _ in samples["side"]),
            "core.trials_dispatched": sum(r.trials for r in results),
            "baselines.stoer_wagner_s": self.sw_s,
        }

    def extra_legs(self, samples):
        # The scheduler route against the monolithic call: same graph, seed
        # and trial count as main[0].
        t_sched, res = timed(TrialScheduler().run, self.g, P,
                             seed=self.seed, trials=2)
        mono_t, mono = samples["main"][0]
        self.tally.record(res.value == mono.value,
                          f"scheduled value {res.value} != {mono.value}")
        return {
            "sched.overhead_ratio": t_sched / mono_t,
            "sched.waves": len({r.wave for r in res.ledger.records.values()}),
            "sched.dispatches": res.dispatches,
        }


# ---------------------------------------------------------------------------
# sparse_mp
# ---------------------------------------------------------------------------

def _noop_program(ctx):
    """An SPMD program with no collectives: prices pool spawn + teardown."""
    return None
    yield  # pragma: no cover - makes this a generator function


class SparseMp(Workload):
    """The O(1)-superstep algorithms (§3.2 CC, §3.3 AppMC) on real processes.

    *Kernels at large m* (``cc_labels``, sampling, ``ArrayBundle`` copies)
    plus *runtime/transport*: every superstep is a pipe round trip through
    the coordinator, and every call spawns its pool — which is what
    ``--backend mp`` users pay.  Karger–Stein does nothing here, so this is
    the bypass workload for any small-k kernel change, and the one that
    catches a size dispatch that wins on ``mc_dense`` but loses at large m.
    """

    name = "sparse_mp"
    CC_N, CC_M = 50_000, 1_000_000
    AP_N, AP_M = 5_000, 100_000
    CC_REPS, AP_REPS = 15, 11

    def setup(self):
        self.g_cc = erdos_renyi(self.CC_N, self.CC_M,
                                philox_stream(self.seed))
        self.g_ap = erdos_renyi(self.AP_N, self.AP_M,
                                philox_stream(self.seed + 1), weighted=True)
        self.bfs_s, (self.ref_labels, _count) = timed(bgl_cc, self.g_cc)

    def measure(self, rec, budget):
        be = MpBackend()
        cc, ap, stats = [], [], []
        calls = {"cc": (cc, core.connected_components, self.g_cc),
                 "ap": (ap, core.approx_minimum_cut, self.g_ap)}
        t0 = perf_counter()
        with loop_span(rec):
            for kind, _i in self.schedule(budget, cc=self.CC_REPS,
                                          ap=self.AP_REPS):
                out, fn, g = calls[kind]
                out.append(self.clock.timed(fn, g, p=P, seed=self.seed,
                                            backend=be))
                stats.append(be.last_transport_stats)
            # The same two calls on the simulator: the bit-identity
            # reference, the model's predicted time, and the only leg of
            # this workload whose kernels run where spans can see them.
            sim_cc = self.clock.timed(core.connected_components,
                                      self.g_cc, p=P, seed=self.seed)
            sim_ap = self.clock.timed(core.approx_minimum_cut,
                                      self.g_ap, p=P, seed=self.seed)
        return {"cc": cc, "ap": ap, "sim_cc": sim_cc, "sim_ap": sim_ap,
                "stats": stats, "wall": perf_counter() - t0}

    def verify(self, samples):
        sim_cc, sim_ap = samples["sim_cc"][1], samples["sim_ap"][1]
        for i, (_t, res) in enumerate(samples["cc"]):
            ok = same_partition(res.labels, self.ref_labels)
            if i == 0:  # the repo's signature: mp == sim, bit for bit
                ok = (ok and np.array_equal(res.labels, sim_cc.labels)
                      and res.report == sim_cc.report)
            self.tally.record(ok, f"sparse_mp cc[{i}] differs from the "
                                  f"BFS partition or the sim result")
        for i, (_t, res) in enumerate(samples["ap"]):
            ok = math.isclose(res.witness_value,
                              self.g_ap.cut_value(res.witness_side),
                              rel_tol=1e-9)
            if i == 0:
                ok = (ok and res.estimate == sim_ap.estimate
                      and res.witness_value == sim_ap.witness_value
                      and res.report == sim_ap.report)
            self.tally.record(ok, f"sparse_mp appmc[{i}] witness mismatch "
                                  f"or differs from the sim result")

    def end_to_end(self, samples):
        cc = [t for t, _ in samples["cc"]]
        ap = [t for t, _ in samples["ap"]]
        return {
            "main_p25_ms": Reading(fast_ms(cc), len(cc),
                                   "mp connected_components, m = 1e6"),
            "side_p25_ms": Reading(fast_ms(ap), len(ap),
                                   "mp approx_minimum_cut, m = 1e5"),
            "ops_per_s": _calls_per_s(cc, ap),
        }

    def layer_readings(self, samples, rec):
        results = [r for _, r in samples["cc"] + samples["ap"]]
        cc = fast_quartile(t for t, _ in samples["cc"])
        ap = fast_quartile(t for t, _ in samples["ap"])
        (sim_cc_s, sim_cc), (sim_ap_s, sim_ap) = (samples["sim_cc"],
                                                  samples["sim_ap"])
        mpi = sum(r.time.mpi_s for r in results)
        steps = sum(r.report.supersteps for r in results)
        out = {
            **_report_sums(results),
            "bsp.predicted_s": sim_cc.time.total_s + sim_ap.time.total_s,
            "bsp.cc_wall_over_predicted": cc / sim_cc.time.total_s,
            "bsp.appmc_wall_over_predicted": ap / sim_ap.time.total_s,
            "runtime.mp_app_s": sum(r.time.app_s for r in results),
            "runtime.mp_mpi_s": mpi,
            "runtime.mp_us_per_superstep": 1e6 * mpi / steps,
            "runtime.cc_mp_over_sim_wall": cc / sim_cc_s,
            "runtime.appmc_mp_over_sim_wall": ap / sim_ap_s,
            "baselines.cc_bfs_s": self.bfs_s,
        }
        # Transport counters are computed from message sizes by the
        # backend, not measured on a wire.
        for field in ("messages", "pickle_bytes", "bytes_copied",
                      "segments_created"):
            out[f"runtime.{field}"] = sum(s["total"][field]
                                          for s in samples["stats"])
        out["runtime.input_bytes"] = sum(
            s["per_kind"]["input"]["pickle_bytes"] for s in samples["stats"])
        return out

    def extra_legs(self, samples):
        spawn = [timed(MpBackend().run, _noop_program, P)[0]
                 for _ in range(3)]
        g = self.g_cc
        plain, traced = [], []
        for _ in range(3):   # alternating, so a slow phase hits both sides
            plain.append(timed(core.connected_components, g, p=P,
                               seed=self.seed)[0])
            t, res = timed(run_algorithm, "parallel_cc", g, p=P,
                           seed=self.seed, tracer=RecordingTracer())
            traced.append(t)
        return {
            "runtime.mp_spawn_s": fast_quartile(spawn),
            "trace.recording_overhead_ratio": min(traced) / min(plain),
            "trace.events": len(res.trace),
        }


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------

class Query(NamedTuple):
    algorithm: str
    graph: str        # "A" or "B"
    seed: int
    kwargs: dict


class Served(NamedTuple):
    query: Query
    latency_s: float  # submit + result, client side; inf when it failed
    submit_s: float   # both normalised by the clock
    job: str | None
    trials: int       # square_root: trials the plan dispatched; else 0
    result: dict | None  # kept for every 10th query only


SEED_POOL = 12  # query seeds repeat, so the 2-out plan cache hits and misses

#: algorithm, graph, extra submit fields — and its share of the mix.
QUERY_KINDS = (
    (("parallel_cc", "A", {}), 0.5),
    (("approx_cut", "A", {}), 0.25),
    (("square_root", "B", {"variant": "2out"}), 0.25),
)


class ServeMix(Workload):
    """What a user of the warm daemon sees, and what the daemon amortises.

    Socket + protocol + job store + fair queue + graph/plan caches +
    scheduler + warm pool.  The graphs are small, so per-query fixed cost
    dominates and kernels barely register.  Two timed legs:

    * the *floor*: one client alone sends ``parallel_cc`` and 2-out
      ``square_root`` queries two to one (plan cache warm for all but the
      first six), so the latency is the serving path itself and nothing
      queues.  The two kinds alternate so that each samples the whole leg,
      not one second of it;
    * the *mix*: a closed loop — each of two clients sends its next query
      when the previous one returned — of 50 % ``parallel_cc``, 25 %
      ``approx_cut`` and 25 % 2-out ``square_root`` in exactly those
      proportions (only the order is drawn), where head-of-line blocking
      behind ``approx_cut`` on the single executor sets the tail.  Query
      seeds cycle through a pool of 12, so the plan cache sees a fixed
      number of misses and hits.

    The two legs alternate, a quarter of each at a time.

    The cold one-shot CLI, which prices what the daemon amortises
    (interpreter, imports, parse, fingerprint), is a leg of the traced run
    only: a fresh interpreter's start-up is file I/O on a shared host, and
    its time spread 14-32 % between runs however it was taken.

    The traced run serves from a :class:`Daemon` in this process, so spans
    can see it; the untraced run uses the ``repro.cli serve`` subprocess a
    user would start.
    """

    name = "serve_mix"
    CLIENTS = 2
    FLOOR_ROUNDS, QUERIES, WARMUP, COLD_REPS = 72, 100, 10, 5
    MIN_FLOOR_ROUNDS, MIN_QUERIES = 8, 20   # per client, however short the run
    #: The floor and the mix alternate this many times, a quarter of each
    #: at a time, so that both sample the whole pass (Workload.schedule).
    ROUNDS = 4
    #: Queries between two readings of the speed probe.  In the mix both
    #: clients stop at a barrier for it, so the probe never competes with
    #: the daemon for the two cores.
    FLOOR_PAUSE, MIX_PAUSE = 12, 25

    def __init__(self, seed, scale, clock, traced=False):
        super().__init__(seed, scale, clock, traced)
        self.dir: Path | None = None
        self.proc = None
        self.daemon = None

    # -- inputs --------------------------------------------------------------

    def _deck(self, rng: random.Random, seeds: dict, count: int):
        """``count`` queries in the mix's exact proportions, order drawn."""
        kinds = []
        for kind, share in QUERY_KINDS[1:]:
            kinds += [kind] * round(count * share)
        kinds += [QUERY_KINDS[0][0]] * (count - len(kinds))
        rng.shuffle(kinds)
        return [Query(alg, graph, next(seeds[alg]), kwargs)
                for alg, graph, kwargs in kinds]

    def setup(self):
        TMP_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT))
        graphs = {
            "A": erdos_renyi(4000, 32_000, philox_stream(self.seed),
                             weighted=True),
            "B": clustered_er(512, 64, philox_stream(self.seed + 1)),
        }
        self.paths = {}
        for key, g in graphs.items():
            self.paths[key] = str(self.dir / f"{key}.txt")
            write_edgelist(g, self.paths[key])
        rng = random.Random(self.seed)
        # One cycling, shuffled seed pool per algorithm, shared by warm-up
        # and timed queries: how many plans miss is fixed, which ones is not.
        seeds = {}
        for (alg, _graph, _kwargs), _share in QUERY_KINDS:
            pool = list(range(SEED_POOL))
            rng.shuffle(pool)
            seeds[alg] = itertools.cycle(pool)
        self.warmup = [self._deck(rng, seeds, self.WARMUP)
                       for _ in range(self.CLIENTS)]
        cc, _approx, two_out = (kind for kind, _share in QUERY_KINDS)
        self.floor = [
            Query(alg, graph, next(seeds[alg]), kwargs)
            for _ in range(max(self.MIN_FLOOR_ROUNDS,
                               round(self.FLOOR_ROUNDS * self.scale)))
            for alg, graph, kwargs in (cc, cc, two_out)]
        per_client = max(self.MIN_QUERIES, round(self.QUERIES * self.scale))
        self.queries = [self._deck(rng, seeds, per_client)
                        for _ in range(self.CLIENTS)]
        self._start_daemon()
        # One query alone first: the warm pool is forked lazily by the
        # executor thread, and a fork while another request's thread holds
        # a module lock (repro.graph.shm._LOCK) leaves the workers
        # deadlocked on it.  Concurrent traffic starts once the pool exists.
        self._closed_loop([self.warmup[0][:1]], None)
        self._closed_loop(self.warmup, None)

    def _start_daemon(self):
        # A relative socket path: AF_UNIX paths are limited to ~100 bytes
        # and the checkout may sit deep in the filesystem.
        self.sock = os.path.relpath(self.dir / "d.sock")
        if not self.sock.startswith("."):
            self.sock = os.path.join(".", self.sock)
        state = str(self.dir / "state")
        if self.traced:
            self.daemon = Daemon(ServeConfig(bind=self.sock, state_dir=state,
                                             backend="warm", p=P))
            self.daemon.start()
            return
        self.log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--bind", self.sock,
             "--state-dir", state, "--backend", "warm", "--procs", str(P)],
            env=_cli_env(), stdout=self.log, stderr=subprocess.STDOUT)
        wait_server(self.sock, timeout=60.0)

    def teardown(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.proc is not None:
            try:
                with Client(self.sock, timeout=10.0) as c:
                    c.shutdown()
                self.proc.wait(timeout=20.0)
            except (OSError, ServeError, subprocess.TimeoutExpired):
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.log.close()
            self.proc = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    # -- the loop ------------------------------------------------------------

    def _client(self, idx, queries, rec, out, every, barrier):
        served = out[idx] = []
        clock = self.clock
        with Client(self.sock, client=f"c{idx}", timeout=30.0) as c, \
                loop_span(rec):
            for k, q in enumerate(queries):
                if k % every == 0:
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        break  # the other client gave up
                job, t1 = None, math.inf
                t0 = perf_counter()
                try:
                    job = c.submit(q.algorithm, self.paths[q.graph],
                                   seed=q.seed, p=P, **q.kwargs)
                    t1 = perf_counter()
                    res = c.result(job)
                except ServeError:
                    served.append(Served(q, math.inf, t1 - t0, job, 0, None))
                    continue
                except OSError:  # daemon gone or wedged: the rest would too
                    served.append(Served(q, math.inf, t1 - t0, job, 0, None))
                    break
                served.append(Served(q, clock.elapsed(t0, perf_counter()),
                                     clock.elapsed(t0, t1), job,
                                     res.get("trials", 0),
                                     res if k % 10 == 0 else None))
        barrier.abort()   # done, or gave up: never leave the other waiting

    def _closed_loop(self, per_client, rec, every=10**9):
        """Each client sends its next query when the previous one returned.

        Every ``every`` queries the clients meet at a barrier and the clock
        reads the speed probe.  Returns the answers and the normalised wall.
        """
        out: dict[int, list[Served]] = {}
        barrier = threading.Barrier(len(per_client), action=self.clock.mark)
        threads = [threading.Thread(
            target=self._client,
            args=(i, qs, rec, out, every, barrier))
            for i, qs in enumerate(per_client)]
        t0 = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t1 = perf_counter()
        self.clock.mark()   # the last stretch has a probe on both sides too
        # the loop proper starts after its opening probe
        start = next((m[1] for m in self.clock.marks if m[0] >= t0), t0)
        return ([s for i in sorted(out) for s in out[i]],
                self.clock.elapsed(start, t1), t1 - t0)

    def measure(self, rec, budget):
        def part(items, r):
            return items[len(items) * r // self.ROUNDS:
                         len(items) * (r + 1) // self.ROUNDS]

        floor, served, mix_rates, wall = [], [], [], 0.0
        for r in range(self.ROUNDS):
            if (len(floor) >= 3 * self.MIN_FLOOR_ROUNDS
                    and len(served) >= self.CLIENTS * self.MIN_QUERIES
                    and budget.spent()):
                self.truncated = True
                break
            answers, _norm, leg_wall = self._closed_loop(
                [part(self.floor, r)], rec, self.FLOOR_PAUSE)
            floor += answers
            wall += leg_wall
            answers, leg_s, leg_wall = self._closed_loop(
                [part(qs, r) for qs in self.queries], rec, self.MIX_PAUSE)
            served += answers
            mix_rates.append(len(answers) / leg_s)
            wall += leg_wall
        with Client(self.sock, timeout=30.0) as c:
            pings = [timed(c.ping)[0] for _ in range(50)]
            stats = c.stats()
        return {"floor": floor, "served": served, "mix_rates": mix_rates,
                "wall": wall, "pings": pings, "stats": stats}

    def _cold_cli(self):
        return timed(subprocess.run,
                     [sys.executable, "-m", "repro.cli", "parallel_cc",
                      self.paths["A"], "--procs", str(P)],
                     env=_cli_env(), capture_output=True, text=True)

    def verify(self, samples):
        graphs = {k: read_edgelist(p) for k, p in self.paths.items()}
        direct: dict[tuple, dict] = {}

        def expected(q: Query) -> dict:
            key = (q.algorithm, q.seed)
            if key not in direct:
                direct[key] = result_doc(q.algorithm, run_algorithm(
                    q.algorithm, graphs[q.graph], p=P, seed=q.seed,
                    **q.kwargs))
            return direct[key]

        for s in samples["floor"] + samples["served"]:
            ok = math.isfinite(s.latency_s)
            if ok and s.result is not None:
                ok = s.result == expected(s.query)
            self.tally.record(ok, f"serve_mix {s.query.algorithm} seed "
                                  f"{s.query.seed} (job {s.job}) failed or "
                                  f"differs from the direct run")

    def end_to_end(self, samples):
        cc, two_out = ([s.latency_s for s in samples["floor"]
                        if s.query.algorithm == alg]
                       for alg in ("parallel_cc", "square_root"))
        served = samples["served"]
        return {
            "main_p25_ms": Reading(fast_ms(cc), len(cc),
                                   "parallel_cc query, one client alone"),
            "side_p25_ms": Reading(fast_ms(two_out), len(two_out),
                                   "2-out square_root query, one client "
                                   "alone"),
            "ops_per_s": Reading(statistics.median(samples["mix_rates"]),
                                 len(served), "queries per second, 2-client "
                                              "mixed closed loop, median of "
                                              "its rounds"),
        }

    def layer_readings(self, samples, rec):
        served = samples["served"]
        cache = samples["stats"]["cache"]

        def hit_ratio(c):
            total = c["hits"] + c["misses"]
            return c["hits"] / total if total else 0.0

        out = {
            "serve.query_p95_ms": 1e3 * p95([s.latency_s for s in served]),
            "serve.cc_query_p50_ms": median_ms(
                s.latency_s for s in served
                if s.query.algorithm == "parallel_cc"),
            "serve.submit_rtt_ms": median_ms(s.submit_s for s in served),
            "serve.ping_rtt_ms": median_ms(samples["pings"]),
            "serve.graph_cache_hit_ratio": hit_ratio(cache["graphs"]),
            "serve.plan_cache_hit_ratio": hit_ratio(cache["derivatives"]),
            "serve.pool_spawns": samples["stats"]["pool_spawns"],
            "core.trials_dispatched": sum(s.trials for s in served),
        }
        if rec is not None:
            out.update(_serve_span_readings(rec, served))
        return out

    def extra_legs(self, samples):
        def run_python(code):
            return timed(subprocess.run, [sys.executable, "-c", code],
                         env=_cli_env(), check=True)[0]

        read_s, g = timed(read_edgelist, self.paths["A"])
        n_components = core.connected_components(g, p=P).n_components
        cold = [self._cold_cli() for _ in range(self.COLD_REPS)]
        for _t, proc in cold:
            ok = (proc.returncode == 0 and proc.stdout.strip().endswith(
                f",cc,{n_components}"))
            self.tally.record(ok, f"cold CLI exited {proc.returncode}: "
                                  f"{proc.stderr[-200:]}")
        return {
            "cli.cold_s": fast_quartile(t for t, _ in cold),
            "cli.interpreter_s": fast_quartile(
                run_python("pass") for _ in range(3)),
            "cli.import_s": fast_quartile(
                run_python("import repro.cli") for _ in range(3)),
            "cli.read_graph_s": read_s,
        }


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _serve_span_readings(rec, served) -> dict[str, float]:
    """Per-verb handler time and per-job queue wait from the daemon's spans."""
    rec.adopt_request_ids()
    out = {}
    submit_end: dict[str, float] = {}
    for verb in ("submit", "result"):
        spans = [r for r in rec.select("serve", "handle_request")
                 if r[NOTE] == verb]
        out[f"serve.handle_{verb}_s"] = sum(r[END] - r[START] for r in spans)
        if verb == "submit":
            submit_end = {r[REQUEST]: r[END] for r in spans}
    slices: dict[str, list] = {}
    for r in rec.select("serve", "run_slice"):
        slices.setdefault(r[REQUEST], []).append(r)
    # Time a job sat queued behind another job on the single executor:
    # from the end of its submit to the end of its last slice, minus the
    # slices themselves.
    waits = [
        max(r[END] for r in runs) - submit_end[s.job]
        - sum(r[END] - r[START] for r in runs)
        for s in served
        if s.job in submit_end and (runs := slices.get(s.job))
    ]
    out["serve.wait_ms"] = median_ms(waits) if waits else 0.0
    return out


# ---------------------------------------------------------------------------
# dyn_churn
# ---------------------------------------------------------------------------

class DynChurn(Workload):
    """Writes beside reads on one layer.

    Updates are O(alpha) bookkeeping; reads pay the lazily deferred
    reconnection search or the ``cc_kernel`` fallback, and every 10th
    epoch an approximate cut pays drift-triggered re-sparsification.  A
    change that makes updates cheaper by deferring more work to queries —
    or the reverse — shows here and nowhere else: ``ops_per_s`` is the
    write path alone, ``main_p25_ms`` the ordinary epoch with its read,
    ``side_p25_ms`` the approximate cut once the sparsifier overlay has
    reached its plateau (second half of the stream).  The fallback tail
    itself (``dynamic.epoch_p95_ms``) is a per-layer metric: how many
    epochs fall back is drawn with the stream (93 to 136 of 600 over ten
    seeds), and no statistic of it repeated within 0.25.
    """

    name = "dyn_churn"
    BATCHES, BATCH_SIZE = 600, 128
    CUT_EVERY, CHECK_EVERY = 10, 100  # CHECK_EVERY is a multiple of CUT_EVERY

    def setup(self):
        self.g = erdos_renyi(4000, 16_000, philox_stream(self.seed),
                             weighted=True)
        batches = max(2 * self.CUT_EVERY, round(self.BATCHES * self.scale))
        self.stream = list(update_stream(
            self.g, seed=self.seed + 1, batches=batches,
            batch_size=self.BATCH_SIZE))
        self.dyn = DynamicGraph(self.g, p=P, seed=self.seed, backend="sim")

    def teardown(self):
        dyn = getattr(self, "dyn", None)
        if dyn is not None:
            dyn.close()
            self.dyn = None

    def measure(self, rec, budget):
        dyn, clock = self.dyn, self.clock
        stamps, cut, checkpoints = [], [], []
        clock.mark()   # then around every cut query: each CUT_EVERY epochs
        t_start = perf_counter()
        with loop_span(rec):
            for epoch, ops in enumerate(self.stream, start=1):
                if epoch > 2 * self.CUT_EVERY and budget.spent():
                    self.truncated = True
                    break
                t0 = perf_counter()
                dyn.update_edges(ops)
                t1 = perf_counter()
                cc = dyn.query_components()
                stamps.append((t0, t1, perf_counter()))
                if epoch % self.CUT_EVERY == 0:
                    t, res = clock.timed(dyn.query_cut, mode="approx")
                    # The cut query materialized this epoch's snapshot, so
                    # keeping it costs nothing now and the comparisons
                    # against it can wait until after the loop.
                    cut.append((t, res, dyn.snapshot()))
                    if epoch % self.CHECK_EVERY == 0:
                        checkpoints.append((epoch, cc.labels, dyn.snapshot()))
        wall = perf_counter() - t_start
        clock.mark()
        return {"update": [clock.elapsed(a, b) for a, b, _ in stamps],
                "query": [clock.elapsed(b, c) for _, b, c in stamps],
                "cut": cut, "checkpoints": checkpoints,
                "counters": dict(dyn.counters),
                "ops": sum(len(b) for b in self.stream[:len(stamps)]),
                "wall": wall}

    def verify(self, samples):
        for epoch, labels, snap in samples["checkpoints"]:
            scratch = core.connected_components(snap, p=P, seed=self.seed)
            self.tally.record(
                same_partition(labels, scratch.labels),
                f"dyn_churn epoch {epoch}: incremental labels differ from "
                f"a from-scratch connected_components")
        for i, (_t, res, snap) in enumerate(samples["cut"]):
            self.tally.record(
                math.isclose(res.witness_value, snap.cut_value(res.side),
                             rel_tol=1e-9),
                f"dyn_churn approx cut {i}: witness value "
                f"{res.witness_value} is not the value of its side")
        self.tally.passed(len(samples["update"]))  # epochs: none raised

    def end_to_end(self, samples):
        epochs = [u + q for u, q in zip(samples["update"], samples["query"])]
        cut = [t for t, *_ in samples["cut"]]
        plateau = cut[len(cut) // 2:]
        update = samples["update"]
        return {
            "main_p25_ms": Reading(fast_ms(epochs), len(epochs),
                                   "update_edges + query_components epoch"),
            "side_p25_ms": Reading(fast_ms(plateau), len(plateau),
                                   'query_cut("approx"), second half'),
            "ops_per_s": Reading(
                samples["ops"] / (len(update) * fast_quartile(update)),
                len(update), "update ops per second of update_edges at its "
                             "fast-quartile time"),
        }

    def layer_readings(self, samples, rec):
        epochs = [u + q for u, q in zip(samples["update"], samples["query"])]
        c = samples["counters"]
        return {
            "dynamic.epoch_p95_ms": 1e3 * p95(epochs),
            "dynamic.epoch_ops_per_s": samples["ops"] / sum(epochs),
            "dynamic.approx_cut_p50_ms": median_ms(
                t for t, *_ in samples["cut"]),
            "dynamic.cc_fallbacks": c["cc_fallbacks"],
            "dynamic.reconnects": c["reconnects"],
            "dynamic.resparsifications": c["resparsifications"],
            # reconnection searches that ran out of budget: wasted work
            "dynamic.fallback_share": (c["cc_fallbacks"] / c["tree_deletes"]
                                       if c["tree_deletes"] else 0.0),
        }


WORKLOADS = {cls.name: cls for cls in (McDense, SparseMp, ServeMix, DynChurn)}
