#!/usr/bin/env python3
"""Run the end-to-end benchmark: one command, every metric by name.

For people::

    PYTHONPATH=src python -m benchmarks.e2e                 # all four workloads
    PYTHONPATH=src python -m benchmarks.e2e --traced        # + per-layer split
    PYTHONPATH=src python -m benchmarks.e2e --check-repeat  # run-to-run agreement

For the driver (``command`` in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the last run made;
the exit code is non-zero when any correctness check failed.  Metric
names, units and regression bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e measures the repository it sits in, and "
             f"{ROOT} has no src/repro")
for _p in (ROOT, ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import argparse  # noqa: E402
import atexit  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from typing import NamedTuple  # noqa: E402

from benchmarks.e2e.spans import NOTE, SpanRecorder, patched  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    PROBE_REF_S,
    WORKLOADS,
    Budget,
    Clock,
    Reading,
    shm_segments,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Per-layer metrics that are counts of a deterministic program: for a
#: fixed seed they must repeat exactly (``--check-repeat --trace 1``).
EXACT = {
    "kernels.prefix_select_median_k", "core.trials_dispatched",
    "core.mincut_exact_rate", "bsp.supersteps", "bsp.volume_words",
    "bsp.total_ops", "bsp.predicted_s", "runtime.messages",
    "runtime.pickle_bytes", "runtime.bytes_copied",
    "runtime.segments_created", "runtime.input_bytes", "sched.waves",
    "sched.dispatches", "serve.pool_spawns", "serve.graph_cache_hit_ratio",
    "serve.plan_cache_hit_ratio", "dynamic.cc_fallbacks",
    "dynamic.reconnects", "dynamic.resparsifications",
    "dynamic.fallback_share", "trace.events",
}


def is_exact(name: str) -> bool:
    return name in EXACT or name.endswith("_calls")


class Outcome(NamedTuple):
    workload: str
    trace: int
    values: dict[str, float]        # exactly the declared metric names
    readings: dict[str, Reading]    # end-to-end runs: n and meaning
    attempted: int
    failed: int
    notes: list[str]
    truncated: bool
    probe_s: float | None           # median speed-probe reading, if probed

    def result_line(self) -> str:
        table = PER_LAYER if self.trace else END_TO_END
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": table[name]["unit"]}
                        for name, value in self.values.items()},
        })


def span_metrics(rec: SpanRecorder, plain_wall: float,
                 traced_wall: float) -> dict[str, float]:
    """Per-layer metrics read off the spans of one traced pass."""
    totals = rec.totals()
    out: dict[str, float] = {}
    for key, (seconds, calls) in totals.items():
        out[f"{key}_s"] = seconds
        out[f"{key}_calls"] = calls
    own = rec.self_by_layer()
    loop_s = totals["bench.loop"][0]
    for layer, seconds in own.items():
        if layer != "bench":
            out[f"{layer}.self_s"] = seconds
    out["kernels.share_of_wall"] = own.get("kernels", 0.0) / loop_s
    # Self time of the loop spans: wall no named layer span covers.
    out["bench.unattributed_share"] = own["bench"] / loop_s
    out["bench.trace_overhead_ratio"] = traced_wall / plain_wall
    sizes = [r[NOTE] for r in rec.select("kernels", "prefix_select")]
    if sizes:
        seconds, calls = totals["kernels.prefix_select"]
        out["kernels.prefix_select_median_k"] = statistics.median(sizes)
        out["kernels.prefix_select_us_per_call"] = 1e6 * seconds / calls
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spans_path: str | None = None) -> Outcome:
    scale = seconds / SPEC["run_seconds"]
    if trace:
        scale /= 2  # an untraced and a traced pass share the run
    # End-to-end numbers are speed-normalised; per-layer ones are raw seconds.
    clock = Clock(normalise=not trace)
    w = WORKLOADS[name](seed, scale, clock, traced=bool(trace))
    before = shm_segments()
    readings: dict[str, Reading] = {}
    try:
        if not trace:
            setups = []
            for _ in range(SETUP_REPS):
                w.teardown()
                setups.append(clock.timed(w.setup)[0])
            samples = w.measure(None, Budget(seconds))
            w.verify(samples)
            readings = w.end_to_end(samples)
            readings["setup_s"] = Reading(
                statistics.median(setups), len(setups),
                "inputs, references, program-side preparation")
            values = {k: readings[k].value for k in END_TO_END}
        else:
            w.setup()
            plain_wall = w.measure(None, Budget(seconds / 2))["wall"]
            w.teardown()
            w.setup()   # the traced pass starts from the same state
            rec = SpanRecorder()
            with patched(rec):
                samples = w.measure(rec, Budget(seconds / 2))
            w.verify(samples)
            produced = span_metrics(rec, plain_wall, samples["wall"])
            produced.update(w.layer_readings(samples, rec))
            produced.update(w.extra_legs(samples))
            values = {k: float(produced.get(k, 0.0)) for k in PER_LAYER}
            if spans_path:
                rec.write_jsonl(spans_path)
    finally:
        w.teardown()
    leaked = shm_segments() - before
    w.tally.record(not leaked, f"{name}: leaked /dev/shm segments "
                               f"{sorted(leaked)}")
    probe = (statistics.median(m[2] for m in clock.marks)
             if clock.marks else None)
    return Outcome(name, trace, values, readings, w.tally.attempted,
                   w.tally.failed, w.tally.notes, w.truncated, probe)


def print_outcome(o: Outcome) -> None:
    mode = "traced, per-layer" if o.trace else "untraced, end-to-end"
    print(f"\n== {o.workload} ({mode}) ==")
    table = PER_LAYER if o.trace else END_TO_END
    for name, value in o.values.items():
        line = f"  {name:38s} {value:16.6g} {table[name]['unit']:6s}"
        if name in o.readings:
            line += f" n={o.readings[name].n:<5d} {o.readings[name].what}"
        print(line)
    share = o.failed / o.attempted
    print(f"  {'failed_share':38s} {share:16.6g} ratio  "
          f"({o.failed} failed / {o.attempted} attempted)")
    if o.probe_s is not None:
        print(f"  times are wall time x {PROBE_REF_S / o.probe_s:.3f}: the "
              f"speed probe read {o.probe_s * 1e3:.2f} ms (median) against "
              f"its reference {PROBE_REF_S * 1e3:.2f} ms")
    if o.truncated:
        print("  note: the deadline guard cut the schedule short; counts "
              "are not comparable with a full run")
    for note in o.notes[:10]:
        print(f"  FAILED: {note}")


def check_repeat(first: list[Outcome], second: list[Outcome]) -> bool:
    """Print both runs side by side; every metric must hold its own bound."""
    ok = True
    print("\n== check-repeat: run 1 vs run 2 ==")
    for a, b in zip(first, second):
        for name in a.values:
            x, y = a.values[name], b.values[name]
            if a.trace:
                if not is_exact(name):
                    continue
                good, rule = x == y, "exact"
            else:
                spec = END_TO_END[name]
                worse = (y - x) / x if spec["better"] == "lower" \
                    else (x - y) / x
                good, rule = abs(worse) <= spec["bound"], \
                    f"bound {spec['bound']:.2f}"
            diff = (y - x) / x if x else 0.0
            print(f"  {a.workload:10s} {name:34s} {x:14.6g} {y:14.6g} "
                  f"{diff:+8.2%}  {'pass' if good else 'FAIL'} ({rule})")
            ok = ok and good
        good = (a.failed, a.attempted) == (b.failed, b.attempted)
        print(f"  {a.workload:10s} {'failed/attempted':34s} "
              f"{a.failed}/{a.attempted:<11d} {b.failed}/{b.attempted:<11d} "
              f"{'pass' if good else 'FAIL'} (exact)")
        ok = ok and good
    return ok


PR_SET_CHILD_SUBREAPER = 36
#: How long descendants get to end by themselves before they are killed.
REAP_S = 20.0


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                out.append(int(entry))
    return out


def reap_children() -> None:
    """Stop and wait for every process this one started, directly or not.

    The workloads shut down what they start, but two kinds of helper end
    only *because* their parent ended and so used to outlive the run by a
    moment: ``multiprocessing``'s resource tracker of this process (its
    pipe closes at interpreter exit) and the tracker of the daemon
    subprocess (orphaned when the daemon exits).  :func:`hold_descendants`
    makes orphans children of this process; here the own tracker is
    stopped and every child is waited for — killed first if it has not
    ended after ``REAP_S``.
    """
    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass  # another Python: the wait below covers the tracker too
    deadline = time.monotonic() + REAP_S
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, so no descendant either
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.005)


def hold_descendants() -> None:
    """Make this process the reaper of its orphaned descendants, and have
    :func:`reap_children` run on every way out that Python handles —
    return, ``sys.exit``, an uncaught exception, SIGTERM."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as before
    # Registered now, so it runs after the handlers registered later (the
    # graph plane's /dev/shm sweep, which may talk to the tracker).
    atexit.register(reap_children)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def main(argv: list[str] | None = None) -> int:
    hold_descendants()
    ap = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="drives every generator, update stream and query "
                         "schedule")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="length of the measured schedule; the schedule is "
                         "sized for the default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run (per-layer metrics) instead of "
                         "the untraced one (end-to-end metrics)")
    ap.add_argument("--traced", action="store_true",
                    help="after each untraced run, also make the traced run")
    ap.add_argument("--spans", metavar="PATH", default=None,
                    help="write the traced run's spans as JSON lines "
                         "(one workload)")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run everything twice and compare against each "
                         "metric's own bound (counts: exactly)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = [args.workload] if args.workload else [
        w["name"] for w in SPEC["workloads"]]
    traces = [0, 1] if args.traced else [args.trace]
    if args.spans and (len(names) > 1 or 1 not in traces):
        ap.error("--spans needs --workload and a traced run")

    def sweep() -> list[Outcome]:
        outcomes = []
        for name in names:
            for trace in traces:
                o = run_workload(name, args.seed, args.seconds, trace,
                                 args.spans if trace else None)
                print_outcome(o)
                outcomes.append(o)
        return outcomes

    outcomes = sweep()
    ok = all(o.failed == 0 for o in outcomes)
    if args.check_repeat:
        again = sweep()
        ok = check_repeat(outcomes, again) and ok \
            and all(o.failed == 0 for o in again)
    print()
    for o in outcomes:
        print(o.result_line())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
