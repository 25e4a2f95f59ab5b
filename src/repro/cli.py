"""Artifact-style command-line interface.

The published artifact ships three executables — ``parallel_cc``,
``approx_cut`` and ``square_root`` (the exact minimum cut) — that read an
edge-list file and print a profiling CSV line per execution (Listing 1 of
the artifact appendix: input, seed, vertex/edge counts, execution and MPI
time, parallelism, algorithm tag, and the result).  This module mirrors
them as subcommands, plus a ``generate`` subcommand standing in for the
artifact's input generators.

``--backend`` selects the runtime: ``sim`` (default) executes on the
single-process BSP simulator with the analytic time model; ``mp`` executes
on ``--procs`` real OS processes over shared memory and reports measured
wall-clock times.  The algorithmic result and counters are identical
either way for a fixed seed.

Usage::

    python -m repro.cli generate --family er --n 1000 --degree 8 \
        --seed 1 --out g.txt
    python -m repro.cli parallel_cc g.txt --procs 8 --seed 1
    python -m repro.cli parallel_cc g.txt --procs 4 --backend mp
    python -m repro.cli approx_cut g.txt --procs 8 --seed 1
    python -m repro.cli square_root g.txt --procs 8 --seed 1 --trial-scale 0.1
    python -m repro.cli square_root g.txt --procs 8 --seed 1 --variant 2out
    python -m repro.cli square_root g.txt --procs 4 --backend mp \
        --max-retries 3 --checkpoint ledger.jsonl \
        --inject-faults crash:rank=1,step=1

The last form engages the fault-tolerant trial scheduler (``repro.sched``):
any of ``--max-retries``, ``--retry-backoff``, ``--checkpoint``,
``--resume`` or ``--inject-faults`` dispatches the Monte-Carlo trials
through the retrying, checkpointable dispatch loop and reports the
achieved success probability next to the profile line.

``serve`` / ``query`` run and talk to the persistent analytics daemon
(``repro.serve``): ``serve`` keeps worker processes, arena slabs and
loaded graphs warm across queries; ``query`` is the blocking client::

    python -m repro.cli serve --bind /tmp/repro.sock --state-dir state &
    python -m repro.cli query /tmp/repro.sock parallel_cc g.txt \
        --wait-server 10
    python -m repro.cli query /tmp/repro.sock square_root g.txt --seed 1
    python -m repro.cli query /tmp/repro.sock --shutdown

``dynamic`` streams a deterministic edge-update workload into a running
daemon's dynamic-graph session (``repro.dynamic``), interleaving warm
component/cut queries; ``--verify`` cross-checks every answer against a
local replay of the same stream::

    python -m repro.cli dynamic /tmp/repro.sock g.txt --batches 8 \
        --cut exact --verify

``--trace PATH`` records a per-superstep JSON-lines trace;
``analyze-trace`` replays one offline, ranking the heaviest supersteps
under the machine model and emitting a fusion plan (which adjacent
collectives ``--fuse`` would merge, and what that saves)::

    python -m repro.cli parallel_cc g.txt --procs 8 --trace t.jsonl \
        --fuse --shrink
    python -m repro.cli analyze-trace t.jsonl --top 5 --plan plan.json

``--variant 2out`` (``repro.core.two_out``) runs the random 2-out
contraction preprocessing first and prices the recomputed — usually far
smaller — trial budget of the contracted replicas (enumerated outright
at 12 vertices or fewer, dispatched above), printing a ``two_out:``
summary line; it degrades to the default pipeline whenever
the preprocessing buys nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core import approx_minimum_cut, connected_components, minimum_cut
from repro.core.trials import FIELD_DOMAINS, VARIANTS, field_error
from repro.graph import (
    barabasi_albert,
    erdos_renyi,
    read_edgelist,
    rmat,
    watts_strogatz,
    write_edgelist,
)
from repro.rng import philox_stream

__all__ = ["main", "build_parser"]

_BACKENDS = ("sim", "mp")


def _profile_line(path, seed, p, g, time, tag, result) -> str:
    """Artifact Listing-1-style CSV record."""
    return ",".join(
        str(x)
        for x in (
            path, seed, p, g.n, g.m,
            f"{time.total_s:.6f}", f"{time.mpi_s:.6f}", tag, result,
        )
    )


def _backend_spec(args):
    """The ``backend=`` value for the algorithm entry point: the plain
    name, or — under ``--trace``/``--fuse`` — a resolved backend carrying
    a fresh :class:`~repro.trace.tracer.RecordingTracer` and/or the
    superstep-fusion config."""
    trace = getattr(args, "trace", None)
    fuse = getattr(args, "fuse", False)
    if not trace and not fuse:
        return args.backend
    from repro.runtime.base import resolve_backend

    kw = {}
    if trace:
        from repro.trace import RecordingTracer

        kw["tracer"] = RecordingTracer()
    if fuse:
        kw["fuse"] = True
    return resolve_backend(args.backend, **kw)


def _emit_trace(args, trace) -> None:
    """Write the JSON-lines trace file and print the summary table."""
    if not getattr(args, "trace", None):
        return
    from repro.trace import format_summary, write_jsonl

    count = write_jsonl(trace, args.trace)
    print(f"trace: {count} events -> {args.trace}")
    print(format_summary(trace))


def _read_graph(path: str):
    """``read_edgelist``, with an unreadable or malformed file a usage error
    (exit 2, one line naming the file and the reason), not a traceback."""
    try:
        return read_edgelist(path)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"repro: error: cannot read graph file {path}: "
              + " ".join(str(reason).split()), file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_parallel_cc(args) -> int:
    g = _read_graph(args.input)
    res = connected_components(g, p=args.procs, seed=args.seed,
                               shrink=args.shrink,
                               backend=_backend_spec(args))
    print(_profile_line(args.input, args.seed, args.procs, g,
                        res.time, "cc", res.n_components))
    _emit_trace(args, res.trace)
    return 0


def _cmd_approx_cut(args) -> int:
    g = _read_graph(args.input)
    res = approx_minimum_cut(
        g, p=args.procs, seed=args.seed, pipelined=args.pipelined,
        shrink=args.shrink, backend=_backend_spec(args),
    )
    print(_profile_line(args.input, args.seed, args.procs, g,
                        res.time, "approx_cut", f"{res.estimate:g}"))
    _emit_trace(args, res.trace)
    return 0


def _scheduler_spec(args):
    """A :class:`~repro.sched.TrialScheduler` when any scheduling flag was
    given, else None (one ``mincut_program`` dispatch)."""
    engaged = (
        args.max_retries is not None or args.retry_backoff is not None
        or args.checkpoint or args.resume or args.inject_faults
    )
    if not engaged:
        return None
    from repro.sched import TrialScheduler

    plan = None
    if args.inject_faults:
        from repro.faults import parse_fault_plan

        plan = parse_fault_plan(args.inject_faults)
    return TrialScheduler(
        max_retries=2 if args.max_retries is None else args.max_retries,
        backoff_s=0.05 if args.retry_backoff is None else args.retry_backoff,
        checkpoint=args.checkpoint or None,
        fault_plan=plan,
    )


def _cmd_square_root(args) -> int:
    g = _read_graph(args.input)
    scheduler = _scheduler_spec(args)
    res = minimum_cut(
        g, p=args.procs, seed=args.seed,
        success_prob=args.success_prob, trial_scale=args.trial_scale,
        trials=args.trials, backend=_backend_spec(args),
        scheduler=scheduler, resume=args.resume, variant=args.variant,
    )
    print(_profile_line(args.input, args.seed, args.procs, g,
                        res.time, "square_root", f"{res.value:g}"))
    if args.variant == "2out":
        s = res.two_out
        path = ("degraded to the default pipeline" if s.degraded else
                f"{s.total_trials} trials over {s.replicas} replicas")
        # The degraded fallback runs the default pipeline without a
        # per-trial ledger, so it reports no achieved success probability.
        achieved = ("n/a" if res.achieved_success_prob is None else
                    f"{res.achieved_success_prob:.6f}")
        print(
            f"two_out: {path}, default budget {s.default_trials}, "
            f"reduction {s.reduction:.2f}x, achieved success probability "
            f"{achieved} (requested {args.success_prob:g})"
        )
    if scheduler is not None and res.ledger is not None:
        ledger = res.ledger
        print(
            f"scheduler: {ledger.completed}/{res.trials} trials completed, "
            f"achieved success probability "
            f"{res.achieved_success_prob:.6f} "
            f"(requested {args.success_prob:g})"
        )
    _emit_trace(args, res.trace)
    return 0


def _cmd_serve(args) -> int:
    """Run the ``repro.serve`` daemon until interrupted or shut down."""
    import signal

    from repro.serve import Daemon, ServeConfig

    cfg = ServeConfig(
        bind=args.bind, state_dir=args.state_dir, backend=args.backend,
        p=args.procs, wave_size=args.wave_size, cache_edges=args.cache_edges,
    )
    daemon = Daemon(cfg)
    address = daemon.start()
    print(f"serving on {address} (backend={args.backend}, "
          f"state={args.state_dir})", flush=True)
    stop = lambda *_: daemon.stop()  # noqa: E731
    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    daemon._stopping.wait()
    daemon.stop()
    return 0


def _cmd_query(args) -> int:
    """One client interaction with a running serve daemon."""
    import json

    from repro.serve import Client, ServeError, wait_server

    if args.wait_server:
        wait_server(args.address, timeout=args.wait_server)
    with Client(args.address, client=args.client,
                priority=args.priority) as client:
        if args.ping:
            print(json.dumps(client.ping(), sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("daemon shutting down")
            return 0
        try:
            job = client.submit(
                args.algorithm, os.path.abspath(args.input), seed=args.seed,
                p=args.procs, variant=args.variant, trials=args.trials,
                trial_scale=args.trial_scale, success_prob=args.success_prob)
            if not args.wait:
                print(json.dumps({"job": job}, sort_keys=True))
                return 0
            result = client.result(job)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_dynamic(args) -> int:
    """Stream a deterministic update workload into a serve daemon.

    Opens a dynamic session on the input graph, replays a synthetic
    update stream (``repro.dynamic.update_stream``, keyed by --seed),
    and interleaves component/cut queries every --query-every batches.
    With --verify every answer is checked bit-for-bit against a local
    :class:`~repro.dynamic.DynamicGraph` replaying the same stream.
    """
    import json

    from repro.dynamic import DynamicGraph, update_stream
    from repro.serve import Client, ServeError, wait_server

    if args.wait_server:
        wait_server(args.address, timeout=args.wait_server)
    g = _read_graph(args.input)
    stream = update_stream(g, seed=args.seed, batches=args.batches,
                           batch_size=args.batch_size)
    mirror = (DynamicGraph(g, p=args.procs, seed=args.seed, backend="sim")
              if args.verify else None)
    failures = 0
    with Client(args.address, client=args.client) as client:
        sid = client.dyn_open(os.path.abspath(args.input), seed=args.seed,
                              p=args.procs)
        try:
            for b, ops in enumerate(stream):
                st = client.dyn_update(sid, ops)
                if mirror is not None:
                    mirror.update_edges(ops)
                if (b + 1) % args.query_every and b + 1 != args.batches:
                    continue
                cc = client.dyn_components(sid)
                line = {"epoch": st["epoch"], "ops": len(ops),
                        "n_components": cc["n_components"],
                        "labels_sha256": cc["labels_sha256"], "via": cc["via"]}
                if args.cut:
                    cut = client.dyn_cut(sid, mode=args.cut)
                    line["cut"] = cut["value"]
                if mirror is not None:
                    ref = mirror.query_components()
                    match = (cc["n_components"] == ref.n_components
                             and cc["labels"] == [int(x) for x in ref.labels])
                    if args.cut:
                        match &= (line["cut"]
                                  == mirror.query_cut(mode=args.cut).value)
                    line["verified"] = bool(match)
                    failures += not match
                print(json.dumps(line, sort_keys=True), flush=True)
            staleness = client.dyn_staleness(sid)
            staleness.pop("ok", None)
            print(json.dumps({"staleness": staleness}, sort_keys=True))
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            client.dyn_close(sid)
    if failures:
        print(f"error: {failures} queries diverged from the local replay",
              file=sys.stderr)
        return 1
    return 0


def _cmd_analyze_trace(args) -> int:
    """Offline analyzer over a recorded JSON-lines trace."""
    import json

    from repro.bsp.fusion import FusionConfig
    from repro.trace import (
        format_analysis,
        fusion_plan,
        read_jsonl,
    )

    events = read_jsonl(args.trace_file)
    fuse = FusionConfig(max_words=args.max_words, max_chain=args.max_chain)
    if args.plan or args.json:
        plan = fusion_plan(events, fuse=fuse)
        if args.plan:
            with open(args.plan, "w") as fh:
                json.dump(plan, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"fusion plan -> {args.plan}")
        if args.json:
            print(json.dumps(plan, sort_keys=True))
    if not args.json:
        print(format_analysis(events, fuse=fuse, k=args.top))
    return 0


_FAMILIES = ("er", "ws", "ba", "rmat")


def _cmd_generate(args) -> int:
    rng = philox_stream(args.seed)
    n = args.n
    m = args.m if args.m is not None else n * args.degree // 2
    if args.family == "er":
        g = erdos_renyi(n, m, rng, weighted=args.weighted)
    elif args.family == "ws":
        k = args.degree if args.degree % 2 == 0 else args.degree + 1
        g = watts_strogatz(n, k, rng)
    elif args.family == "ba":
        g = barabasi_albert(n, max(1, args.degree // 2), rng)
    else:
        g = rmat(n, m, rng)
    write_edgelist(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Argument parser with the four artifact-style subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="edge-list file (artifact format)")
        sp.add_argument("--procs", "-p", type=int, default=4,
                        help="processors (default 4)")
        sp.add_argument("--seed", type=int, default=0, help="root PRNG seed")
        sp.add_argument("--backend", choices=_BACKENDS, default="sim",
                        help="execution runtime: BSP simulator (sim, "
                             "default) or real OS processes (mp)")
        sp.add_argument("--trace", metavar="PATH", default=None,
                        help="record one trace event per collective per "
                             "group to this JSON-lines file and print a "
                             "per-superstep summary table")
        sp.add_argument("--fuse", action="store_true",
                        help="fuse adjacent compatible collectives into "
                             "one superstep (repro.bsp.fusion); results "
                             "are bit-identical, only latency drops")

    def shrinkable(sp):
        sp.add_argument("--shrink", action="store_true",
                        help="release processors whose edge slice has "
                             "contracted away (group-shrink); results are "
                             "bit-identical")

    sp = sub.add_parser("parallel_cc", help="connected components (§3.2)")
    common(sp)
    shrinkable(sp)
    sp.set_defaults(func=_cmd_parallel_cc)

    sp = sub.add_parser("approx_cut", help="approximate minimum cut (§3.3)")
    common(sp)
    shrinkable(sp)
    sp.add_argument("--pipelined", action="store_true",
                    help="single-CC pipelined schedule (O(1) supersteps)")
    sp.set_defaults(func=_cmd_approx_cut)

    sp = sub.add_parser("square_root", help="exact minimum cut (§4)")
    common(sp)
    sp.add_argument("--success-prob", type=float, default=0.9,
                    help="overall success probability (artifact: 0.9)")
    sp.add_argument("--trials", type=int, default=None,
                    help="override the trial count")
    sp.add_argument("--trial-scale", type=float, default=1.0,
                    help="scale the Theta((n^2/m) log^2 n) trial count")
    sp.add_argument("--variant", choices=VARIANTS, default="default",
                    help="trial pipeline: 'default' dispatches the full "
                         "budget on the input graph; '2out' preprocesses "
                         "with random 2-out contraction replicas and "
                         "recomputes the (much smaller) budget on the "
                         "contracted graphs")
    sp.add_argument("--max-retries", type=int, default=None,
                    help="fault-tolerant scheduler: retries per trial wave "
                         "(giving any scheduler flag engages the scheduler; "
                         "default 2 once engaged)")
    sp.add_argument("--retry-backoff", type=float, default=None,
                    help="scheduler: base retry backoff seconds, doubled "
                         "per attempt with deterministic jitter "
                         "(default 0.05 once engaged)")
    sp.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="scheduler: write the trial ledger to this JSONL "
                         "file after every wave")
    sp.add_argument("--resume", action="store_true",
                    help="scheduler: resume from --checkpoint, re-running "
                         "only trials without a recorded result")
    sp.add_argument("--inject-faults", metavar="PLAN", default=None,
                    help="scheduler: deterministic fault plan — inline "
                         "'kind:rank=R,step=K[,...];...' spec, JSON, or a "
                         "JSON file path (see repro.faults)")
    sp.set_defaults(func=_cmd_square_root)

    sp = sub.add_parser(
        "serve",
        help="run the persistent analytics daemon (repro.serve)")
    sp.add_argument("--bind", required=True,
                    help="unix socket path (contains '/') or host:port "
                         "(':0' picks a free port)")
    sp.add_argument("--state-dir", default="serve-state",
                    help="durable job store directory (the daemon's "
                         "identity across restarts)")
    sp.add_argument("--backend", choices=("sim", "mp", "warm"),
                    default="warm",
                    help="execution runtime; 'warm' (default) keeps the "
                         "mp worker pool and arena slabs alive between "
                         "queries")
    sp.add_argument("--procs", "-p", type=int, default=4,
                    help="default processors per query (default 4)")
    sp.add_argument("--wave-size", type=int, default=8,
                    help="trials per scheduler wave: the interleaving "
                         "granularity between concurrent min-cut jobs and "
                         "the fair queue's round budget")
    sp.add_argument("--cache-edges", type=float, default=50_000_000,
                    help="graph cache capacity in total edges")
    sp.set_defaults(func=_cmd_serve)

    sp = sub.add_parser(
        "query", help="query a running serve daemon (blocking client)")
    sp.add_argument("address", help="daemon address (socket path or "
                                    "host:port)")
    sp.add_argument("algorithm", nargs="?", choices=(
        "parallel_cc", "approx_cut", "square_root"))
    sp.add_argument("input", nargs="?", help="edge-list file")
    sp.add_argument("--procs", "-p", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--client", default="cli", help="fair-queue identity")
    sp.add_argument("--priority", type=float, default=1.0,
                    help="fair-queue weight (higher drains faster; "
                         "never starves others)")
    sp.add_argument("--variant", choices=VARIANTS, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--trial-scale", type=float, default=None)
    sp.add_argument("--success-prob", type=float, default=None)
    sp.add_argument("--no-wait", dest="wait", action="store_false",
                    help="print the job id instead of blocking on the "
                         "result")
    sp.add_argument("--wait-server", type=float, default=None,
                    metavar="SECONDS",
                    help="poll until the daemon answers ping first")
    sp.add_argument("--ping", action="store_true",
                    help="liveness probe only")
    sp.add_argument("--stats", action="store_true",
                    help="print daemon statistics only")
    sp.add_argument("--shutdown", action="store_true",
                    help="ask the daemon to stop gracefully")
    sp.set_defaults(func=_cmd_query)

    sp = sub.add_parser(
        "dynamic",
        help="stream edge updates into a serve daemon's dynamic session "
             "(repro.dynamic)")
    sp.add_argument("address", help="daemon address (socket path or "
                                    "host:port)")
    sp.add_argument("input", help="edge-list file (the epoch-0 graph)")
    sp.add_argument("--procs", "-p", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0,
                    help="keys both the update stream and the session's "
                         "query RNG")
    sp.add_argument("--batches", type=int, default=8,
                    help="update batches to stream (default 8)")
    sp.add_argument("--batch-size", type=int, default=16,
                    help="edge updates per batch (default 16)")
    sp.add_argument("--query-every", type=int, default=1,
                    help="query components every N batches (default 1)")
    sp.add_argument("--cut", choices=("exact", "approx"), default=None,
                    help="also query the minimum cut at each query point")
    sp.add_argument("--verify", action="store_true",
                    help="check every answer bit-for-bit against a local "
                         "replay of the same update stream")
    sp.add_argument("--client", default="cli", help="fair-queue identity")
    sp.add_argument("--wait-server", type=float, default=None,
                    metavar="SECONDS",
                    help="poll until the daemon answers ping first")
    sp.set_defaults(func=_cmd_dynamic)

    sp = sub.add_parser(
        "analyze-trace",
        help="rank heavy supersteps and detect fusible sequences in a "
             "recorded trace (repro.trace.analyze)")
    sp.add_argument("trace_file", help="JSON-lines trace (from --trace)")
    sp.add_argument("--top", type=int, default=10,
                    help="how many heaviest supersteps to list (default 10)")
    sp.add_argument("--max-words", type=int, default=4096,
                    help="fusion config: combined payload cap in words")
    sp.add_argument("--max-chain", type=int, default=16,
                    help="fusion config: max collectives per fused "
                         "superstep")
    sp.add_argument("--json", action="store_true",
                    help="print the fusion plan as JSON instead of the "
                         "report")
    sp.add_argument("--plan", metavar="PATH", default=None,
                    help="also write the fusion plan JSON to this file")
    sp.set_defaults(func=_cmd_analyze_trace)

    sp = sub.add_parser("generate", help="generate a benchmark input graph")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None, help="edge count")
    sp.add_argument("--degree", type=int, default=8,
                    help="average degree when --m is omitted")
    sp.add_argument("--weighted", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_generate)
    return parser


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject out-of-domain numeric options with a usage error (exit 2),
    before any input is read or any process is spawned."""
    for option, value in vars(args).items():
        name = "p" if option == "procs" else option
        if name in FIELD_DOMAINS and value is not None:
            bad = field_error(name, value)
            if bad:
                parser.error(f"--{option.replace('_', '-')} {bad}")
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        parser.error("--resume requires --checkpoint")
    if getattr(args, "variant", None) == "2out":
        if getattr(args, "trials", None) is not None:
            parser.error("--variant 2out recomputes the trial budget from "
                         "the contracted graphs; --trials is not supported")
        if getattr(args, "checkpoint", None) or getattr(args, "resume", False):
            parser.error("--variant 2out does not support --checkpoint/"
                         "--resume: one trial ledger cannot span the "
                         "per-replica dispatches")
    inject = getattr(args, "inject_faults", None)
    if inject:
        from repro.faults import parse_fault_plan

        try:
            parse_fault_plan(inject)
        except ValueError as exc:
            parser.error(f"--inject-faults: {exc}")
    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint:
        d = os.path.dirname(os.path.abspath(checkpoint))
        if not os.path.isdir(d):
            parser.error(f"--checkpoint directory does not exist: {d}")
    if getattr(args, "command", None) == "query":
        probe = args.ping or args.stats or args.shutdown
        if not probe and not (args.algorithm and args.input):
            parser.error("query needs an algorithm and an input file "
                         "(or one of --ping/--stats/--shutdown)")
    trace = getattr(args, "trace", None)
    if trace is not None:
        d = os.path.dirname(os.path.abspath(trace))
        if not os.path.isdir(d):
            parser.error(f"--trace directory does not exist: {d}")
        if not os.access(d, os.W_OK):
            parser.error(f"--trace directory is not writable: {d}")
    if getattr(args, "command", None) == "analyze-trace":
        if not os.path.isfile(args.trace_file):
            parser.error(f"trace file does not exist: {args.trace_file}")
        if args.max_chain < 2:
            parser.error(f"--max-chain must be >= 2, got {args.max_chain}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
