"""Artifact-style command-line interface.

The published artifact ships three executables — ``parallel_cc``,
``approx_cut`` and ``square_root`` (the exact minimum cut) — that read an
edge-list file and print a profiling CSV line per execution (Listing 1 of
the artifact appendix: input, seed, vertex/edge counts, execution and MPI
time, parallelism, algorithm tag, and the result).  This module mirrors
them as subcommands, plus ``generate`` for the artifact's input generators.

An algorithm's flags are the fields the serve daemon's ``submit`` takes
for it (``repro.core.trials.FIELDS``): the same names, domains and help
on its subcommand and on ``query``.  A flag not given is not passed on,
so the algorithm's own default applies.  ``--backend mp`` runs on
``--procs`` real OS processes and reports measured wall-clock times; the
result is the simulator's, bit for bit.

Usage::

    python -m repro.cli generate --family er --n 1000 --degree 8 \\
        --seed 1 --out g.txt
    python -m repro.cli parallel_cc g.txt --procs 8 --seed 1 --eps 0.5
    python -m repro.cli approx_cut g.txt --procs 4 --backend mp --pipelined
    python -m repro.cli square_root g.txt --procs 8 --trial-scale 0.1
    python -m repro.cli square_root g.txt --procs 8 --variant 2out
    python -m repro.cli square_root g.txt --procs 4 --backend mp \\
        --max-retries 3 --checkpoint ledger.jsonl \\
        --inject-faults crash:rank=1,step=1

Any scheduler flag (the last form) dispatches the exact cut's trials
through the fault-tolerant scheduler (``repro.sched``) and prints the
achieved success probability; ``--variant 2out`` (``repro.core.two_out``)
prints a ``two_out:`` summary line.

``serve`` runs the persistent analytics daemon (``repro.serve``), which
keeps workers, arena slabs and graphs warm across queries.  ``query`` is
its blocking client, at the daemon's ``--procs`` unless given its own;
``dynamic`` streams an edge-update workload into a daemon's dynamic-graph
session (``repro.dynamic``), ``--verify`` checking every answer against a
local replay::

    python -m repro.cli serve --bind /tmp/repro.sock --state-dir state &
    python -m repro.cli query /tmp/repro.sock square_root g.txt \\
        --seed 1 --wait-server 10
    python -m repro.cli dynamic /tmp/repro.sock g.txt --cut exact --verify
    python -m repro.cli query /tmp/repro.sock --shutdown

``--trace PATH`` records a per-superstep JSON-lines trace;
``analyze-trace`` ranks its heaviest supersteps under the machine model
and plans which adjacent collectives ``--fuse`` would merge::

    python -m repro.cli parallel_cc g.txt --procs 8 --trace t.jsonl --shrink
    python -m repro.cli analyze-trace t.jsonl --top 5 --plan plan.json
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.trials import (
    ALGORITHM_FIELDS,
    ALGORITHMS,
    FIELD_DOMAINS,
    FIELDS,
    field_error,
    fields_conflict,
)

__all__ = ["main", "build_parser"]

#: Per algorithm: its subcommand's help, the profile line's tag and its
#: result column.
_PROFILES = {
    "parallel_cc": ("connected components (§3.2)", "cc",
                    lambda res: res.n_components),
    "approx_cut": ("approximate minimum cut (§3.3)", "approx_cut",
                   lambda res: f"{res.estimate:g}"),
    "square_root": ("exact minimum cut (§4)", "square_root",
                    lambda res: f"{res.value:g}"),
}


def _usage_error(what: str, reason) -> None:
    """A one-line usage error (exit 2), not a traceback."""
    print(f"repro: error: {what}: " + " ".join(str(reason).split()),
          file=sys.stderr)
    raise SystemExit(2) from None


def _read_graph(path: str):
    """``read_edgelist``, with an unreadable or malformed file a usage error
    naming the file and the reason."""
    from repro.graph import read_edgelist

    try:
        return read_edgelist(path)
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot read graph file {path}",
                     getattr(exc, "strerror", None) or exc)


def _given(args, names) -> dict:
    """The options among ``names`` given on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _backend_spec(args):
    """The entry point's ``backend=``: the name, or a backend resolved with
    ``--trace``'s :class:`~repro.trace.RecordingTracer` and ``--fuse``."""
    if not args.trace and not args.fuse:
        return args.backend
    from repro.runtime.base import resolve_backend
    from repro.trace import RecordingTracer

    return resolve_backend(args.backend, fuse=args.fuse or None,
                           tracer=RecordingTracer() if args.trace else None)


def _scheduler_spec(args):
    """A :class:`~repro.sched.TrialScheduler` when any scheduling flag was
    given (its own defaults for the rest), else None (one dispatch)."""
    if not (args.max_retries is not None or args.retry_backoff is not None
            or args.checkpoint or args.resume or args.inject_faults):
        return None
    from repro.faults import parse_fault_plan
    from repro.sched import TrialScheduler

    given = _given(args, ("max_retries", "retry_backoff"))
    if "retry_backoff" in given:
        given["backoff_s"] = given.pop("retry_backoff")
    return TrialScheduler(
        checkpoint=args.checkpoint or None, **given,
        fault_plan=(parse_fault_plan(args.inject_faults)
                    if args.inject_faults else None))


def _cmd_algorithm(args) -> int:
    """One artifact executable: run the algorithm, print its profile line."""
    import inspect

    from repro.core import minimum_cut
    from repro.harness.experiment import run_algorithm

    g = _read_graph(args.input)
    kwargs = _given(args, (*FIELDS, "resume"))
    scheduler = (_scheduler_spec(args) if args.algorithm == "square_root"
                 else None)
    res = run_algorithm(args.algorithm, g, p=args.p, seed=args.seed,
                        backend=_backend_spec(args), scheduler=scheduler,
                        **kwargs)
    _, tag, column = _PROFILES[args.algorithm]
    print(",".join(str(x) for x in (
        args.input, args.seed, args.p, g.n, g.m, f"{res.time.total_s:.6f}",
        f"{res.time.mpi_s:.6f}", tag, column(res))))
    if args.algorithm == "square_root":
        # the requested probability: as given, else the entry point's
        requested = args.success_prob or inspect.signature(
            minimum_cut).parameters["success_prob"].default
        if args.variant == "2out":
            s = res.two_out
            path = ("degraded to the default pipeline" if s.degraded else
                    f"{s.total_trials} trials over {s.replicas} replicas")
            # The degraded fallback runs the default pipeline without a
            # per-trial ledger, so it reports no achieved probability.
            achieved = ("n/a" if res.achieved_success_prob is None else
                        f"{res.achieved_success_prob:.6f}")
            print(f"two_out: {path}, default budget {s.default_trials}, "
                  f"reduction {s.reduction:.2f}x, achieved success "
                  f"probability {achieved} (requested {requested:g})")
        if scheduler is not None and res.ledger is not None:
            print(f"scheduler: {res.ledger.completed}/{res.trials} trials "
                  f"completed, achieved success probability "
                  f"{res.achieved_success_prob:.6f} (requested "
                  f"{requested:g})")
    if args.trace:
        from repro.trace import format_summary, write_jsonl

        count = write_jsonl(res.trace, args.trace)
        print(f"trace: {count} events -> {args.trace}")
        print(format_summary(res.trace))
    return 0


def _cmd_serve(args) -> int:
    """Run the ``repro.serve`` daemon until interrupted or shut down."""
    import signal

    from repro.serve import Daemon, ServeConfig

    daemon = Daemon(ServeConfig(
        bind=args.bind, state_dir=args.state_dir, backend=args.backend,
        p=args.p, wave_size=args.wave_size, cache_edges=args.cache_edges))
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
        if args.ping or args.stats:
            doc = client.ping() if args.ping else client.stats()
            print(json.dumps(doc, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("daemon shutting down")
            return 0
        try:
            # p only when given: the daemon's own --procs is the default
            job = client.submit(
                args.algorithm, os.path.abspath(args.input), seed=args.seed,
                p=args.p, **_given(args, FIELDS))
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
    mirror = (DynamicGraph(g, p=args.p, seed=args.seed, backend="sim")
              if args.verify else None)
    failures = 0
    with Client(args.address, client=args.client) as client:
        # p is always sent: the --verify replay runs at the same p
        sid = client.dyn_open(os.path.abspath(args.input), seed=args.seed,
                              p=args.p)
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
                    line["cut"] = client.dyn_cut(sid, mode=args.cut)["value"]
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
    from repro.trace import format_analysis, fusion_plan, read_jsonl

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


def _cmd_generate(args) -> int:
    from repro import graph
    from repro.rng import philox_stream

    rng, n, degree = philox_stream(args.seed), args.n, args.degree
    m = args.m if args.m is not None else n * degree // 2
    try:
        if args.family == "er":
            g = graph.erdos_renyi(n, m, rng, weighted=args.weighted)
        elif args.family == "ws":
            g = graph.watts_strogatz(n, degree + degree % 2, rng)
        elif args.family == "ba":
            g = graph.barabasi_albert(n, max(1, degree // 2), rng)
        else:
            g = graph.rmat(n, m, rng)
    except ValueError as exc:
        _usage_error(f"cannot generate a {args.family} graph", exc)
    graph.write_edgelist(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


class _InDomain(argparse.Action):
    """Store the value; one outside its ``FIELD_DOMAINS`` domain exits 2."""

    def __call__(self, parser, namespace, value, option_string=None):
        bad = field_error(self.dest, value)
        if bad:
            parser.error(f"{self.option_strings[0]} {bad}")
        setattr(namespace, self.dest, value)


def _flag(name: str) -> str:
    return "--procs" if name == "p" else "--" + name.replace("_", "-")


_ADDRESS = {"help": "daemon address (socket path or host:port)"}

#: Every option, declared once: name -> ``add_argument`` keywords.  The
#: flag is ``--name`` (``--procs``/``-p`` for ``p``); each subcommand
#: lists the names it takes.  An option named after a ``FIELD_DOMAINS``
#: field is checked against its domain as it is parsed.
_OPTIONS = {
    "p": dict(type=int, default=4, help="processors (default 4)"),
    "seed": dict(type=int, default=0, help="root PRNG seed"),
    "backend": dict(choices=("sim", "mp"), default="sim",
                    help="runtime: the BSP simulator or real OS processes"),
    "trace": dict(metavar="PATH", help="write a per-superstep JSON-lines "
                                       "trace here and print its summary"),
    "fuse": dict(action="store_true",
                 help="fuse adjacent compatible collectives into one "
                      "superstep (repro.bsp.fusion); bit-identical results"),
    # the algorithm fields: one flag each, None (not passed on) unless given
    **{name: (dict(action="store_true", default=None, help=help_)
              if FIELD_DOMAINS[name][0] == (bool,) else
              dict(type=FIELD_DOMAINS[name][0][-1], help=help_))
       for name, (_, help_) in FIELDS.items()},
    "max_retries": dict(type=int, help="fault-tolerant scheduler (any of "
                                       "its flags engages it): retries per "
                                       "trial wave"),
    "retry_backoff": dict(type=float, help="scheduler: base retry backoff "
                                           "seconds, doubled per attempt"),
    "checkpoint": dict(metavar="PATH", help="scheduler: write the trial "
                                            "ledger here after every wave"),
    "resume": dict(action="store_true", default=None,
                   help="scheduler: re-run only trials --checkpoint lacks"),
    "inject_faults": dict(metavar="PLAN",
                          help="scheduler: deterministic fault plan, inline "
                               "('kind:rank=R,step=K[,...];...'), JSON or a "
                               "JSON file (see repro.faults)"),
    "bind": dict(required=True, help="unix socket path (contains '/') or "
                                     "host:port (':0' picks a free port)"),
    "state_dir": dict(default="serve-state", help="durable job store (the "
                                                  "daemon's identity)"),
    "wave_size": dict(type=int, default=8,
                      help="trials per scheduler wave: the interleaving and "
                           "fair-queue granularity of min-cut jobs"),
    "cache_edges": dict(type=float, default=50_000_000,
                        help="graph cache capacity in total edges"),
    "client": dict(default="cli", help="fair-queue identity"),
    "priority": dict(type=float, default=1.0, help="fair-queue weight "
                                                   "(higher drains faster)"),
    "no_wait": dict(dest="wait", action="store_false",
                    help="print the job id instead of the result"),
    "wait_server": dict(type=float, metavar="SECONDS",
                        help="poll until the daemon answers ping first"),
    "ping": dict(action="store_true", help="liveness probe only"),
    "stats": dict(action="store_true", help="print daemon statistics only"),
    "shutdown": dict(action="store_true",
                     help="ask the daemon to stop gracefully"),
    "batches": dict(type=int, default=8,
                    help="update batches to stream (default 8)"),
    "batch_size": dict(type=int, default=16,
                       help="edge updates per batch (default 16)"),
    "query_every": dict(type=int, default=1,
                        help="query components every N batches (default 1)"),
    "cut": dict(choices=("exact", "approx"),
                help="also query the minimum cut at each query point"),
    "verify": dict(action="store_true", help="check every answer bit for "
                                             "bit against a local replay"),
    "top": dict(type=int, default=10,
                help="how many heaviest supersteps to list (default 10)"),
    "max_words": dict(type=int, default=4096,
                      help="fusion config: combined payload cap in words"),
    "max_chain": dict(type=int, default=16, help="fusion config: max "
                                                 "collectives per superstep"),
    "json": dict(action="store_true",
                 help="print the fusion plan as JSON instead of the report"),
    "plan": dict(metavar="PATH",
                 help="also write the fusion plan JSON to this file"),
    "family": dict(choices=("er", "ws", "ba", "rmat"), required=True),
    "n": dict(type=int, required=True),
    "m": dict(type=int, help="edge count"),
    "degree": dict(type=int, default=8,
                   help="average degree when --m is omitted"),
    "weighted": dict(action="store_true"),
    "out": dict(required=True),
}

#: Each subcommand: help, command, positionals (name -> keywords) and
#: options (a name, or a name with keywords overriding its declaration).
_SUBCOMMANDS = {
    **{a: (help_, _cmd_algorithm,
           {"input": dict(help="edge-list file (artifact format)")},
           ("p", "seed", "backend", "trace", "fuse") + ALGORITHM_FIELDS[a]
           + (("max_retries", "retry_backoff", "checkpoint", "resume",
               "inject_faults") if a == "square_root" else ()))
       for a, (help_, _, _) in _PROFILES.items()},
    "serve": ("run the persistent analytics daemon (repro.serve)", _cmd_serve,
              {}, ("bind", "state_dir", ("backend", dict(
                  choices=("sim", "mp", "warm"), default="warm",
                  help="execution runtime; 'warm' (default) keeps the mp "
                       "worker pool and arena slabs alive between queries")),
                   ("p", dict(help="default processors per query "
                                   "(default 4)")),
                   "wave_size", "cache_edges")),
    "query": ("query a running serve daemon (blocking client)", _cmd_query,
              {"address": _ADDRESS,
               "algorithm": dict(nargs="?", choices=ALGORITHMS),
               "input": dict(nargs="?", help="edge-list file")},
              (("p", dict(default=None,
                          help="processors (default: the daemon's)")),
               "seed", "client", "priority", *FIELDS, "no_wait",
               "wait_server", "ping", "stats", "shutdown")),
    "dynamic": ("stream edge updates into a serve daemon's dynamic session "
                "(repro.dynamic)", _cmd_dynamic,
                {"address": _ADDRESS,
                 "input": dict(help="edge-list file (the epoch-0 graph)")},
                ("p", ("seed", dict(help="keys both the update stream and "
                                         "the session's query RNG")),
                 "batches", "batch_size", "query_every", "cut", "verify",
                 "client", "wait_server")),
    "analyze-trace": ("rank heavy supersteps and detect fusible sequences in "
                      "a recorded trace (repro.trace.analyze)",
                      _cmd_analyze_trace,
                      {"trace_file": dict(help="JSON-lines trace (from "
                                               "--trace)")},
                      ("top", "max_words", "max_chain", "json", "plan")),
    "generate": ("generate a benchmark input graph", _cmd_generate, {},
                 ("family", "n", "m", "degree", "weighted", "seed", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser with the artifact-style subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, func, positionals, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        sp.set_defaults(func=func)
        if func is _cmd_algorithm:
            sp.set_defaults(algorithm=command)
        for name, kw in positionals.items():
            sp.add_argument(name, **kw)
        for option in options:
            name, over = (option, {}) if isinstance(option, str) else option
            kw = {"dest": name, **_OPTIONS[name], **over}
            if kw["dest"] in FIELD_DOMAINS and "action" not in kw:
                kw["action"] = _InDomain
            aliases = ("-p",) if name == "p" else ()
            sp.add_argument(_flag(name), *aliases, **kw)
    return parser


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """The checks parsing cannot make, each a usage error (exit 2) before
    any input is read or any process is spawned."""
    fields = _given(args, FIELDS)
    bad = (fields and args.algorithm
           and fields_conflict(args.algorithm, fields, _flag))
    if bad:
        parser.error(bad)
    if getattr(args, "resume", False) and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    if fields.get("variant") == "2out" and getattr(args, "checkpoint", None):
        parser.error("--variant 2out does not support --checkpoint/--resume: "
                     "one trial ledger cannot span the per-replica "
                     "dispatches")
    if getattr(args, "inject_faults", None):
        from repro.faults import parse_fault_plan

        try:
            parse_fault_plan(args.inject_faults)
        except ValueError as exc:
            parser.error(f"--inject-faults: {exc}")
    for option in ("checkpoint", "trace"):
        path = getattr(args, option, None)
        d = path and os.path.dirname(os.path.abspath(path))
        if path and not os.path.isdir(d):
            parser.error(f"--{option} directory does not exist: {d}")
        if path and not os.access(d, os.W_OK):
            parser.error(f"--{option} directory is not writable: {d}")
    if args.command == "query" and not (
            args.ping or args.stats or args.shutdown
            or (args.algorithm and args.input)):
        parser.error("query needs an algorithm and an input file "
                     "(or one of --ping/--stats/--shutdown)")
    if args.command == "analyze-trace" and not os.path.isfile(args.trace_file):
        parser.error(f"trace file does not exist: {args.trace_file}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
