"""The ``repro.serve`` daemon: warm graph analytics for many clients.

One long-lived coordinator process that amortizes everything the
one-shot CLI pays per query:

* a **warm execution backend** — :class:`~repro.runtime.warm.WarmMpBackend`
  keeps worker processes and shared-memory arena slabs alive across
  requests (``backend="sim"`` serves from the in-process simulator, the
  deterministic testbed);
* a **graph cache** (:class:`~repro.serve.cache.GraphCache`) — loaded
  edge lists keyed by content fingerprint; the backend keeps the 2-out
  preprocessing plans built on it (``stats`` reports them as the
  cache's ``derivatives``);
* one shared :class:`~repro.sched.scheduler.TrialScheduler` whose
  ``begin``/``run_wave``/``finish`` seam lets the single executor thread
  interleave *waves* from many concurrent ``square_root`` jobs under
  deficit-fair queuing (:class:`~repro.serve.queue.DeficitFairQueue`) —
  per-trial RNG is keyed by global trial id, so interleaving and
  priorities are pure latency policy and every job's bits match a solo
  :func:`~repro.harness.run_algorithm` call;
* a **durable job store** (:class:`~repro.serve.jobs.JobStore`, one
  append-only journal) and per-wave ledger checkpoints, so a daemon killed
  mid-job and restarted resumes where it stopped, bit-identically.

Threads: one listener (accept loop), one reader per connection (parses
line-JSON requests, answers immediately or blocks on ``result wait``),
and exactly **one executor** that pops job slices off the fair queue and
drives the backend — the backend is single-tenant by construction, so
serialization here is correctness, not a bottleneck.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass

from repro.harness.experiment import run_algorithm
from repro.runtime.base import Backend, resolve_backend
from repro.sched.ledger import encode_side
from repro.sched.scheduler import TrialRun, TrialScheduler
from repro.serve.cache import FingerprintMismatch, GraphCache
from repro.serve.dynamic import DynamicSessionManager
from repro.serve.jobs import Job, JobStore
from repro.serve.protocol import (
    DYNAMIC_ALGORITHMS,
    MAX_REQUEST_LINE,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    dyn_result_doc,
    encode_line,
    error_doc,
    ok_doc,
    parse,
    result_doc,
)
from repro.serve.queue import DeficitFairQueue

__all__ = ["ServeConfig", "Daemon"]

logger = logging.getLogger(__name__)


class _Refused(Exception):
    """A request refused with a typed error other than ``ProtocolError``."""

    def __init__(self, error: str, exc: Exception):
        super().__init__(str(exc))
        self.error = error


@dataclass
class ServeConfig:
    """Daemon configuration.

    ``bind`` is a unix socket path (anything containing a path
    separator, e.g. ``/tmp/repro.sock``) or a ``host:port`` TCP
    endpoint (``:0`` picks a free port).  ``state_dir`` holds the job
    store; it is the daemon's identity across restarts.  ``backend`` is
    ``"warm"`` (persistent mp worker pool), ``"sim"``, ``"mp"``, or a
    ready :class:`~repro.runtime.base.Backend`.  ``wave_size`` slices
    ``square_root`` trial budgets so concurrent jobs interleave at wave
    granularity; it is also the fair-queue round budget in trial units,
    so every round can dispatch a wave.
    """

    bind: str = ""
    state_dir: str = "serve-state"
    backend: "str | Backend" = "sim"
    p: int = 4
    wave_size: int = 8
    cache_edges: float = 50_000_000
    max_retries: int = 2
    backoff_s: float = 0.05


class Daemon:
    """The serve coordinator (module docstring has the architecture)."""

    def __init__(self, config: ServeConfig):
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.store = JobStore(config.state_dir)
        self.backend = (config.backend if isinstance(config.backend, Backend)
                        else resolve_backend(config.backend))
        self.cache = GraphCache(capacity_edges=config.cache_edges)
        self.queue = DeficitFairQueue(quantum=float(config.wave_size))
        self.scheduler = TrialScheduler(
            max_retries=config.max_retries, backoff_s=config.backoff_s,
            wave_size=config.wave_size,
        )
        self.jobs: dict[str, Job] = {}
        self._runs: dict[str, TrialRun] = {}   # open square_root states
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)  # job state changes
        self._work = threading.Condition()          # queue became non-empty
        self._stopping = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self.address: str | None = None
        self.started_at = time.time()
        # Dynamic sessions must exist before job resume: a persisted
        # dyn_* job references its session, which replays its update
        # log here (bit-identical by determinism of the update stream).
        self.dynamic = DynamicSessionManager(config.state_dir)
        self.dynamic.resume_all(
            lambda path, fp: self.cache.load(path, expected_fp=fp)[0],
            backend=self.backend)
        self._resume_persisted_jobs()

    # -- restart resume ------------------------------------------------------

    def _resume_persisted_jobs(self) -> None:
        """Load the job store; requeue everything non-terminal.

        A job found ``running`` was in flight when the previous daemon
        died.  Its ledger checkpoint (written after every wave) carries
        the completed trials; re-queuing it re-enters the scheduler with
        ``resume=True``, which replays only the missing waves — the
        fold over the full ledger is bit-identical to an uninterrupted
        run.
        """
        for job in self.store.load_all():
            self.jobs[job.id] = job
            if job.terminal:
                continue
            if job.state == "running":
                job.state = "queued"
                self.store.save(job)
            self._enqueue(job)
            logger.info("resumed job %s (%s, %d/%d waves done)",
                        job.id, job.algorithm, job.waves_done,
                        job.waves_total)

    # -- queue plumbing ------------------------------------------------------

    def _enqueue(self, job: Job, cost: float = 1.0) -> None:
        self.queue.push(job.client, job.id, cost=cost, weight=job.priority)
        with self._work:
            self._work.notify()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        """Bind, spawn listener + executor threads; returns the address."""
        bind = self.config.bind
        if os.sep in bind or bind.startswith("."):
            if os.path.exists(bind):
                os.unlink(bind)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(bind)
            self.address = bind
        else:
            host, _, port = bind.rpartition(":")
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host or "127.0.0.1", int(port or 0)))
            self.address = "%s:%d" % sock.getsockname()[:2]
        sock.listen(64)
        sock.settimeout(0.2)  # how often the accept loop polls _stopping
        self._listener = sock
        for name, fn in (("serve-accept", self._accept_loop),
                         ("serve-exec", self._executor_loop)):
            t = threading.Thread(target=fn, name=name, daemon=True)
            t.start()
            self._threads.append(t)
        logger.info("serving on %s (backend=%s, state=%s)",
                    self.address, self.backend.name, self.config.state_dir)
        return self.address

    def stop(self) -> None:
        """Graceful shutdown: drain nothing, persist everything, close.

        Safe from any thread; a concurrent caller blocks until shutdown
        has *completed* (not merely begun) — the serve CLI relies on
        this to keep the process alive while a connection thread's
        ``shutdown`` op is still closing the backend.
        """
        with self._stop_lock:
            if self._stopped.is_set():
                return
            try:
                self._stop()
            finally:
                self._stopped.set()

    def _stop(self) -> None:
        self._stopping.set()
        with self._work:
            self._work.notify_all()
        with self._cv:
            self._cv.notify_all()
        if self._listener is not None:
            self._listener.close()
        for conn in list(self._conns):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for t in self._threads:
            t.join(timeout=10.0)
        with self._lock:
            for job in self.jobs.values():
                if not job.terminal and job.state != "queued":
                    job.state = "queued"   # resumable on restart
                    self.store.save(job)   # every other record is current
        self.store.close()
        self.cache.close()
        # The backend holds every graph-plane pin (its retention window),
        # so closing it leaves /dev/shm empty.
        self.backend.close()
        addr = self.address
        if addr and os.sep in addr and os.path.exists(addr):
            os.unlink(addr)
        logger.info("daemon stopped")

    def __enter__(self) -> "Daemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- network threads -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._conns.add(conn)
            t = threading.Thread(target=self._serve_conn, args=(conn,),
                                 name="serve-conn", daemon=True)
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            with conn.makefile("rwb") as fh:
                for line in iter(lambda: fh.readline(MAX_REQUEST_LINE + 1),
                                 b""):
                    if len(line) > MAX_REQUEST_LINE:
                        fh.write(encode_line(error_doc(
                            "ProtocolError", "request line over "
                            f"{MAX_REQUEST_LINE} bytes; closing")))
                        return
                    if not line.strip():
                        continue
                    req = {}
                    try:
                        req = decode_line(line)
                    except ProtocolError as exc:
                        reply = error_doc("ProtocolError", str(exc))
                    else:
                        reply = self.handle_request(req)
                    fh.write(encode_line(reply))
                    fh.flush()
                    if req.get("op") == "shutdown" and reply.get("ok"):
                        self.stop()
                        return
        except (OSError, ValueError):
            pass
        finally:
            self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # -- request handlers ----------------------------------------------------

    def handle_request(self, req: dict) -> dict:
        """Answer one request document; never raises (see the protocol).
        Handlers get the arguments :func:`parse` makes of it."""
        try:
            op = req.get("op")
            args = parse(op, req, {"p": self.config.p})
            return getattr(self, f"_op_{op}")(args)
        except ProtocolError as exc:
            return error_doc("ProtocolError", str(exc))
        except _Refused as exc:
            return error_doc(exc.error, str(exc))
        except Exception as exc:  # never kill the connection
            logger.exception("request failed")
            return error_doc(type(exc).__name__, str(exc))

    def _op_ping(self, args: dict) -> dict:
        return ok_doc(version=PROTOCOL_VERSION, backend=self.backend.name,
                      uptime_s=time.time() - self.started_at)

    def _op_shutdown(self, args: dict) -> dict:
        return ok_doc(stopping=True)

    def _load_graph(self, args: dict):
        """``(graph, fingerprint)`` of the request's graph file, through
        the cache; a ``fingerprint`` sent must match."""
        try:
            return self.cache.load(args["path"],
                                   expected_fp=args["fingerprint"])
        except FingerprintMismatch as exc:
            raise _Refused("FingerprintMismatch", exc) from exc
        except OSError as exc:
            raise _Refused("GraphUnreadable", exc) from exc

    def _op_submit(self, args: dict) -> dict:
        _g, fp = self._load_graph(args)
        job = Job(
            id=self.store.new_id(), client=args["client"],
            algorithm=args["algorithm"], path=args["path"], fingerprint=fp,
            seed=args["seed"], p=args["p"],
            priority=args["priority"], kwargs=args["kwargs"],
        )
        with self._lock:
            self.jobs[job.id] = job
        self.store.save(job)
        self._enqueue(job)
        return ok_doc(job=job.id, fingerprint=fp)

    def _get_job(self, args: dict) -> Job:
        with self._lock:
            job = self.jobs.get(args["job"])
        if job is None:
            raise ProtocolError(f"unknown job {args['job']!r}")
        return job

    def _op_status(self, args: dict) -> dict:
        return ok_doc(**self._get_job(args).status_doc())

    def _op_result(self, args: dict) -> dict:
        job = self._get_job(args)
        if args["wait"]:
            deadline = (None if args["timeout"] is None
                        else time.monotonic() + args["timeout"])
            with self._cv:
                while not job.terminal and not self._stopping.is_set():
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        break
                    self._cv.wait(remaining if remaining is not None
                                  else 0.5)
        if job.state == "done":
            return ok_doc(job=job.id, state=job.state, result=job.result)
        if job.state == "failed":
            return error_doc(job.error_type or "JobFailed",
                             job.error or "job failed")
        if job.state == "cancelled":
            return error_doc("JobCancelled", f"job {job.id} was cancelled")
        return ok_doc(job=job.id, state=job.state, result=None)

    def _op_cancel(self, args: dict) -> dict:
        job = self._get_job(args)
        with self._cv:
            if job.terminal:
                return ok_doc(job=job.id, state=job.state)
            job.state = "cancelled"
            job.finished_at = time.time()
            self._cv.notify_all()
        self._runs.pop(job.id, None)
        self.queue.drop_items(lambda jid: jid == job.id)
        self.store.save(job)
        return ok_doc(job=job.id, state="cancelled")

    def _op_stats(self, args: dict) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        from repro.graph.shm import plane_stats

        return ok_doc(
            uptime_s=time.time() - self.started_at,
            backend=self.backend.name,
            pool_spawns=getattr(self.backend, "pool_spawns", None),
            jobs=states,
            cache=dict(self.cache.stats(),
                       derivatives=self.backend.plans.stats()),
            queue=self.queue.stats(),
            graph_plane=plane_stats(),
            dynamic=self.dynamic.stats(),
            store=self.store.stats(),
        )

    # -- dynamic sessions ----------------------------------------------------

    def _op_dyn_open(self, args: dict) -> dict:
        g, fp = self._load_graph(args)
        session = self.dynamic.open(
            g, path=args["path"], fingerprint=fp, seed=args["seed"],
            p=args["p"], backend=self.backend, **args["kwargs"])
        return ok_doc(session=session.id, epoch=0, fingerprint=fp)

    def _get_session(self, args: dict):
        session = self.dynamic.get(args["session"])
        if session is None:
            raise ProtocolError(
                f"unknown dynamic session {args['session']!r}")
        return session

    def _op_dyn_update(self, args: dict) -> dict:
        session = self._get_session(args)
        try:
            staleness = session.update(args["ops"])
        except (KeyError, ValueError) as exc:
            return error_doc("BadUpdate", str(exc))
        return ok_doc(session=session.id, **staleness)

    def _op_dyn_staleness(self, args: dict) -> dict:
        session = self._get_session(args)
        return ok_doc(session=session.id, **session.dyn.staleness())

    def _op_dyn_query(self, args: dict) -> dict:
        session = self._get_session(args)
        # The job pins the session's epoch at submit; the executor
        # compares it against the live epoch at dispatch.  The stored
        # fingerprint pins the session's *base* graph — the epoch
        # integer is the version pin (forcing the epoch's content
        # fingerprint here would cost an O(m) snapshot per submit).
        job = Job(
            id=self.store.new_id(), client=args["client"],
            algorithm=("dyn_components" if args["query"] == "components"
                       else "dyn_cut"),
            path=session.doc["path"],
            fingerprint=session.doc["fingerprint"],
            seed=session.dyn.seed, p=session.dyn.p,
            priority=args["priority"],
            kwargs={"session": session.id, "epoch": session.dyn.epoch,
                    "mode": args["mode"], "if_stale": args["if_stale"]},
        )
        with self._lock:
            self.jobs[job.id] = job
        self.store.save(job)
        self._enqueue(job)
        return ok_doc(job=job.id, session=session.id,
                      epoch=session.dyn.epoch)

    def _op_dyn_close(self, args: dict) -> dict:
        closed = self.dynamic.close(args["session"], discard=args["discard"])
        return ok_doc(session=args["session"], closed=closed)

    # -- executor ------------------------------------------------------------

    def _executor_loop(self) -> None:
        while not self._stopping.is_set():
            popped = self.queue.pop()
            if popped is None:
                # On the predicate: a submit between the empty pop and
                # this wait has already notified.
                with self._work:
                    self._work.wait_for(
                        lambda: len(self.queue) or self._stopping.is_set(),
                        timeout=0.2)
                continue
            _, job_id = popped
            with self._lock:
                job = self.jobs.get(job_id)
            if job is None or job.terminal:
                continue
            try:
                self._run_slice(job)
            except Exception as exc:
                logger.exception("job %s failed", job.id)
                self._runs.pop(job.id, None)
                self._finish_job(job, error=f"{type(exc).__name__}: {exc}")

    def _graph_for(self, job: Job):
        g = self.cache.get_graph(job.fingerprint)
        if g is None:  # evicted; reload and re-check the identity
            g, _ = self.cache.load(job.path, expected_fp=job.fingerprint)
        return g

    def _run_slice(self, job: Job) -> None:
        """Execute one fair-queue slice of ``job`` on the executor thread."""
        with self._cv:
            if job.state == "cancelled":
                return
            job.state = "running"
        if job.algorithm in DYNAMIC_ALGORITHMS:
            self._run_dynamic(job)
        elif (job.algorithm == "square_root"
                and job.kwargs.get("variant", "default") == "default"
                and "trials" not in job.kwargs
                and not job.kwargs.get("preprocess")):
            self._run_wave_slice(job)
        else:
            self._run_single_shot(job)

    def _run_wave_slice(self, job: Job) -> None:
        """One trial wave of a scheduled min-cut job, then yield the CPU."""
        run = self._runs.get(job.id)
        if run is None:
            g = self._graph_for(job)
            ledger = self.store.ledger_path(job.id)
            run = self.scheduler.begin(
                g, job.p, backend=self.backend, seed=job.seed,
                checkpoint=ledger,
                resume=os.path.exists(ledger),
                **{k: float(job.kwargs[k])
                   for k in ("success_prob", "trial_scale")
                   if k in job.kwargs},
            )
            self._runs[job.id] = run
            # On resume the planned waves cover only the pending trials;
            # waves finished before the restart stay counted.
            job.waves_total = job.waves_done + len(run.waves)
            self.store.save(job)
            # Enqueue the remaining waves as individual slices now that
            # the plan is known: the fair queue sees the job's true
            # backlog, so per-round deficits bound every client's share
            # (one slice at a time would collapse DRR to round-robin —
            # an emptied queue forfeits its deficit).
            for w in range(1, len(run.waves)):
                self._enqueue(job, cost=float(len(run.waves[w])))
        if run.step():
            job.waves_done += 1
        self.store.save(job)
        with self._cv:
            cancelled = job.state == "cancelled"
        if cancelled:
            self._runs.pop(job.id, None)
            return
        if not run.done:
            return
        sres = self.scheduler.finish(run)
        self._runs.pop(job.id, None)
        doc = {
            "algorithm": job.algorithm,
            "value": float(sres.value),
            "side": (None if sres.side is None else
                     encode_side(sres.side)),
            "trials": int(sres.trials),
            "achieved_success_prob": float(sres.achieved_success_prob),
            "variant": "default",
            "completed": int(sres.completed),
            "dispatches": int(sres.dispatches),
            "ledger_fingerprint": sres.ledger.fingerprint(),
        }
        self._finish_job(job, result=doc)

    def _run_dynamic(self, job: Job) -> None:
        """One dynamic-session query on the executor thread.

        The job pinned the session's epoch at submit.  If updates
        advanced the epoch before this dispatch, the pinned answer no
        longer describes the live graph: ``if_stale="reject"`` fails the
        job with the typed ``StaleEpoch`` error, ``"requeue"`` re-pins
        it to the latest epoch (the result doc then carries
        ``repinned_from_epoch`` so the client knows what it got).
        """
        sid = job.kwargs["session"]
        session = self.dynamic.get(sid)
        if session is None:
            self._finish_job(job, error=f"dynamic session {sid!r} is gone",
                             error_type="SessionClosed")
            return
        pinned = job.kwargs["epoch"]
        repinned_from = None
        with session.lock:
            live = session.dyn.epoch
            if live != pinned:
                if job.kwargs["if_stale"] == "reject":
                    self._finish_job(
                        job,
                        error=(f"epoch advanced {pinned} -> {live} between "
                               f"submit and dispatch"),
                        error_type="StaleEpoch")
                    return
                repinned_from = pinned
                job.kwargs["epoch"] = live
                self.store.save(job)
            if job.algorithm == "dyn_components":
                result = session.dyn.query_components()
            else:
                result = session.dyn.query_cut(mode=job.kwargs["mode"])
        doc = dyn_result_doc(result)
        doc["session"] = session.id
        if repinned_from is not None:
            doc["repinned_from_epoch"] = repinned_from
        job.waves_total = job.waves_done = 1
        self._finish_job(job, result=doc)

    def _run_single_shot(self, job: Job) -> None:
        """cc / approx / 2-out / fixed-trials jobs: one dispatch, one slice.

        A 2-out job replays its plan from the backend's store on a repeat.
        """
        result = run_algorithm(job.algorithm, self._graph_for(job), p=job.p,
                               seed=job.seed, backend=self.backend,
                               **job.kwargs)
        job.waves_total = job.waves_done = 1
        self._finish_job(job, result=result_doc(job.algorithm, result))

    def _finish_job(self, job: Job, result: dict | None = None,
                    error: str | None = None,
                    error_type: str | None = None) -> None:
        with self._cv:
            if job.state == "cancelled":
                self._cv.notify_all()
            else:
                job.state = "failed" if error is not None else "done"
                job.result = result
                job.error = error
                job.error_type = error_type
                job.finished_at = time.time()
                self._cv.notify_all()
        self.store.save(job)
