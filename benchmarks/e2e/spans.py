"""Benchmark-side spans: time calls into each layer from outside.

Nothing under ``src/`` knows about spans.  :func:`patched` wraps the
public callables named in :data:`TARGETS` by rebinding every ``repro.*``
module attribute that *is* the original object (call sites use
``from repro.kernels import ...``, so each importing module holds its own
reference) and every class attribute for methods, and restores all of
them on exit.  A span is ``(name, layer, start, end, parent, request_id,
note)``; spans live in memory and are written as JSON lines only when the
run ends (:meth:`SpanRecorder.write_jsonl`).

A layer's *self time* is the duration of its spans minus the part their
child spans cover, so self times of all layers partition the root spans
exactly.  Parentage is per thread; spans of one served request share a
``request_id`` across threads instead.

Only plain callables can be wrapped: a generator function returns before
its body runs, and the simulator interleaves the ranks' generators, so a
span around one would time nothing and nest wrongly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

__all__ = ["SpanRecorder", "Target", "TARGETS", "patched"]

# Span record fields (a list, appended on entry, closed in place on exit).
NAME, LAYER, START, END, PARENT, REQUEST, NOTE, THREAD = range(8)


class Target(NamedTuple):
    """One callable to wrap: ``module.qualname`` recorded as ``layer.name``."""

    layer: str
    name: str
    module: str
    qualname: str
    #: ``(args, kwargs) -> request id`` evaluated before the call, so
    #: child spans inherit it; ``None`` inherits the parent's.
    request_of: Callable | None = None
    #: ``(args, kwargs) -> small JSON-safe value`` recorded with the span.
    note_of: Callable | None = None


def _first_arg(args, kwargs):
    return int(args[0])


TARGETS: tuple[Target, ...] = (
    # kernels — the vectorized primitives every contraction bottoms out in
    Target("kernels", "prefix_select", "repro.kernels.unionfind",
           "prefix_select_labels", note_of=_first_arg),
    Target("kernels", "earliest_forest", "repro.kernels.unionfind",
           "earliest_forest"),
    Target("kernels", "cc_labels", "repro.kernels.unionfind", "cc_labels"),
    Target("kernels", "cc_labels", "repro.kernels.unionfind", "cc_roots"),
    Target("kernels", "bulk_contract", "repro.kernels.contract",
           "bulk_contract_edges"),
    # core — the paper's algorithms (sequential pieces and entry points)
    Target("core", "karger_stein", "repro.core.karger_stein",
           "karger_stein_matrix"),
    Target("core", "random_contract", "repro.core.karger_stein",
           "random_contract_matrix"),
    Target("core", "brute_force", "repro.core.karger_stein",
           "brute_force_matrix"),
    Target("core", "eager_step", "repro.core.mincut", "sequential_eager_step"),
    Target("core", "plan_two_out", "repro.core.two_out", "plan_two_out"),
    Target("core", "minimum_cut", "repro.core.mincut", "minimum_cut"),
    Target("core", "connected_components", "repro.core.components",
           "connected_components"),
    Target("core", "approx_minimum_cut", "repro.core.approx_mincut",
           "approx_minimum_cut"),
    # bsp / runtime — one span per backend dispatch
    Target("bsp", "sim_run", "repro.runtime.sim", "SimBackend.run"),
    Target("runtime", "mp_run", "repro.runtime.mp", "MpBackend.run"),
    Target("runtime", "warm_run", "repro.runtime.warm", "WarmMpBackend.run"),
    # graph — input handling
    Target("graph", "fingerprint", "repro.graph.fingerprint",
           "content_fingerprint"),
    Target("graph", "plane_publish", "repro.graph.shm", "publish"),
    Target("graph", "slices", "repro.graph.edgelist", "EdgeList.slices"),
    # rng
    Target("rng", "sampler_build", "repro.rng.sampling",
           "CumulativeWeightSampler.__init__"),
    Target("rng", "sample", "repro.rng.sampling",
           "CumulativeWeightSampler.sample"),
    Target("rng", "sample", "repro.rng.sampling",
           "CumulativeWeightSampler.sample_in_segments"),
    # sched
    Target("sched", "begin", "repro.sched.scheduler", "TrialScheduler.begin"),
    Target("sched", "run_wave", "repro.sched.scheduler",
           "TrialScheduler.run_wave"),
    Target("sched", "finish", "repro.sched.scheduler",
           "TrialScheduler.finish"),
    # serve — the client's two verbs, then the daemon: handle_request is
    # noted with its verb; _run_slice is the one place a job id is in hand
    # on the executor thread
    Target("serve", "client_submit", "repro.serve.client", "Client.submit"),
    Target("serve", "client_result", "repro.serve.client", "Client.result",
           request_of=lambda a, k: a[1]),
    Target("serve", "handle_request", "repro.serve.daemon",
           "Daemon.handle_request",
           request_of=lambda a, k: a[1].get("job"),
           note_of=lambda a, k: a[1].get("op")),
    Target("serve", "run_slice", "repro.serve.daemon", "Daemon._run_slice",
           request_of=lambda a, k: a[1].id),
    Target("serve", "cache_load", "repro.serve.cache", "GraphCache.load"),
    Target("serve", "jobstore_save", "repro.serve.jobs", "JobStore.save",
           request_of=lambda a, k: a[1].id),
    # dynamic
    Target("dynamic", "update_edges", "repro.dynamic.graph",
           "DynamicGraph.update_edges"),
    Target("dynamic", "query_components", "repro.dynamic.graph",
           "DynamicGraph.query_components"),
    Target("dynamic", "query_cut", "repro.dynamic.graph",
           "DynamicGraph.query_cut"),
    Target("dynamic", "snapshot", "repro.dynamic.graph",
           "DynamicGraph.snapshot"),
)


class SpanRecorder:
    """In-memory span store with per-thread nesting (module docstring)."""

    def __init__(self):
        self.spans: list[list] = []
        self._pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer, request, note) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        rec = [name, layer, 0.0, 0.0, parent, request, note,
               threading.get_ident()]
        self.spans.append(rec)   # list.append is atomic: no lock needed
        stack.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[END] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str, *, request=None, note=None):
        """A manual span around benchmark code (e.g. a workload loop)."""
        rec = self._open(name, layer, request, note)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` recording one span per call, transparent otherwise."""
        name, layer = target.name, target.layer
        request_of, note_of = target.request_of, target.note_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Forked mp workers inherit the patched modules; their spans
            # could never be collected, so they call straight through.
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            rec = self._open(
                name, layer,
                request_of(args, kwargs) if request_of else None,
                note_of(args, kwargs) if note_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, int]]:
        """``layer.name`` -> (seconds, calls).

        Seconds count only *outermost* spans of a name, so a recursive
        function (Karger–Stein) or a subclass calling its base method is
        not counted once per level; calls count every span.
        """
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            key = f"{rec[LAYER]}.{rec[NAME]}"
            calls[key] += 1
            anc = rec[PARENT]
            while anc is not None and (anc[NAME] != rec[NAME]
                                       or anc[LAYER] != rec[LAYER]):
                anc = anc[PARENT]
            if anc is None:
                seconds[key] += rec[END] - rec[START]
        return {k: (seconds[k], calls[k]) for k in calls}

    def self_times(self) -> dict[int, float]:
        """``id(span)`` -> duration minus what its child spans cover."""
        own = {id(rec): rec[END] - rec[START] for rec in self.spans}
        for rec in self.spans:
            if rec[PARENT] is not None:
                own[id(rec[PARENT])] -= rec[END] - rec[START]
        return own

    def self_by_layer(self) -> dict[str, float]:
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[LAYER]] += own[id(rec)]
        return dict(out)

    def select(self, layer: str, name: str) -> list[list]:
        return [r for r in self.spans if r[LAYER] == layer and r[NAME] == name]

    def adopt_request_ids(self) -> None:
        """Give a span without a request id the one its child carries.

        A ``submit`` is handled before its job id exists; the
        ``JobStore.save`` it performs carries the id.
        """
        for rec in self.spans:
            parent = rec[PARENT]
            if (rec[REQUEST] is not None and parent is not None
                    and parent[REQUEST] is None):
                parent[REQUEST] = rec[REQUEST]

    def write_jsonl(self, path: str) -> None:
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = rec[PARENT]
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "layer": rec[LAYER],
                    "start": rec[START], "end": rec[END],
                    "parent": None if parent is None else ids[id(parent)],
                    "request_id": rec[REQUEST], "note": rec[NOTE],
                    "thread": rec[THREAD],
                }) + "\n")


def _resolve(target: Target):
    """``(owner, attribute, original)`` for a target; owner is a module or class."""
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    orig = vars(owner)[attr]
    if inspect.isgeneratorfunction(orig):
        raise TypeError(f"{target.module}.{target.qualname} is a generator "
                        f"function; a span around it would time nothing")
    return owner, attr, orig


@contextmanager
def patched(recorder: SpanRecorder, targets=TARGETS):
    """Wrap ``targets`` for the duration of the block (module docstring)."""
    undo: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            owner, attr, orig = _resolve(target)
            wrapper = recorder.wrap(orig, target)
            if inspect.isclass(owner):
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, key)
                    for modname, mod in list(sys.modules.items())
                    if mod is not None and (modname == "repro"
                                            or modname.startswith("repro."))
                    for key, val in list(vars(mod).items()) if val is orig
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                undo.append((holder, key, orig))
        yield recorder
    finally:
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)
