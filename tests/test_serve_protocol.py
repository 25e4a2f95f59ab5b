"""The wire schema (``repro.serve.protocol.VERBS``) and its one parser.

Three properties, each checked against the table itself rather than a
hand-kept list:

* every verb the table declares has a handler, and no handler is left
  outside the table;
* a request the schema refuses — generated per verb × field: missing,
  wrong-typed, out-of-domain, nested, unknown, and unknown verbs — is a
  ``ProtocolError`` naming the field, logs nothing at ERROR and changes
  no state;
* every request document :class:`~repro.serve.Client` builds parses.
"""

import logging
import os

import pytest

from repro.core.trials import field_error
from repro.graph import erdos_renyi, write_edgelist
from repro.rng import philox_stream
from repro.serve import Client, Daemon, ServeConfig
from repro.serve.protocol import (
    ALGORITHM_FIELDS,
    FORWARDED,
    REQUIRED,
    VERBS,
    ProtocolError,
    decode_line,
    encode_line,
    parse,
)

#: Candidate values for a field, each kept only where the field's domain
#: refuses it: wrong types, out-of-domain numbers, nested containers.
BAD_VALUES = (None, True, "x", -1, 0, 0.5, 7, float("nan"), float("inf"),
              [], {}, [1], {"x": 1})

#: Candidates for an in-domain value of a forwarded algorithm field.
GOOD_VALUES = (True, 1, 0.5, "2out")


@pytest.fixture
def served(tmp_path):
    """A threadless daemon holding one queued job and one open session,
    and a valid value for every required field."""
    path = str(tmp_path / "g.edges")
    write_edgelist(erdos_renyi(30, 90, philox_stream(2), weighted=True), path)
    d = Daemon(ServeConfig(bind="", state_dir=str(tmp_path / "state"),
                           backend="sim"))
    job = d.handle_request({"op": "submit", "algorithm": "parallel_cc",
                            "path": path})["job"]
    session = d.handle_request({"op": "dyn_open", "path": path})["session"]
    return d, {"path": path, "job": job, "session": session, "ops": [],
               "query": "components", "algorithm": "parallel_cc"}


def _good(name):
    return next(v for v in GOOD_VALUES if field_error(name, v) is None)


def _base(verb, valid):
    """The smallest valid request for ``verb``: its required fields."""
    return {"op": verb, **{k: valid[k] for k, d in VERBS[verb].items()
                           if d is REQUIRED}}


def _cases(verb, valid):
    """``(request, field it must name)`` for every way the schema refuses
    a request for ``verb``, each a valid request with one thing wrong."""
    fields, base = VERBS[verb], _base(verb, valid)
    for name, default in fields.items():
        doc = dict(base)
        if verb == "submit" and default is FORWARDED:   # under an
            # algorithm that takes the field
            doc["algorithm"] = next(a for a, names in ALGORITHM_FIELDS.items()
                                    if name in names)
        if default is REQUIRED:
            yield {k: v for k, v in doc.items() if k != name}, name
        for bad in BAD_VALUES:
            if field_error(name, bad) is not None:
                yield {**doc, name: bad}, name
    yield {**base, "bogus": 1}, "bogus"
    yield {**base, "trails": 5}, "trails"
    if verb == "submit":             # fields outside the algorithm's own
        every = sum(ALGORITHM_FIELDS.values(), ())
        for algorithm, names in ALGORITHM_FIELDS.items():
            for name in sorted(set(every) - set(names)):
                yield ({**base, "algorithm": algorithm, name: _good(name)},
                       name)
        yield {**base, "algorithm": "square_root", "variant": "2out",
               "trials": 5}, "trials"


def _state(d):
    listing = sorted(os.path.join(root, f) for root, _dirs, files
                     in os.walk(d.config.state_dir) for f in files)
    return ({jid: job.to_doc() for jid, job in d.jobs.items()},
            sorted(d.dynamic.sessions), listing, len(d.queue))


def test_every_verb_has_a_handler():
    handlers = {name[len("_op_"):] for name in dir(Daemon)
                if name.startswith("_op_")}
    assert handlers == set(VERBS)


def test_parse_fills_defaults_and_collects_forwarded_fields():
    assert parse("result", {"op": "result", "job": "j1"}) == {
        "job": "j1", "wait": False, "timeout": None, "kwargs": {}}
    args = parse("submit", {"op": "submit", "algorithm": "square_root",
                            "path": "g", "priority": 2, "trials": 3})
    assert args["kwargs"] == {"trials": 3}
    assert (args["seed"], args["p"], args["client"], args["priority"]) == (
        0, None, "anon", 2)
    # the caller's defaults fill what was not sent, never what was
    req = {"op": "dyn_open", "path": "g"}
    assert parse("dyn_open", req, {"p": 4})["p"] == 4
    assert parse("dyn_open", {**req, "p": 2}, {"p": 4})["p"] == 2


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_generated_cases_are_refused_cleanly(served, caplog, verb):
    d, valid = served
    parse(verb, _base(verb, valid))  # the cases below differ in one thing
    before = _state(d)
    failures = []
    with caplog.at_level(logging.INFO):
        for doc, name in _cases(verb, valid):
            reply = d.handle_request(doc)
            if (reply.get("error") != "ProtocolError"
                    or name not in reply["message"]):
                failures.append((doc, reply))
    assert failures == []
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert _state(d) == before


@pytest.mark.parametrize("doc", [
    {}, {"op": "nope"}, {"op": None}, {"op": ["submit"]}, {"op": {}},
    {"op": "_op_ping"}, {"op": "handle_request"}])
def test_unknown_verbs_are_refused(served, doc):
    d, _valid = served
    before = _state(d)
    reply = d.handle_request(doc)
    assert reply["error"] == "ProtocolError" and "op" in reply["message"]
    assert _state(d) == before


def test_the_probe_requests_are_refused(served):
    """Requests an earlier wire answered ``ok`` while ignoring or coercing
    a field: each is now refused, naming it, and persists nothing."""
    d, v = served
    probes = [
        ({"op": "submit", "algorithm": "parallel_cc", "path": v["path"],
          "trails": 5}, "trails"),
        ({"op": "submit", "algorithm": "square_root", "path": v["path"],
          "eps": 0.3}, "eps"),
        ({"op": "dyn_open", "path": v["path"], "eps": 3}, "eps"),
        ({"op": "dyn_close"}, "session"),
        ({"op": "ping", "x": 1}, "x"),
    ] + [
        ({"op": "submit", "algorithm": "parallel_cc", "path": v["path"],
          "client": bad}, "client") for bad in ([1], None, {"x": 1})
    ] + [
        ({"op": "dyn_query", "session": v["session"], "query": "cut",
          "client": bad}, "client") for bad in ([1], None, {"x": 1})
    ]
    before = _state(d)
    for doc, name in probes:
        reply = d.handle_request(doc)
        assert reply["error"] == "ProtocolError", (doc, reply)
        assert name in reply["message"], (doc, reply)
    assert _state(d) == before


def test_client_requests_conform_to_the_schema():
    """Every document a ``Client`` method puts on the wire parses."""
    sent = []

    def request(doc):
        sent.append(decode_line(encode_line(doc)))
        return {"ok": True, "job": "j1", "session": "d1", "result": None}

    c = Client.__new__(Client)
    c.name, c.priority, c.request = "alice", 2.0, request
    c.ping()
    c.submit("parallel_cc", "g", seed=1, p=2, fingerprint="ab", eps=0.5,
             delta=0.1, hybrid=True)
    c.submit("approx_cut", "g", priority=3, trials_per_level=2,
             pipelined=True)
    c.submit("square_root", "g", trials=4, trial_scale=0.5,
             success_prob=0.8, preprocess=False)
    c.run("square_root", "g", variant="2out")
    c.status("j1")
    c.result("j1", timeout=1.5)
    c.result("j1", wait=False)
    c.cancel("j1")
    c.dyn_open("g", seed=2, p=2, fingerprint="ab", reconnect_budget=8,
               success_prob=0.5, trial_scale=0.5)
    c.dyn_update("d1", [["insert", 0, 1, 1.0]])
    c.dyn_staleness("d1")
    c.dyn_query("d1", "cut", mode="approx", if_stale="requeue", priority=2)
    c.dyn_components("d1", timeout=1.0)
    c.dyn_cut("d1", mode="exact")
    c.dyn_close("d1", discard=False)
    c.stats()
    c.shutdown()
    assert {doc["op"] for doc in sent} == set(VERBS)
    for doc in sent:
        try:
            parse(doc["op"], doc)
        except ProtocolError as exc:
            pytest.fail(f"{doc}: {exc}")
