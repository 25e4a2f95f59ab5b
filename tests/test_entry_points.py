"""One way to run a program: every public SPMD entry point takes the one
``backend=`` argument, tracing is switched on by ``tracer=`` alone, and
programs run through ``Backend.run``.

The sim-only baselines of §5 (PBGL, parallel Galois) and the MSF
comparator run on real processes through that argument, bit-identical to
the simulator but for the measured time.
"""

import ast
import inspect
import pathlib

import numpy as np
import pytest

import repro
import repro.bsp
from repro.baselines import galois_cc_parallel, pbgl_cc
from repro.bsp.engine import Engine
from repro.core import (
    approx_minimum_cut,
    connected_components,
    minimum_cut,
    minimum_cuts,
    minimum_spanning_forest,
)
from repro.core.two_out import plan_two_out, two_out_minimum_cut
from repro.graph import erdos_renyi
from repro.rng import philox_stream
from repro.runtime import MpBackend, SimBackend, WarmMpBackend
from tests.conftest import require_mp

ENTRY_POINTS = (connected_components, approx_minimum_cut, minimum_cut,
                minimum_cuts, plan_two_out, two_out_minimum_cut, pbgl_cc,
                galois_cc_parallel, minimum_spanning_forest)

SRC = pathlib.Path(repro.__file__).parent

#: The modules that may build an engine: the simulator backend, the mp
#: worker (each rank runs the matcher itself) and the mp coordinator's
#: ``p`` check.
ENGINE_BUILDERS = {"runtime/sim.py", "runtime/worker.py", "runtime/mp.py"}


@pytest.fixture(scope="module")
def forest_graph():
    """Weighted, several components, repeated weights (tie breaks)."""
    g = erdos_renyi(240, 260, philox_stream(17), weighted=True)
    assert minimum_spanning_forest(g, 3).n_components > 1
    return g


@pytest.mark.parametrize("fn", [pbgl_cc, galois_cc_parallel],
                         ids=lambda f: f.__name__)
def test_cc_baselines_on_mp_match_sim(fn, forest_graph):
    require_mp()
    labels, count, report, _ = fn(forest_graph, 3, seed=5)
    mp_labels, mp_count, mp_report, _ = fn(forest_graph, 3, seed=5,
                                           backend="mp")
    assert np.array_equal(mp_labels, labels)
    assert mp_count == count
    assert mp_report == report


def test_msf_on_mp_matches_sim(forest_graph):
    require_mp()
    sim = minimum_spanning_forest(forest_graph, 3, seed=5)
    mp_ = minimum_spanning_forest(forest_graph, 3, seed=5, backend="mp")
    for col in ("u", "v", "w"):
        assert np.array_equal(getattr(mp_.forest, col),
                              getattr(sim.forest, col))
    assert np.array_equal(mp_.labels, sim.labels)
    assert mp_.n_components == sim.n_components
    assert mp_.total_weight == sim.total_weight
    assert mp_.report == sim.report


@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_point_takes_backend_not_engine(fn):
    params = inspect.signature(fn).parameters
    assert "backend" in params
    assert "engine" not in params
    assert "trace" not in params


@pytest.mark.parametrize("knob", ["trace", "engine"])
@pytest.mark.parametrize("cls", [Engine, SimBackend, MpBackend,
                                 WarmMpBackend], ids=lambda c: c.__name__)
def test_tracer_is_the_one_switch(cls, knob):
    """No boolean ``trace`` beside ``tracer=``, no ready engine passed in
    (``WarmMpBackend`` forwards its keywords to ``MpBackend``)."""
    assert knob not in inspect.signature(cls).parameters
    with pytest.raises(TypeError):
        cls(**{knob: True})


def test_no_second_runner():
    """Neither ``repro.bsp`` nor ``repro`` exports a one-shot runner beside
    ``Backend.run``."""
    for module in (repro.bsp, repro):
        assert not [name for name in dir(module) if name.startswith("run_")]


def test_engine_built_only_by_the_runtimes():
    built = {}
    for path in sorted(SRC.rglob("*.py")):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id",
                             getattr(node.func, "attr", None)) == "Engine"]
        if calls:
            built[path.relative_to(SRC).as_posix()] = calls
    assert set(built) == ENGINE_BUILDERS
    # mp.py's one engine validates p and yields the world group; it never
    # runs a program.
    assert len(built["runtime/mp.py"]) == 1
    assert "Engine()._begin_run(p)" in (SRC / "runtime/mp.py").read_text()
