"""The allocator policy (:mod:`repro.malloc`): a kernel's freed temporaries
stay mapped, so a repeated call takes almost no minor page faults.

Every count is taken in a fresh interpreter, after two warm-up calls: a
heap that earlier tests have grown keeps freed blocks mapped under glibc's
default policy too, and would hide the faults the policy removes.
"""

import ctypes
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import require_mp

pytestmark = pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                                reason="needs glibc's mallopt")

#: Minor faults a steady-state call may take; glibc's defaults take
#: ~2,350-2,780 (AppMC), ~720-990 (exact cut) and ~540-2,450 per warm rank.
FAULTS = 64

_SCRIPT = """
import json, resource
from repro import approx_minimum_cut, cc_sequential, erdos_renyi, minimum_cut
from repro.rng import philox_stream
from repro.runtime.mp import MpBackend
from repro.runtime.warm import WarmMpBackend
appmc_graph = erdos_renyi(4000, 27_000, philox_stream(5), weighted=True)
assert cc_sequential(appmc_graph)[1] == 1
cut_graph = erdos_renyi(400, 6400, philox_stream(5), weighted=True)
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{setup}
counts = []
for _ in range(4):
    before = faults()
    {call}
    counts.append({count})
{teardown}
print(json.dumps(counts[{skip}:]))
"""

#: Replaces the lookup: a libc without ``mallopt``.
_NO_MALLOPT = """
import ctypes
class _Libc(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            raise AttributeError(name)
        return super().__getattr__(name)
ctypes.CDLL = _Libc
"""

_APPMC = "approx_minimum_cut(appmc_graph, 2, seed=3, backend='sim')"
_DELTA = "faults() - before"


def steady_counts(call: str, count: str = _DELTA, prelude: str = "",
                  setup: str = "", teardown: str = "", skip: int = 2) -> list:
    """The fault counts of four calls of ``call`` in a new interpreter,
    the first ``skip`` (warm-ups) left out."""
    script = prelude + _SCRIPT.format(call=call, count=count, setup=setup,
                                      teardown=teardown, skip=skip)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=300,
                         env=env)
    return json.loads(out.stdout.splitlines()[-1])


def test_appmc_call_stays_mapped():
    assert max(steady_counts(_APPMC)) <= FAULTS


def test_exact_cut_call_stays_mapped():
    call = "minimum_cut(cut_graph, 2, seed=3, trials=2, backend='sim')"
    assert max(steady_counts(call)) <= FAULTS


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_warm_ranks_stay_mapped(start_method):
    """Per-rank faults of a repeated warm-pool AppMC: forked workers
    inherit the policy, spawned ones set it again as they import repro."""
    require_mp()
    runs = steady_counts(
        "approx_minimum_cut(appmc_graph, 2, seed=3, backend=b)",
        "[r['minor_faults'] for r in b.last_transport_stats['ranks']]",
        setup=f"b = WarmMpBackend(start_method={start_method!r})",
        teardown="b.close()")
    assert all(len(ranks) == 2 for ranks in runs)
    assert max(map(max, runs)) <= FAULTS


@pytest.mark.parametrize("start_method, steady_from", [("fork", 3),
                                                       ("spawn", 2)])
def test_kept_pool_ranks_stay_mapped(start_method, steady_from):
    """An ``mp`` backend keeps its pool: from its ``steady_from``-th run on,
    rank 0 (the caller) and the worker take no more faults than a warm
    rank.  Under ``fork`` the first run's copy-on-write faults are the
    fork's (~3,300 and ~1,800), and the second run is the first staged
    through the graph plane: both ranks write inherited pages that path
    touches for the first time (~50-110 faults each)."""
    require_mp()
    runs = steady_counts(
        "approx_minimum_cut(appmc_graph, 2, seed=3, backend=b)",
        "[r['minor_faults'] for r in b.last_transport_stats['ranks']]",
        setup=f"b = MpBackend(start_method={start_method!r})\n"
              "approx_minimum_cut(appmc_graph, 2, seed=3, backend=b)",
        teardown="assert b.pool_spawns == 1\nb.close()",
        skip=steady_from - 2)
    assert all(len(ranks) == 2 for ranks in runs)
    assert max(map(max, runs)) <= FAULTS


def test_without_mallopt_nothing_changes():
    """A libc without ``mallopt``: importing repro leaves glibc's defaults,
    so the same AppMC call faults its temporaries back in."""
    assert min(steady_counts(_APPMC, prelude=_NO_MALLOPT)) > 10 * FAULTS
