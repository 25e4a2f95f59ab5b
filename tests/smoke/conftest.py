"""The CI smokes as pytest: ``python -m pytest -m smoke`` runs them all.
Written once here: the generated graph files, the /dev/shm leak check, a
spawn-start warm daemon on a tmp state dir, and the CLI as a subprocess."""
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if Path(__file__).parent in item.path.parents:
            item.add_marker(pytest.mark.smoke)


@contextlib.contextmanager
def no_shm_leaks():
    # a listing diff, not a glob: rgpl*, rsh*, psm_* and kernel-random names
    before = set(os.listdir("/dev/shm"))
    yield
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shm segments: {leaked}"


@pytest.fixture(autouse=True)
def shm_clean():
    with no_shm_leaks():
        yield


@pytest.fixture(scope="session")
def cli():
    """``cli(*args)`` runs ``python -m repro.cli`` and returns its stdout lines
    (a non-zero exit raises); ``wait=False`` returns the live Popen instead."""
    src = Path(__file__).resolve().parents[2] / "src"
    env, background = dict(os.environ, PYTHONPATH=str(src)), []

    def run(*args, wait=True):
        cmd = [sys.executable, "-m", "repro.cli", *map(str, args)]
        if wait:
            return subprocess.run(cmd, env=env, check=True, text=True,
                                  stdout=subprocess.PIPE).stdout.splitlines()
        background.append(subprocess.Popen(cmd, env=env))
        return background[-1]
    yield run
    for proc in background:   # a failed smoke must not leave its daemon up
        proc.terminate()


@pytest.fixture(scope="session")
def graphs(cli, tmp_path_factory):
    # dense inputs for 2-out: on sparse ones it degrades to the full budget
    from repro.graph import clustered_er, write_edgelist
    from repro.rng import philox_stream

    paths = {k: str(tmp_path_factory.mktemp(k) / "graph.txt")
             for k in ("cc", "serve_dense", "dense", "descend")}
    cli("generate", "--family", "er", "--n", 2000, "--degree", 8,
        "--weighted", "--seed", 1, "--out", paths["cc"])
    cli("generate", "--family", "er", "--n", 256, "--m", 3072,
        "--weighted", "--seed", 2, "--out", paths["serve_dense"])
    # AppMC's staged search descends below a disconnected level on this one
    cli("generate", "--family", "er", "--n", 4000, "--m", 32000,
        "--weighted", "--seed", 3, "--out", paths["descend"])
    write_edgelist(clustered_er(512, 32, philox_stream(9)), paths["dense"])
    return paths


@pytest.fixture
def warm_daemon(tmp_path):
    """``with warm_daemon() as d``; calls within a test share one state dir."""
    from repro.runtime.warm import WarmMpBackend
    from repro.serve import Daemon, ServeConfig, wait_server

    @contextlib.contextmanager
    def start():
        backend = WarmMpBackend(start_method="spawn", timeout=300.0,
                                graph_plane=True)
        with Daemon(ServeConfig(bind=str(tmp_path / "d.sock"), p=2,
                                state_dir=str(tmp_path / "state"),
                                backend=backend)) as daemon:
            wait_server(daemon.address, timeout=30)
            yield daemon
    return start
