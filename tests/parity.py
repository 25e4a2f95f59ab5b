"""Differential harness: the simulator as oracle for real runtimes.

For a fixed root seed, every backend must return **byte-identical**
algorithmic results — component labellings, cut values, witness
partitions, per-rank BSP counters — because all randomness flows from the
seed through per-rank Philox streams and the collective semantics are
shared code.  Only the time estimate may differ (analytic vs measured).

:func:`compare_backends` runs one algorithm under two backends and
reports every mismatch; :func:`assert_backend_parity` raises
:class:`BackendParityError` on the first divergence.  The tier-1 test
suite drives this over all three §3–§4 algorithms, which is what lets the
multiprocess runtime evolve without ever silently drifting from the
paper's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bsp.counters import CountersReport
from repro.harness import run_algorithm

__all__ = [
    "ALGORITHMS",
    "BackendParityError",
    "ParityReport",
    "compare_backends",
    "assert_backend_parity",
]

#: Algorithm tags accepted by the harness (artifact executable names).
ALGORITHMS = ("parallel_cc", "approx_cut", "square_root")


class BackendParityError(AssertionError):
    """Two backends disagreed on an algorithmic result or a counter."""


@dataclass(frozen=True)
class ParityReport:
    """Outcome of one differential run."""

    algorithm: str
    p: int
    seed: int
    backends: tuple[str, str]
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the two backends agreed on everything compared."""
        return not self.mismatches


def _cmp_scalar(out: list[str], name: str, a, b) -> None:
    if not (a == b or (a is None and b is None)):
        out.append(f"{name}: {a!r} != {b!r}")


def _cmp_array(out: list[str], name: str, a, b) -> None:
    if a is None and b is None:
        return
    if (a is None) != (b is None):
        out.append(f"{name}: one backend returned None ({a is None} vs {b is None})")
        return
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
        out.append(
            f"{name}: arrays differ (dtype {a.dtype} vs {b.dtype}, "
            f"shape {a.shape} vs {b.shape}, "
            f"first diff at {_first_diff(a, b)})"
        )


def _first_diff(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        return "n/a"
    diff = np.nonzero(a.ravel() != b.ravel())[0]
    return int(diff[0]) if diff.size else "none"


def _cmp_counters(out: list[str], a: CountersReport, b: CountersReport) -> None:
    for f in ("p", "computation", "volume", "supersteps", "misses", "wait",
              "total_ops", "total_volume"):
        va, vb = getattr(a, f), getattr(b, f)
        if va != vb:
            out.append(f"counters.{f}: {va!r} != {vb!r}")


def compare_backends(
    algorithm: str,
    g,
    *,
    p: int = 4,
    seed: int = 0,
    backends: tuple = ("sim", "mp"),
    **kwargs,
) -> ParityReport:
    """Run ``algorithm`` on ``g`` under two backends and diff the results.

    Compares the algorithmic outputs (labels / estimates / cut values /
    witness partitions, byte-wise for arrays) and every field of the
    aggregated counters report.  Time estimates are *not* compared: the
    simulator predicts, real backends measure.
    """
    if len(backends) != 2:
        raise ValueError("compare_backends expects exactly two backends")
    ra, rb = (run_algorithm(algorithm, g, p=p, seed=seed, backend=b, **kwargs)
              for b in backends)
    names = tuple(
        b if isinstance(b, str) else getattr(b, "name", type(b).__name__)
        for b in backends
    )
    out: list[str] = []

    if algorithm == "parallel_cc":
        _cmp_scalar(out, "n_components", ra.n_components, rb.n_components)
        _cmp_array(out, "labels", ra.labels, rb.labels)
    elif algorithm == "approx_cut":
        _cmp_scalar(out, "estimate", ra.estimate, rb.estimate)
        _cmp_scalar(out, "witness_value", ra.witness_value, rb.witness_value)
        _cmp_array(out, "witness_side", ra.witness_side, rb.witness_side)
    else:  # square_root
        _cmp_scalar(out, "value", ra.value, rb.value)
        _cmp_scalar(out, "trials", ra.trials, rb.trials)
        _cmp_array(out, "side", ra.side, rb.side)
    _cmp_counters(out, ra.report, rb.report)

    return ParityReport(algorithm=algorithm, p=p, seed=seed,
                        backends=names, mismatches=out)


def assert_backend_parity(
    algorithm: str,
    g,
    *,
    p: int = 4,
    seed: int = 0,
    backends: tuple = ("sim", "mp"),
    **kwargs,
) -> ParityReport:
    """:func:`compare_backends`, raising :class:`BackendParityError` on drift."""
    report = compare_backends(algorithm, g, p=p, seed=seed,
                              backends=backends, **kwargs)
    if not report.ok:
        detail = "\n  ".join(report.mismatches)
        raise BackendParityError(
            f"{algorithm} diverged between {report.backends[0]} and "
            f"{report.backends[1]} (p={p}, seed={seed}):\n  {detail}"
        )
    return report
