"""Measurement methodology: repeated runs, medians, nonparametric CIs.

The artifact collects measurements "until the 95% confidence interval for
the median was within 5% of the reported values" and uses a different fixed
PRNG seed per execution.  :func:`measure` reproduces this: it calls a
metric function with consecutive derived seeds, reports the median, and
keeps adding repetitions (up to a cap) until the order-statistic CI of the
median meets the tolerance.

:func:`run_algorithm` is the backend-aware dispatcher the experiment
scripts and the backend benchmark share: one ``(algorithm, graph, p,
seed, backend)`` tuple in, the algorithm's result object out — under the
simulator or on real processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["median_ci", "measure", "Datapoint", "run_algorithm"]


def run_algorithm(algorithm: str, g, *, p: int = 4, seed: int = 0,
                  backend=None, tracer=None, scheduler=None, **kwargs):
    """Run one of the artifact algorithms on a chosen execution backend.

    ``algorithm`` is an artifact executable tag: ``"parallel_cc"``,
    ``"approx_cut"`` or ``"square_root"``.  ``backend`` is ``"sim"``
    (default), ``"mp"``, or a :class:`~repro.runtime.base.Backend`
    instance; extra ``kwargs`` flow to the algorithm's entry point —
    e.g. ``variant="2out"`` routes ``"square_root"`` through the random
    2-out contraction preprocessing (:mod:`repro.core.two_out`), and
    ``trial_scale=`` rescales its Monte-Carlo budget.
    ``tracer`` attaches a :class:`~repro.trace.tracer.Tracer` (e.g. a
    ``RecordingTracer``) to a fresh backend of the requested kind; the
    result object then carries the run's per-superstep trace.
    ``scheduler`` — a :class:`~repro.sched.scheduler.TrialScheduler` —
    engages the fault-tolerant trial dispatch loop; it applies to the
    Monte-Carlo ``"square_root"`` algorithm only (the others have no
    trial structure to schedule) and is rejected for the rest.  Returns
    the entry point's result object (``CCResult`` / ``ApproxMinCutResult``
    / ``MinCutResult``), whose ``time`` is analytic under ``sim`` and
    measured wall-clock under ``mp``.
    """
    # Imported here: repro.core pulls in scipy-heavy modules at load time.
    from repro.core import (
        approx_minimum_cut,
        connected_components,
        minimum_cut,
    )

    dispatch = {
        "parallel_cc": connected_components,
        "approx_cut": approx_minimum_cut,
        "square_root": minimum_cut,
    }
    try:
        fn = dispatch[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{sorted(dispatch)}"
        ) from None
    if scheduler is not None:
        if algorithm != "square_root":
            raise ValueError(
                f"scheduler= applies to the trial-based 'square_root' "
                f"algorithm only, not {algorithm!r}"
            )
        kwargs["scheduler"] = scheduler
    from repro.runtime.base import owned_backend

    with owned_backend(backend, tracer=tracer) as runtime:
        return fn(g, p=p, seed=seed, backend=runtime, **kwargs)

def median_ci(values: list[float], confidence: float = 0.95) -> tuple[float, float]:
    """Nonparametric CI for the median from order statistics.

    Uses the binomial distribution of the number of observations below the
    median (Le Boudec, *Performance Evaluation*, §2 — the reference the
    artifact cites for this guarantee).
    """
    from scipy.stats import binom  # ~1 s to import; only this needs it

    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one observation")
    if n == 1:
        return xs[0], xs[0]
    alpha = 1.0 - confidence
    lo_idx = int(binom.ppf(alpha / 2, n, 0.5))
    hi_idx = int(binom.ppf(1 - alpha / 2, n, 0.5))
    lo_idx = max(0, min(lo_idx, n - 1))
    hi_idx = max(0, min(hi_idx, n - 1))
    return xs[lo_idx], xs[hi_idx]

@dataclass
class Datapoint:
    """One reported datapoint: the median of repeated executions."""

    median: float
    ci_low: float
    ci_high: float
    repetitions: int
    samples: list[float] = field(repr=False, default_factory=list)

    @property
    def ci_ok(self) -> bool:
        """Whether the 95% CI is within 5% of the median (artifact bar)."""
        if self.median == 0:
            return self.ci_low == self.ci_high == 0
        return (
            abs(self.ci_high - self.median) <= 0.05 * abs(self.median)
            and abs(self.median - self.ci_low) <= 0.05 * abs(self.median)
        )

def measure(
    metric: Callable[[int], float],
    *,
    seed_base: int = 0,
    min_repetitions: int = 5,
    max_repetitions: int = 31,
    tolerance: float = 0.05,
    confidence: float = 0.95,
) -> Datapoint:
    """Run ``metric(seed)`` repeatedly and report the median datapoint.

    Stops once the ``confidence`` CI of the median is within ``tolerance``
    of it, or at ``max_repetitions``.  Seeds are ``seed_base, seed_base+1,
    ...`` so every execution uses fresh, reproducible randomness.
    """
    if min_repetitions < 1 or max_repetitions < min_repetitions:
        raise ValueError("invalid repetition bounds")
    samples: list[float] = []
    rep = 0
    while rep < max_repetitions:
        samples.append(float(metric(seed_base + rep)))
        rep += 1
        if rep >= min_repetitions:
            med = float(np.median(samples))
            lo, hi = median_ci(samples, confidence)
            spread_ok = (
                med != 0
                and abs(hi - med) <= tolerance * abs(med)
                and abs(med - lo) <= tolerance * abs(med)
            ) or (med == 0 and lo == hi == 0)
            if spread_ok:
                break
    med = float(np.median(samples))
    lo, hi = median_ci(samples, confidence)
    return Datapoint(median=med, ci_low=lo, ci_high=hi,
                     repetitions=len(samples), samples=samples)
