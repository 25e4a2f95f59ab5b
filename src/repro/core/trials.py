"""Trial-count calculation for the exact minimum cut algorithm (§4).

A trial = Eager Step (random contraction to ceil(sqrt(m)) + 1 vertices) +
Recursive Step (Recursive Contraction).  A *specific* minimum cut survives
random contraction from n to t vertices with probability at least
t(t-1) / (n(n-1)) (Lemma 2.1), and Recursive Contraction finds a surviving
minimum cut with probability at least 1/Omega(log n) (Lemma 2.2).  The
number of independent trials needed for overall success probability P is
ceil(ln(1/(1-P)) / q) with q the per-trial success bound — which is the
paper's Theta((n^2/m) log^2 n) for constant P boosted to w.h.p.

The artifact runs all experiments at minimum success probability 0.9; we
default to the same.

The same bound prices the ``variant="2out"`` pipeline
(:mod:`repro.core.two_out`): each 2-out contraction replica calls
:func:`num_trials` with its *contracted* ``n'``, ``m'`` at the
conditional per-replica target, which is where the dense-graph trial
reduction comes from — the bound is quadratic in ``n``.
"""

from __future__ import annotations

import math

__all__ = [
    "FIELD_DOMAINS",
    "VARIANTS",
    "field_error",
    "eager_survival_probability",
    "recursive_success_probability",
    "num_trials",
    "achieved_success_probability",
]

#: Exact-min-cut pipelines: the paper's, or 2-out contraction first.
VARIANTS = ("default", "2out")

_INT, _REAL, _BOOL = (int,), (int, float), (bool,)
_COUNT = (_INT, lambda v: v >= 1, ">= 1")
_NONNEGATIVE = (_INT, lambda v: v >= 0, ">= 0")
_POSITIVE = (_REAL, lambda v: 0 < v < math.inf, "> 0")
_PROBABILITY = (_REAL, lambda v: 0 < v < 1, "in (0, 1)")
_FLAG = (_BOOL, lambda v: True, "true or false")
#: Domain of every numeric or flag option the CLI takes and field the serve
#: wire carries, one table for both (:func:`field_error`):
#: name -> (accepted types, predicate, the domain in words).
FIELD_DOMAINS = {
    "seed": (_INT, lambda v: True, "an integer"),
    **dict.fromkeys(("p", "trials", "trials_per_level", "wave_size", "batches",
                     "batch_size", "query_every", "top", "max_words"), _COUNT),
    **dict.fromkeys(("reconnect_budget", "max_retries"), _NONNEGATIVE),
    "retry_backoff": (_REAL, lambda v: 0 <= v < math.inf, ">= 0"),
    **dict.fromkeys(("priority", "trial_scale", "eps", "quantum"), _POSITIVE),
    **dict.fromkeys(("success_prob", "delta"), _PROBABILITY),
    "variant": ((str,), lambda v: v in VARIANTS, f"one of {VARIANTS}"),
    **dict.fromkeys(("hybrid", "pipelined", "preprocess", "dense"), _FLAG),
}


def field_error(name: str, value) -> str | None:
    """``"must be <domain>, got <value>"`` if ``value`` is of the wrong type
    for field ``name`` (a bool is not a number) or outside its domain
    (NaN and infinities are outside every one), else ``None``."""
    types, holds, words = FIELD_DOMAINS[name]
    if (isinstance(value, types) and holds(value)
            and isinstance(value, bool) == (types is _BOOL)):
        return None
    return f"must be {words}, got {value!r}"


def eager_survival_probability(n: int, t: int) -> float:
    """Lemma 2.1: P[a given minimum cut survives contraction n -> t]."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if t >= n:
        return 1.0
    return (t * (t - 1)) / (n * (n - 1))


def recursive_success_probability(n: int) -> float:
    """Lemma 2.2 bound: Recursive Contraction succeeds w.p. >= 1/O(log n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return min(1.0, 1.0 / max(1.0, math.log2(n)))


def _per_trial_q(n: int, m: int) -> float:
    """The per-trial success lower bound q (Lemmas 2.1 + 2.2).

    One independent trial finds a given minimum cut with probability at
    least ``q``; ``t`` trials therefore succeed with probability at least
    ``1 - (1-q)^t >= 1 - exp(-q t)``.  Shared by :func:`num_trials` (which
    inverts the bound for a requested probability) and
    :func:`achieved_success_probability` (which evaluates it forward for a
    completed-trial count), so requested and achieved probabilities are
    exact inverses of each other.
    """
    if m < 1:
        raise ValueError(f"need at least one edge, got m={m}")
    t_eager = min(n, math.ceil(math.sqrt(m)) + 1)
    q = eager_survival_probability(n, max(2, t_eager))
    q *= recursive_success_probability(max(2, t_eager))
    return q


def num_trials(
    n: int,
    m: int,
    *,
    success_prob: float = 0.9,
    scale: float = 1.0,
) -> int:
    """Number of independent trials for overall success ``success_prob``.

    ``success_prob`` must lie strictly inside ``(0, 1)``: certainty
    (``>= 1``) needs infinitely many Monte-Carlo trials and ``<= 0``
    requests no guarantee at all, so both are rejected rather than
    silently clamped.  ``scale`` < 1 shrinks the count for scaled-down
    benchmark runs (the reproduction's stand-in for the paper's full-size
    configurations); the success guarantee then degrades proportionally
    and is reported as such.
    """
    if not 0 < success_prob < 1:  # also rejects NaN: all comparisons fail
        raise ValueError(
            f"success_prob must be strictly between 0 and 1 (exclusive), "
            f"got {success_prob!r}: probability 1.0 needs infinitely many "
            "Monte-Carlo trials and probability <= 0 requests no guarantee"
        )
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    q = _per_trial_q(n, m)
    raw = math.log(1.0 / (1.0 - success_prob)) / q
    return max(1, math.ceil(raw * scale))


def achieved_success_probability(n: int, m: int, completed: int) -> float:
    """Success probability *achieved* by ``completed`` finished trials.

    The forward evaluation of the bound :func:`num_trials` inverts:
    ``1 - exp(-q * completed)`` with the same per-trial ``q``.  Because
    ``num_trials`` rounds the trial count *up*, completing the full
    planned count always achieves at least the requested probability;
    fewer completed trials (a partial, fault-degraded run) yield a
    correspondingly smaller guarantee — which is the honest number a
    fault-tolerant scheduler must report.
    """
    if completed < 0:
        raise ValueError(f"completed trial count must be >= 0, got {completed}")
    if completed == 0:
        return 0.0
    q = _per_trial_q(n, m)
    # -expm1(-x) = 1 - exp(-x) without cancellation for small q*completed.
    return -math.expm1(-q * completed)
