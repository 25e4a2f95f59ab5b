"""Superstep fusion policy: which collectives may share one latency charge.

The paper's cost model bills every synchronization one latency ``L`` (times
``log p`` for the MPI collective implementation).  Back-to-back *small*
collectives on the same group — an ``allreduce`` of one scalar followed
immediately by another, with no local computation in between — each pay that
L today even though a real runtime would piggyback them on a single round
trip.  Fusion merges such neighbours into **one superstep**: one L, the
combined h-relation, and — critically — bit-identical results, computation,
transfer and miss counters, because fusion only elides synchronizations, it
never reorders or re-associates any charge.

The engine fuses automatically when asked (``fuse=`` on every backend):
it notices that every member of a group arrived at a new collective with
*no local charges* since that group's previous collective, and
retroactively merges the new collective into the previous superstep,
within the bounds of a :class:`FusionConfig`.  Only :data:`FUSABLE_KINDS`
merge — collectives whose results do not change group membership
(``split`` creates communicators and must remain its own synchronization
point) — and only small payloads, mirroring the "latency-bound message"
regime where fusion pays off on a real machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bsp.comm import payload_words

__all__ = ["FusionConfig", "FusionState", "FUSABLE_KINDS", "as_fusion_config"]

#: Collective kinds eligible for fusion.  ``split`` is excluded because its
#: result is a new communicator (group structure must be settled between
#: supersteps); ``scatter``/``scatterv`` and the all-to-alls are excluded
#: because their payloads are root- or matrix-shaped and essentially never
#: latency-bound.
FUSABLE_KINDS = frozenset({
    "barrier", "bcast", "gather", "allgather", "reduce", "allreduce",
    "gatherv", "allgatherv",
})


@dataclass(frozen=True)
class FusionConfig:
    """Tunables for automatic adjacent fusion.

    Parameters
    ----------
    max_words:
        Upper bound on the *combined* payload words of one fused
        superstep; collectives that would push the running superstep past
        this stay unfused (big transfers are bandwidth-bound, and fusing
        them would hide real h-relation serialization).
    max_chain:
        Maximum number of collectives merged into one superstep.  Bounds
        the latency win per superstep and keeps traces legible.
    """

    max_words: int = 4096
    max_chain: int = 16

    def __post_init__(self) -> None:
        if self.max_words < 1:
            raise ValueError(f"max_words must be >= 1, got {self.max_words}")
        if self.max_chain < 2:
            raise ValueError(f"max_chain must be >= 2, got {self.max_chain}")


class FusionState:
    """One run's adjacent-fusion bookkeeping.

    ``Engine._execute`` calls :meth:`step` once per matched collective —
    under the simulator and, on posted counters, on every mp worker — so
    the merge criterion and the chain accounting exist once and fused
    runs stay bit-identical across backends.
    """

    def __init__(self, config: FusionConfig):
        self.config = config
        self._last_sync: dict[int, tuple[int, bool]] = {}  # rank -> (gid, fusable)
        self._chain: dict[int, int] = {}        # gid -> collectives this superstep
        self._chain_words: dict[int, int] = {}  # gid -> words this superstep

    def step(self, group, ops, clean) -> tuple[bool, int]:
        """Account for one matched collective; returns ``(merged, words)``.

        ``merged`` says the collective joins the group's current superstep:
        its kind is fusable, the superstep stays within ``max_chain`` and
        ``max_words``, every member's previous sync was a fusable
        collective on this same group, and every member arrived ``clean``
        (no local charges since) — then all since-sync values are zero and
        the merge elides only the latency.
        """
        cfg, gid = self.config, group.gid
        fusable = ops[0].kind in FUSABLE_KINDS
        words = sum(payload_words(op.payload) for op in ops)
        merged = (
            fusable
            and self._chain.get(gid, 0) + 1 <= cfg.max_chain
            and self._chain_words.get(gid, 0) + words <= cfg.max_words
            and all(self._last_sync.get(m) == (gid, True)
                    for m in group.members)
            and all(clean)
        )
        if merged:
            self._chain[gid] += 1
            self._chain_words[gid] += words
        else:
            self._chain[gid] = 1
            self._chain_words[gid] = words
        for m in group.members:
            self._last_sync[m] = (gid, fusable)
        return merged, words


def as_fusion_config(fuse) -> FusionConfig | None:
    """Normalize the ``fuse=`` argument accepted across backends.

    ``None``/``False`` disable auto-fusion (the default — blessed baselines
    keep their superstep counts), ``True`` selects the default
    :class:`FusionConfig`, and a ready config passes through.
    """
    if fuse is None or fuse is False:
        return None
    if fuse is True:
        return FusionConfig()
    if isinstance(fuse, FusionConfig):
        return fuse
    raise TypeError(
        f"fuse must be None, a bool, or a FusionConfig, got {type(fuse).__name__}"
    )
