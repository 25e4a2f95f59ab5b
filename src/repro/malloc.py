"""Every call into glibc's allocator.  Importing :mod:`repro` fixes the mmap
and trim thresholds, so a kernel's freed temporaries under 32 MiB stay
mapped instead of faulting back in on its next call (forked workers inherit
this; spawned ones import :mod:`repro`).  Without ``mallopt`` nothing
changes.  See docs/kernels.md, "Working memory stays mapped"."""

import ctypes

#: glibc's largest mmap threshold (64-bit), and the free heap top kept
#: mapped: the smallest power of two at which AppMC on a 100k-edge graph
#: stops faulting (16 MiB leaves ~2,950 faults a call).
MMAP_THRESHOLD = TRIM_THRESHOLD = 32 << 20

_LIBC = ctypes.CDLL(None)
_MALLOPT = getattr(_LIBC, "mallopt", None)
_MALLOC_TRIM = getattr(_LIBC, "malloc_trim", None)


def trim() -> None:
    """Hand the heap's free pages back to the OS (glibc ``malloc_trim``)."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(ctypes.c_size_t(0))


if _MALLOPT is not None:  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD (malloc.h)
    _MALLOPT(-3, MMAP_THRESHOLD)
    _MALLOPT(-1, TRIM_THRESHOLD)
