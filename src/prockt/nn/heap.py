"""Keep the C heap from shrinking between training steps.

A training step allocates and frees tens of megabytes of activations and
gradients. By default glibc serves the largest of them with new
``mmap`` mappings and hands the top of the heap back to the OS whenever
more than a threshold is free, so the next step faults every page of its
arrays in again. Raising both thresholds keeps those pages mapped. The
trim threshold is the smallest of 64-128 MiB that kept a recurrent
(dim 200) and an attention (dim 256) training below 1,000 page faults
per training once warm. Without glibc's ``mallopt`` this does nothing.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1   # glibc's mallopt parameter numbers
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20   # bytes; larger blocks still get their own mapping
TRIM_THRESHOLD = 96 << 20   # bytes of free heap top kept before trimming


def keep_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
