"""Keep the C heap from shrinking between training steps.

A training step allocates and frees tens of megabytes of activations and
gradients. By default glibc serves the largest of them with new
``mmap`` mappings and hands the top of the heap back to the OS whenever
more than a threshold is free, so the next step faults every page of its
arrays in again. Raising both thresholds keeps most of those pages mapped.
The trim threshold is the smallest of 64-128 MiB with which most warm
trainings of a recurrent (dim 200) and an attention (dim 256) model
faulted no pages at all. It does not hold every time: in ``getrusage``
probes around each training of the benchmark, some warm attention
trainings still faulted 27,800-36,900 pages, when the allocations left
the heap top free; over a 12-round probe the guard cut minor faults from
383k-447k to 64k-93k. Without glibc's ``mallopt`` this does nothing.
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
