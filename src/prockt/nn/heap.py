"""Keep the C heap from shrinking between training steps.

A training step allocates and frees tens of megabytes of activations and
gradients. By default glibc serves the largest of them with new
``mmap`` mappings and hands the top of the heap back to the OS whenever
more than a threshold is free, so the next step faults every page of its
arrays in again. Raising both thresholds keeps most of those pages mapped.
The trim threshold is the smallest of 64-128 MiB with which most warm
trainings of a recurrent (dim 200) and an attention (dim 256) model
faulted no pages at all. In ``getrusage`` probes around each training of
40-second benchmark runs (seed 1, one step's graph alive at a time), every
warm recurrent training faulted no page with the guard and 10,300-10,800
without it; warm attention trainings faulted a median of 0 and at most
955 pages with it (about 1,400 in 44-50 trainings), and a median of 954
and up to 19,200 without it (303k in 47). The guard also shows end to
end. On a 2-core host (seed 1, 30-second benchmark runs, guard on and off
alternating, three each), the fastest tenth of a training's raw time was
76-79 ms with it and 97-100 ms without on ``train-lstm-padded`` (16
windows), and 165-171 ms with it and 202-211 ms without on ``annotate``
(32 windows), where raising only the mmap threshold gave 217-237 ms. Peak
RSS moved by under 7 MB on both. The benchmark's host-scaled windows/s
hide the gain on ``annotate`` (162-174 with it, 143-186 without): its
host-speed kernel allocates 5 MB arrays, which the guard also speeds up.
Without glibc's ``mallopt`` this does nothing.
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
