"""Host-speed calibration for the end-to-end timings.

The benchmark's host is a shared virtual machine whose speed drifts by up to
half between states that last from seconds to minutes (measured: the same
epoch took 58 ms or 88 ms depending on the state).  No amount of repetition
inside a 20-second run averages that out, so every timing is also reported
in *reference-host* units: the raw time scaled by ``REFERENCE_KERNEL_S``
over a fixed kernel's time measured in the same process right before.  The
kernel is independent of the simulator (a change to the program cannot
speed it up), and mimics the simulator's mix: small-array numpy group-bys
like the arena folds plus a plain Python loop.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Median kernel time on the host the committed baseline was measured on
#: (2 vCPU Intel Xeon, Python 3.11, numpy 2.4); normalized timings read as
#: that host would have measured them at its median speed.
REFERENCE_KERNEL_S = 0.0163


def kernel_s() -> float:
    """Seconds the calibration kernel takes right now."""
    rng = np.random.default_rng(12345)
    start = perf_counter()
    counts = {}
    for index in range(8000):
        counts[index % 499] = counts.get(index % 499, 0) + index
    for _ in range(50):
        keys = rng.integers(0, 500, 2500)
        order = np.argsort(keys, kind="stable")
        values = rng.random(2500)[order]
        ordered = keys[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        np.add.reduceat(values, starts)
        np.maximum.reduceat(values, starts)
    return perf_counter() - start
